type waker = unit -> unit

exception Deadlock of string

type t = {
  id : int;
  mutable clock : Time.t;
  events : (unit -> unit) Pheap.t;
  mutable seq : int;
  runq : (unit -> unit) Queue.t;
  mutable failure : exn option;
  mutable current : string option;
}

type _ Effect.t += Suspend : (waker -> unit) -> unit Effect.t

let next_id = ref 0

let create () =
  incr next_id;
  { id = !next_id;
    clock = Time.zero;
    events = Pheap.create ();
    seq = 0;
    runq = Queue.create ();
    failure = None;
    current = None }

let id t = t.id
let now t = t.clock
let pending_events t = Pheap.size t.events

let at t when_ f =
  let key = Stdlib.max (Time.to_ns when_) (Time.to_ns t.clock) in
  t.seq <- t.seq + 1;
  Pheap.insert t.events ~key ~seq:t.seq f

let after t d f = at t (Time.add t.clock d) f

let suspend register = Effect.perform (Suspend register)

let current_name t = t.current

(* Runs [thunk] with the scheduler's current-thread label set to [name],
   restoring the previous label on exit.  Everything is cooperative, so a
   single mutable field suffices; continuations re-enter through here so
   the label is accurate across suspension points (the lock-order
   sanitizer keys its held-lock stacks on it). *)
let run_as t name thunk =
  let saved = t.current in
  t.current <- Some name;
  Fun.protect ~finally:(fun () -> t.current <- saved) thunk

let spawn t ?(name = "thread") f =
  let body () =
    let open Effect.Deep in
    match_with f ()
      { retc = (fun () -> ());
        exnc =
          (fun e ->
            if t.failure = None then
              t.failure <-
                Some (Failure (Printf.sprintf "thread %s: %s" name (Printexc.to_string e))));
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
                Some
                  (fun (k : (a, unit) continuation) ->
                    let fired = ref false in
                    let wake () =
                      if not !fired then begin
                        fired := true;
                        Queue.push (fun () -> run_as t name (fun () -> continue k ())) t.runq
                      end
                    in
                    register wake)
            | _ -> None) }
  in
  Queue.push (fun () -> run_as t name body) t.runq

let sleep t d = suspend (fun wake -> after t d wake)
let yield t = suspend (fun wake -> Queue.push wake t.runq)

let check_failure t =
  match t.failure with
  | None -> ()
  | Some e ->
      t.failure <- None;
      raise e

let step_ready t =
  while not (Queue.is_empty t.runq) do
    let job = Queue.pop t.runq in
    job ()
  done

let run t =
  let rec loop () =
    step_ready t;
    check_failure t;
    match Pheap.pop t.events with
    | None -> ()
    | Some (key, f) ->
        t.clock <- Time.of_ns key;
        f ();
        loop ()
  in
  loop ();
  check_failure t

let run_until t limit =
  let rec loop () =
    step_ready t;
    check_failure t;
    match Pheap.min_key t.events with
    | None -> ()
    | Some key when Time.( > ) (Time.of_ns key) limit -> t.clock <- limit
    | Some _ -> (
        match Pheap.pop t.events with
        | None -> ()
        | Some (key, f) ->
            t.clock <- Time.of_ns key;
            f ();
            loop ())
  in
  loop ();
  check_failure t

let block_on t f =
  let result = ref None in
  spawn t ~name:"block_on" (fun () -> result := Some (f ()));
  run t;
  match !result with
  | Some v -> v
  | None -> raise (Deadlock "block_on: simulation quiesced before completion")
