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

type _ Effect.t +=
  | Suspend : (waker -> unit) -> unit Effect.t
  | Sleep : t * Time.span -> unit Effect.t

let next_id = ref 0

let create () =
  incr next_id;
  { id = !next_id;
    clock = Time.zero;
    events = Pheap.create ~dummy:ignore;
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

(* Runs [f x] with the scheduler's current-thread label set to [label],
   restoring the previous label on exit.  Everything is cooperative, so a
   single mutable field suffices; continuations re-enter through here so
   the label is accurate across suspension points (the lock-order
   sanitizer keys its held-lock stacks on it). *)
let run_as t label f x =
  let saved = t.current in
  t.current <- label;
  match f x with
  | () -> t.current <- saved
  | exception e ->
      t.current <- saved;
      raise e

let resume t label k = run_as t label (fun k -> Effect.Deep.continue k ()) k

let spawn t ?(name = "thread") f =
  let label = Some name in
  let handler =
    let open Effect.Deep in
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
                      Queue.push (fun () -> resume t label k) t.runq
                    end
                  in
                  register wake)
          | Sleep (s, d) ->
              (* The run queue is always empty when an event fires, so
                 resuming straight from the timer event runs the thread
                 exactly where a waker's run-queue job would have. *)
              Some (fun (k : (a, unit) continuation) -> after s d (fun () -> resume t label k))
          | _ -> None) }
  in
  Queue.push (fun () -> run_as t label (fun () -> Effect.Deep.match_with f () handler) ()) t.runq

let sleep t d = Effect.perform (Sleep (t, d))

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
    if not (Pheap.is_empty t.events) then begin
      t.clock <- Time.of_ns (Pheap.min_key t.events);
      (Pheap.pop t.events) ();
      loop ()
    end
  in
  loop ();
  check_failure t

let run_until t limit =
  let rec loop () =
    step_ready t;
    check_failure t;
    if not (Pheap.is_empty t.events) then begin
      let key = Pheap.min_key t.events in
      if Time.( > ) (Time.of_ns key) limit then t.clock <- limit
      else begin
        t.clock <- Time.of_ns key;
        (Pheap.pop t.events) ();
        loop ()
      end
    end
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
