type waker = unit -> unit

exception Deadlock of string

type thread = { name : string; mutable held : Lock_order.held list }
type lock = ..

type t = {
  mutable clock : Time.t;
  events : (unit -> unit) Pheap.t;
  mutable seq : int;
  runq : (unit -> unit) Queue.t;
  mutable failure : exn option;
  mutable current : thread;  (* [outside] in plain events and outside any thread *)
  outside : thread;
  locks : (int, lock) Hashtbl.t;  (* by registration number *)
  mutable lock_seq : int;
}

type _ Effect.t +=
  | Suspend : (waker -> unit) -> unit Effect.t
  | Sleep : t * Time.span -> unit Effect.t

let create () =
  let outside = { name = "main"; held = [] } in
  { clock = Time.zero;
    events = Pheap.create ~dummy:ignore;
    seq = 0;
    runq = Queue.create ();
    failure = None;
    current = outside;
    outside;
    locks = Hashtbl.create 16;
    lock_seq = 0 }

let now t = t.clock
let pending_events t = Pheap.size t.events

let at t when_ f =
  let key = Stdlib.max (Time.to_ns when_) (Time.to_ns t.clock) in
  t.seq <- t.seq + 1;
  Pheap.insert t.events ~key ~seq:t.seq f

let after t d f = at t (Time.add t.clock d) f

let suspend register = Effect.perform (Suspend register)

let current_name t = if t.current == t.outside then None else Some t.current.name
let current_thread t = t.current
(* Named locks are indexed by their registration number, so dropping
   one is O(1) and the creation order is the numbers' order. *)
let register_lock t l =
  t.lock_seq <- t.lock_seq + 1;
  Hashtbl.replace t.locks t.lock_seq l;
  t.lock_seq

let unregister_lock t id = Hashtbl.remove t.locks id

let locks t =
  Hashtbl.fold (fun id l acc -> (id, l) :: acc) t.locks []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  |> List.map snd

let reset_locks t = Hashtbl.reset t.locks

(* Runs [f x] with the scheduler's current thread set to [th], restoring
   the previous one on exit.  Everything is cooperative, so a single
   mutable field suffices; continuations re-enter through here so the
   current thread is accurate across suspension points (the lock-order
   sanitizer pushes its held locks on it). *)
let run_as t th f x =
  let saved = t.current in
  t.current <- th;
  match f x with
  | () -> t.current <- saved
  | exception e ->
      t.current <- saved;
      raise e

let resume t th k = run_as t th (fun k -> Effect.Deep.continue k ()) k

let spawn t ?(name = "thread") f =
  let th = { name; held = [] } in
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
                      Queue.push (fun () -> resume t th k) t.runq
                    end
                  in
                  register wake)
          | Sleep (s, d) ->
              (* The run queue is always empty when an event fires, so
                 resuming straight from the timer event runs the thread
                 exactly where a waker's run-queue job would have. *)
              Some (fun (k : (a, unit) continuation) -> after s d (fun () -> resume t th k))
          | _ -> None) }
  in
  Queue.push (fun () -> run_as t th (fun () -> Effect.Deep.match_with f () handler) ()) t.runq

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
