type t = {
  sem : Semaphore.t;
  mutable held : bool;
  name : string option;
  sched : Sched.t option;
}

let create ?name ?sched () =
  { sem = Semaphore.create ?name ?sched ~kind:"mutex" ~initial:1 (); held = false; name; sched }

let stats t = Semaphore.stats t.sem

(* Identity for the lock-order sanitizer: the scheduler's current-thread
   label when we have a scheduler, else a single shared label. *)
let thread_of t =
  match t.sched with
  | Some s -> Option.value (Sched.current_name s) ~default:"main"
  | None -> "main"

(* The sanitizer is consulted before blocking (lockdep-style): a rank
   inversion raises while the would-be deadlock is still just a report. *)
let lock ?(site = "<unlabeled>") t =
  (match t.name with
  | Some name when Lock_order.enforcing () ->
      Lock_order.note_acquire ~thread:(thread_of t) ~name ~site
  | _ -> ());
  Semaphore.wait t.sem;
  t.held <- true

let unlock t =
  if not t.held then invalid_arg "Mutex.unlock: not locked";
  (match t.name with
  | Some name when Lock_order.enforcing () -> Lock_order.note_release ~thread:(thread_of t) ~name
  | _ -> ());
  t.held <- Semaphore.waiters t.sem > 0;
  Semaphore.signal t.sem

let try_lock ?(site = "<unlabeled>") t =
  if Semaphore.try_wait t.sem then begin
    (match t.name with
    | Some name when Lock_order.enforcing () ->
        Lock_order.note_try_acquire ~thread:(thread_of t) ~name ~site
    | _ -> ());
    t.held <- true;
    true
  end
  else false

let with_lock ?site t f =
  lock ?site t;
  match f () with
  | v ->
      unlock t;
      v
  | exception e ->
      unlock t;
      raise e
