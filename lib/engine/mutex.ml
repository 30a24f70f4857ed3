(* A ranked lock's name and rank, looked up once at creation, and the
   scheduler whose threads carry it on their held-lock stacks. *)
type ranked = { r_sched : Sched.t; r_name : string; r_rank : int }

type t = { sem : Semaphore.t; mutable held : bool; ranked : ranked option }

let create ?name ?sched () =
  let ranked =
    match (name, sched) with
    | Some r_name, Some r_sched ->
        Option.map (fun r_rank -> { r_sched; r_name; r_rank }) (Lock_order.rank_of r_name)
    | _ -> None
  in
  { sem = Semaphore.create ?name ?sched ~kind:"mutex" ~initial:1 (); held = false; ranked }

let stats t = Semaphore.stats t.sem

(* Push the lock on the calling thread's held stack.  The sanitizer is
   consulted before blocking (lockdep-style): a rank inversion raises
   while the would-be deadlock is still just a report.  A try-acquire
   cannot block and so cannot complete a deadlock cycle: no order check,
   but the lock still constrains later acquires. *)
let note t ~check ~site =
  match t.ranked with
  | None -> ()
  | Some r ->
      let th = Sched.current_thread r.r_sched in
      let h = { Lock_order.h_name = r.r_name; h_rank = r.r_rank; h_site = site } in
      th.held <- (if check then Lock_order.acquire ~thread:th.name th.held h else h :: th.held)

let lock ?(site = "<unlabeled>") t =
  note t ~check:true ~site;
  Semaphore.wait t.sem;
  t.held <- true

let unlock t =
  if not t.held then invalid_arg "Mutex.unlock: not locked";
  (match t.ranked with
  | Some r ->
      let th = Sched.current_thread r.r_sched in
      th.held <- Lock_order.release th.held r.r_name
  | None -> ());
  t.held <- Semaphore.waiters t.sem > 0;
  Semaphore.signal t.sem

let try_lock ?(site = "<unlabeled>") t =
  if Semaphore.try_wait t.sem then begin
    note t ~check:false ~site;
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
