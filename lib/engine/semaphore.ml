type stats = {
  s_name : string;
  s_kind : string;
  s_acquisitions : int;
  s_contended : int;
  s_total_wait_ns : int;
  s_max_wait_ns : int;
  s_wait_us : Stats.Dist.t;
}

type t = {
  mutable count : int;
  waiting : Sched.waker Queue.t;
  name : string option;
  kind : string;
  sched : Sched.t option;
  mutable acquisitions : int;
  mutable contended : int;
  mutable total_wait_ns : int;
  mutable max_wait_ns : int;
  wait_us : Stats.Dist.t;
  mutable reg : int;  (* registration number with [sched], or 0 *)
}

(* Named semaphores register with their scheduler so tools can report
   the most contended locks of a run without threading every lock
   handle through the call graph; a dropped world takes its locks with
   it. *)
type Sched.lock += Lock of t

let create ?name ?sched ?(kind = "semaphore") ?(initial = 0) () =
  let t =
    { count = initial;
      waiting = Queue.create ();
      name;
      kind;
      sched;
      acquisitions = 0;
      contended = 0;
      total_wait_ns = 0;
      max_wait_ns = 0;
      wait_us = Stats.Dist.create (Option.value name ~default:"" ^ ".wait_us");
      reg = 0 }
  in
  (match (name, sched) with Some _, Some s -> t.reg <- Sched.register_lock s (Lock t) | _ -> ());
  t

let count t = t.count
let waiters t = Queue.length t.waiting

let signal t =
  if Queue.is_empty t.waiting then t.count <- t.count + 1
  else
    let wake = Queue.pop t.waiting in
    wake ()

let wait t =
  t.acquisitions <- t.acquisitions + 1;
  if t.count > 0 then t.count <- t.count - 1
  else begin
    t.contended <- t.contended + 1;
    match t.sched with
    | None -> Sched.suspend (fun wake -> Queue.push wake t.waiting)
    | Some s ->
        let t0 = Sched.now s in
        Sched.suspend (fun wake -> Queue.push wake t.waiting);
        let dt = Time.diff (Sched.now s) t0 in
        t.total_wait_ns <- t.total_wait_ns + dt;
        if dt > t.max_wait_ns then t.max_wait_ns <- dt;
        Stats.Dist.record t.wait_us (float_of_int dt /. 1_000.)
  end

let try_wait t =
  if t.count > 0 then begin
    t.count <- t.count - 1;
    t.acquisitions <- t.acquisitions + 1;
    true
  end
  else false

let stats t =
  { s_name = Option.value t.name ~default:"<anon>";
    s_kind = t.kind;
    s_acquisitions = t.acquisitions;
    s_contended = t.contended;
    s_total_wait_ns = t.total_wait_ns;
    s_max_wait_ns = t.max_wait_ns;
    s_wait_us = t.wait_us }

let registered ~sched =
  List.filter_map (function Lock t -> Some (stats t) | _ -> None) (Sched.locks sched)

let unregister t =
  match t.sched with
  | Some s when t.reg > 0 ->
      Sched.unregister_lock s t.reg;
      t.reg <- 0
  | _ -> ()

let reset_registered ~sched () = Sched.reset_locks sched
