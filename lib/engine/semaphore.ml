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
  seq : int;  (* creation order, across schedulers *)
  mutable acquisitions : int;
  mutable contended : int;
  mutable total_wait_ns : int;
  mutable max_wait_ns : int;
  wait_us : Stats.Dist.t;
}

(* Named semaphores register themselves so tools can report the most
   contended locks of a run without threading every lock handle through
   the call graph.  Each scheduler's locks hang off an ephemeron keyed
   by that scheduler, so coexisting worlds don't see each other's locks
   and a dropped world is not kept reachable by its registrations.  The
   weak set [scheds] enumerates the ephemeron's keys for the unfiltered
   query (OCaml 5 ephemeron tables cannot be iterated). *)
module Sched_key = struct
  type t = Sched.t

  let equal = ( == )
  let hash = Sched.id
end

module By_sched = Ephemeron.K1.Make (Sched_key)
module Scheds = Weak.Make (Sched_key)

let by_sched : t list ref By_sched.t = By_sched.create 8
let scheds = Scheds.create 8
let unscheduled : t list ref = ref []  (* named, no scheduler *)
let next_seq = ref 0

let register t =
  match t.sched with
  | None -> unscheduled := t :: !unscheduled
  | Some s -> (
      match By_sched.find_opt by_sched s with
      | Some l -> l := t :: !l
      | None ->
          By_sched.replace by_sched s (ref [ t ]);
          ignore (Scheds.merge scheds s))

let create ?name ?sched ?(kind = "semaphore") ?(initial = 0) () =
  incr next_seq;
  let t =
    { count = initial;
      waiting = Queue.create ();
      name;
      kind;
      sched;
      seq = !next_seq;
      acquisitions = 0;
      contended = 0;
      total_wait_ns = 0;
      max_wait_ns = 0;
      wait_us = Stats.Dist.create (Option.value name ~default:"" ^ ".wait_us") }
  in
  if name <> None then register t;
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

let of_sched s = match By_sched.find_opt by_sched s with Some l -> !l | None -> []

let registered ?sched () =
  match sched with
  | Some s -> List.rev_map stats (of_sched s)
  | None ->
      Scheds.fold (fun s acc -> of_sched s @ acc) scheds !unscheduled
      |> List.sort (fun a b -> compare a.seq b.seq)
      |> List.map stats

let reset_registered ?sched () =
  match sched with
  | Some s -> By_sched.remove by_sched s
  | None ->
      By_sched.reset by_sched;
      Scheds.clear scheds;
      unscheduled := []
