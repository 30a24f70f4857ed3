module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Stats = Uln_engine.Stats

type data_kind = Copy | Checksum | Copy_checksum

type t = {
  sched : Sched.t;
  name : string;
  id : int;
  mutable free_at : Time.t;
  busy : Stats.Counter.t;
  (* Per-category data-movement tallies: how much of the busy time went
     to touching payload bytes, split by the kind of pass.  The
     zero-copy acceptance test reads these to prove the hot path charges
     checksum passes only. *)
  mutable copy_ns : int;
  mutable checksum_ns : int;
  mutable copy_checksum_ns : int;
  (* Cross-CPU handoffs: packets steered here while the flow last ran
     elsewhere, and the cache-affinity penalty time charged for them. *)
  mutable migrations : int;
  mutable migrate_ns : int;
}

let create ?(id = 0) sched ~name =
  { sched;
    name;
    id;
    free_at = Time.zero;
    busy = Stats.Counter.create (name ^ ".cpu_busy_ns");
    copy_ns = 0;
    checksum_ns = 0;
    copy_checksum_ns = 0;
    migrations = 0;
    migrate_ns = 0 }

let name t = t.name
let id t = t.id

(* Reserve the next [span] of processor time, FIFO among requesters, and
   return the completion instant. *)
let reserve t span =
  let now = Sched.now t.sched in
  let start = Time.max now t.free_at in
  let finish = Time.add start span in
  t.free_at <- finish;
  Stats.Counter.add t.busy span;
  finish


let use t span =
  if span > 0 then begin
    let finish = reserve t span in
    Sched.sleep t.sched (Time.diff finish (Sched.now t.sched))
  end

let use_async t span k =
  if span <= 0 then Sched.after t.sched 0 k
  else begin
    let finish = reserve t span in
    Sched.at t.sched finish k
  end

let note_data t kind span =
  if span > 0 then
    match kind with
    | Copy -> t.copy_ns <- t.copy_ns + span
    | Checksum -> t.checksum_ns <- t.checksum_ns + span
    | Copy_checksum -> t.copy_checksum_ns <- t.copy_checksum_ns + span

let copy_ns t = t.copy_ns
let checksum_ns t = t.checksum_ns
let copy_checksum_ns t = t.copy_checksum_ns

let note_migration t span =
  t.migrations <- t.migrations + 1;
  if span > 0 then t.migrate_ns <- t.migrate_ns + span

let migrations t = t.migrations
let migrate_ns t = t.migrate_ns

let busy_ns t = Stats.Counter.value t.busy

let utilization t now =
  let elapsed = Time.to_ns now in
  if elapsed <= 0 then 0. else float_of_int (busy_ns t) /. float_of_int elapsed
