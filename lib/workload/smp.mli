(** SMP scaling workload: concurrent bulk-transfer pairs over a
    multiprocessor host model.

    [pairs] sender/sink application pairs run between two hosts on the
    100 Mb/s AN1 segment, pair [p] pinned to CPU [p mod cpus] on both
    sides.  All connections are established before any data moves (a
    start barrier), then every sender pushes [bytes_per_pair] through a
    65535-byte window; the measured interval runs from the barrier to
    the last payload byte any sink receives.

    The point of the sweep: the user-library organization scales with
    CPUs (per-application protocol processing), the in-kernel
    organization scales subject to its locking discipline, and the
    single-server organization stays flat — its one server process
    serializes every application's protocol work on the boot CPU no
    matter how many processors the machine has. *)

type result = {
  r_org : string;
  r_locking : string;
      (** ["big_lock"] or ["per_conn"] for the in-kernel organization,
          ["none"] for the lock-free ones *)
  r_cpus : int;
  r_pairs : int;
  r_mbps : float;  (** aggregate goodput over the measured interval *)
  r_bytes : int;
  r_duration : Uln_engine.Time.span;
  r_cpu0_util : float;  (** boot-CPU utilization of the sending host *)
  r_avg_util : float;  (** mean utilization across all CPUs, both hosts *)
  r_max_util : float;
  r_migrations : int;  (** cross-CPU packet handoffs, both hosts *)
  r_lock_acquisitions : int;  (** mutex acquisitions (kernel locks) *)
  r_lock_contended : int;  (** acquisitions that had to block *)
  r_lock_wait_ns : int;  (** total time blocked on kernel locks *)
}

val params : [ `Big_lock | `Per_conn ] -> Uln_proto.Tcp_params.t
(** The parameters [run] builds its world with: the defaults with
    65535-byte socket buffers and the given locking. *)

val run :
  ?bytes_per_pair:int ->
  ?locking:[ `Big_lock | `Per_conn ] ->
  ?seed:int ->
  org:Uln_core.Organization.t ->
  cpus:int ->
  pairs:int ->
  unit ->
  result
(** Defaults: 1 MB per pair, [`Big_lock], seed 1.  [locking] only
    matters to the in-kernel organization on multiprocessor machines. *)
