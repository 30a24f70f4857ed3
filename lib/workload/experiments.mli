(** Reproduction of the paper's evaluation (§4): one runner per table,
    each returning the measured rows with the paper's value alongside
    ({!Bench_spec} prints and writes them).  [quick] trades sample size for speed (used by tests;
    benches run full size). *)

type t2_row = {
  t2_network : string;  (** "ethernet" | "an1" *)
  t2_system : string;  (** "ultrix" | "mach-ux" | "userlib" | extensions *)
  t2_size : int;
  t2_mbps : float;
  t2_paper : float option;
}

type t3_row = {
  t3_network : string;
  t3_system : string;
  t3_size : int;
  t3_rtt_ms : float;
  t3_rtt : Percentile.summary;  (* p50/p99/p999 of the same exchanges, us *)
  t3_paper : float option;
}

type t4_row = {
  t4_network : string;
  t4_system : string;
  t4_setup_ms : float;
  t4_paper : float option;
}

type t5_row = { t5_interface : string; t5_us : float; t5_paper : float option }

val sys_name : Uln_core.Organization.t -> string
(** The paper's name for an organization's host system ("ultrix",
    "mach-ux", "userlib", ...) — the [system] column of every table. *)

type scale_row = {
  sc_conns : int;  (** installed connection filters *)
  sc_scan_cycles : float;  (** mean dispatch cycles, linear scan *)
  sc_hit_cycles : float;  (** mean dispatch cycles, warm flow cache *)
  sc_hits : int;
  sc_misses : int;
}

type zc_row = {
  zc_network : string;
  zc_size : int;  (** bytes per user write *)
  zc_mbps_copy : float;  (** copying oracle *)
  zc_mbps_zero_copy : float;  (** loaning data path *)
  zc_gain_pct : float;
}

val table1 : ?quick:bool -> unit -> Raw_xchg.row list
(** Mechanism overhead vs raw link saturation (Ethernet). *)

val series :
  unit ->
  (Uln_core.World.network * string * Uln_core.Organization.t * Uln_proto.Tcp_params.t) list
(** The rows of Tables 2 and 3, one [(network, system, org, preset)] per
    measured series in table order: the paper's organizations, then the
    zero-copy [userlib-zc] ablation. *)

val t2_sizes : int list
val t3_sizes : int list

val t2_cell :
  ?total_bytes:int ->
  tcp_params:Uln_proto.Tcp_params.t ->
  Uln_core.World.network * string * Uln_core.Organization.t ->
  int ->
  t2_row
(** One Table 2 cell (default 4 MB) at one write size. *)

val t3_cell :
  ?exchanges:int ->
  tcp_params:Uln_proto.Tcp_params.t ->
  Uln_core.World.network * string * Uln_core.Organization.t ->
  int ->
  t3_row
(** One Table 3 cell (default 50 exchanges) at one message size. *)

val table2 : ?quick:bool -> unit -> t2_row list
(** TCP throughput across organizations and networks. *)

val table3 : ?quick:bool -> unit -> t3_row list
(** Round-trip latency. *)

val table4 : ?quick:bool -> unit -> t4_row list
(** Connection setup cost. *)

val setup_breakdown : unit -> (string * float * float option) list
(** [(component, modelled_ms, paper_ms)] for the user-library setup. *)

val table5 : unit -> t5_row list
(** Demultiplexing cost per packet: LANCE software filter vs AN1
    hardware BQI, plus the compiled-filter and flow-cache ablation
    rows. *)

val scale : ?conns:int list -> unit -> scale_row list
(** Demux cost vs number of installed connection filters, linear scan
    against warm flow cache, the endpoints cross-checked packet by
    packet.  Default [conns] is [1; 4; 16; 64; 256; 1024]. *)

type sparse_row = {
  sp_conns : int;  (** installed background connection filters *)
  sp_miss_p : Percentile.summary;
      (** hierarchical miss-path dispatch cost, cycles (standalone probe
          table, sampled flows) *)
  sp_linear_cycles : float;
      (** mean linear-scan miss cost at the same population, cycles —
          each sample is an O(n) walk, so sampled sparsely *)
  sp_setup_p : Percentile.summary;  (** live connect latency, us *)
  sp_delivery_p : Percentile.summary;
      (** live one-way message delivery latency into the populated
          host, us *)
  sp_shards : int;  (** registry shards serving the live run *)
  sp_lock_contended : int;  (** shard-lock acquisitions that waited *)
}

val populate_background : Uln_core.World.t -> host:int -> int -> unit
(** Install [n] stamped background connection filters (synthetic
    10.77/16 flows, never matched by live traffic) on a host's network
    I/O module — the "million idle connections" load the sparse sweep
    and the populated churn benches run against. *)

val sparse_live :
  ?conns:int ->
  ?msgs_per_conn:int ->
  ?tcp_params:Uln_proto.Tcp_params.t ->
  int ->
  Percentile.summary * Percentile.summary * int * int
(** Live connect and one-way delivery latency percentiles (us) against a
    server host pre-populated with [n] background connection filters,
    plus the registry shard count and contended shard-lock acquisitions.
    [tcp_params] defaults to [fast] with [hier_demux] and
    [shard_registry] on. *)

val scale_sparse : ?pops:int list -> unit -> sparse_row list
(** The million-connection control plane, swept sparsely: per
    population, miss-path probe percentiles on a stamped standalone
    table ({!sp_miss_p} vs {!sp_linear_cycles}), then live
    setup/delivery percentiles against a server host pre-populated with
    that many connection filters, with [hier_demux] and
    [shard_registry] on.  Default [pops] is [65536; 262144; 1048576]. *)

val zero_copy_ablation : ?quick:bool -> ?sizes:int list -> unit -> zc_row list
(** User-library bulk throughput with the zero-copy data path
    ({!Uln_proto.Tcp_params.t.zero_copy}) on vs off, per write size and
    network — identical worlds otherwise, so the difference is exactly
    the loaning/scatter-gather/doorbell machinery. *)

val rrp_calls :
  ?warmup:int ->
  calls:int ->
  size:int ->
  reply:(Uln_buf.View.t -> Uln_buf.View.t) ->
  network:Uln_core.World.network ->
  org:Uln_core.Organization.t ->
  unit ->
  Uln_engine.Time.span
(** Back-to-back RRP transactions of [size]-byte requests from host 0
    to a [reply] server on host 1 of a fresh world: [warmup] (default 0)
    untimed calls, then the simulated span of [calls] timed ones. *)

val print_breakdown : Format.formatter -> (string * float * float option) list -> unit
val print_figures : Format.formatter -> unit -> unit
(** Figures 1 and 2: organization structure, derived from the
    implementations. *)
