(** The registry server (paper §3.4).

    A trusted, privileged process — one per protocol — that owns the
    namespace of connection end-points.  It allocates and deallocates
    TCP ports, executes the three-way handshake on applications' behalf
    (linking the same protocol library the applications use), sets up
    the secure packet channels in the network I/O module (filters,
    templates, shared regions, BQI exchange), and hands the established
    connection's state and channel capability to the application.  It
    is entirely off the data path afterwards.

    On application exit it inherits open connections: maintaining the
    protocol-specified delay (TIME_WAIT) for orderly shutdowns and
    issuing a reset to the remote peer for abnormal termination. *)

type t

type grant = {
  snapshot : Uln_proto.Tcp.snapshot;  (** established connection state *)
  channel : Netio.channel;  (** activated data channel *)
  remote_mac : Uln_addr.Mac.t;  (** pre-resolved link address *)
}

(** {2 Typed service errors and tenant quotas} *)

type quota_resource = Conns | Mem

type error =
  | Quota_exceeded of {
      principal : string;
      resource : quota_resource;
      used : int;  (** the principal's consumption at denial time *)
      limit : int;
    }
      (** Admission control refused the connection: the requesting
          address space is at its concurrent-connection or pinned
          channel-memory ceiling.  Recoverable — shed connections and
          retry. *)
  | Out_of_ports
      (** every port the request could be given is held; recoverable —
          release ports and retry *)
  | Port_in_use of int  (** an explicit port (TCP, or a datagram protocol's) is held *)
  | Not_listening of int  (** an accept on a port with no listener *)
  | Filter_rejected of string  (** the verifier or the overlap check refused a filter *)
  | Handshake_failed of string  (** TCP refused to open the connection *)
  | Lease_violation of string  (** the kernel refused a stamp under the lease *)

val error_to_string : error -> string
(** The message every string surface prints for the refusal. *)

type quota = {
  q_max_conns : int;  (** concurrent granted connections per principal *)
  q_max_mem_bytes : int;  (** channel memory pinned per principal *)
}

val default_quota : quota
(** {!Calibration.tenant_max_conns} / {!Calibration.tenant_max_mem_bytes}
    — high enough that single-tenant workloads never hit them. *)

val create :
  Uln_host.Machine.t ->
  Netio.t ->
  ip:Uln_addr.Ip.t ->
  ?tcp_params:Uln_proto.Tcp_params.t ->
  ?quota:quota ->
  unit ->
  t
(** Start the registry on a host: creates its server domain, its own
    netio channel (ARP + handshake traffic), its protocol stack and its
    service threads.  When [tcp_params.shard_registry] is set the port,
    pending-connection and TIME_WAIT tables are partitioned into one
    shard per CPU (see {!shard_stats}); otherwise a single flat-table
    shard reproduces the unsharded registry exactly. *)

val domain : t -> Uln_host.Addr_space.t
val ip : t -> Uln_addr.Ip.t

type connect_req = {
  c_app : Uln_host.Addr_space.t;
  c_src_port : int;  (** 0 = allocate an ephemeral port *)
  c_dst : Uln_addr.Ip.t;
  c_dst_port : int;
}

type accept_req = { a_app : Uln_host.Addr_space.t; a_port : int }

(** A connectionless endpoint: UDP, or the request-response transport
    in its server or client role. *)
type dgram = Udp | Rrp of [ `Server | `Client ]

(** An endpoint lease (endpoint_lease switch). *)
type lease_grant = {
  lg_lease : Netio.lease;  (** kernel-side capability for local stamping *)
  lg_base : int;  (** first port of the leased block *)
  lg_count : int;  (** block size ({!Calibration.lease_block_ports}) *)
  lg_channels : Netio.channel list;  (** pre-built channels, recycled per connection *)
}

(** {2 The registry protocol}

    One constructor per service, typed by its request and its reply.
    Each leg's request and reply sizes are declared once, in the
    registry, and charged as Mach-style IPC: the call legs share one
    concurrently served port, [Park_tw] has a one-way port. *)
type (_, _) leg =
  | Connect : (connect_req, (grant, error) result) leg
      (** Active open on the application's behalf: port allocation (port
          0 = ephemeral), the handshake, channel build, and the state
          handoff. *)
  | Listen : (int, (unit, error) result) leg
  | Accept : (accept_req, (grant, error) result) leg
      (** Blocks until the listener has a connection. *)
  | Release : (int * Netio.channel, unit) leg
      (** Final close: the library has finished TIME_WAIT; free the port
          and destroy (or recycle) the channel. *)
  | Inherit : (Uln_proto.Tcp.snapshot * Netio.channel * bool, unit) leg
      (** Application exit with a live connection: [(snapshot, channel,
          graceful)].  Graceful: the registry adopts the connection,
          closes it properly and serves the 2MSL delay.  Abnormal: it
          sends RST. *)
  | Inherit_batch : ((Uln_proto.Tcp.snapshot * Netio.channel) list * bool, unit) leg
      (** All of an exiting application's connections in one IPC.  With
          the TIME_WAIT wheel enabled, an abnormal batch becomes an RST
          sweep ({!Calibration.rst_batch_per_conn} per connection) and
          graceful residues park on the registry's timer wheel. *)
  | Lease : (Uln_host.Addr_space.t, (lease_grant, error) result) leg
      (** One IPC charges {!Calibration.lease_grant} plus the channel
          builds, marks an aligned port block and registers the kernel
          lease.  Connects under the lease never call the registry: the
          library stamps the pre-verified filter/template itself
          ({!Netio.activate_leased}). *)
  | Release_lease : (lease_grant, unit) leg
      (** Revoke the kernel capability, free the block and recycle (or
          destroy) the lease's channels. *)
  | Bind_dgram : (Uln_host.Addr_space.t * dgram * int, (Netio.channel * int, error) result) leg
      (** The binding phase for connectionless protocols (paper §5):
          [(app, kind, port)] — port 0 allocates a client port, round
          robin over 40001-65535, skipping bound ones.  Ports are keyed
          by (IP protocol, port), so UDP and RRP hold the same number
          independently.  Demultiplexing is software-only: with no setup
          handshake there is no chance to exchange BQIs. *)
  | Release_dgram : (dgram * int * Netio.channel, unit) leg
  | Resolve : (Uln_addr.Ip.t, Uln_addr.Mac.t) leg
      (** The registry owns ARP on its host; libraries query and cache. *)
  | Park_tw : ((Uln_addr.Ip.t * int * int) list, unit) leg
      (** [(remote_ip, remote_port, local_port)] residues of leased
          connections, parked on the registry's TIME_WAIT wheel so the
          library's control blocks and channels free at once.  One-way,
          coalesced by the library; a no-op when the wheel is off. *)

val call : t -> ('q, 'r) leg -> 'q -> 'r
(** An RPC to the registry from the calling thread. *)

val post : t -> ('q, unit) leg -> 'q -> unit
(** Send a request and never await its reply ([Park_tw]'s use). *)

(* {2 Introspection for tests and benches} *)

val ports_in_use : t -> int
val handshakes_completed : t -> int
val inherited_connections : t -> int
val stack : t -> Uln_proto.Stack.t

type pool_stats = {
  ps_hits : int;  (** connections served by a recycled channel *)
  ps_misses : int;  (** connections that had to build a fresh channel *)
  ps_parked : int;  (** channels currently parked in the pool *)
}

val pool_stats : t -> pool_stats

type lease_stats = { ls_granted : int; ls_active : int }

val lease_stats : t -> lease_stats

type time_wait_stats = {
  tw_pending : int;  (** residues currently parked on the wheel *)
  tw_parked_total : int;  (** residues parked since creation *)
  tw_evicted : int;  (** residues that forfeited quiet time to the capacity cap *)
  tw_capacity : int;  (** {!Calibration.time_wait_capacity} *)
}

val time_wait_stats : t -> time_wait_stats

type setup_legs = {
  sl_samples : int;
  sl_port_alloc_us : float;  (** dispatch + port allocation *)
  sl_round_trip_us : float;  (** SYN round trip *)
  sl_finish_us : float;  (** channel build, activate, state export *)
  sl_total_us : float;
}

val setup_legs : t -> setup_legs
(** Mean wall-clock breakdown of active connects served, registry-side
    (the [netlab stats] [registry.legs.*] rows). *)

type tenant_stats = {
  ts_principal : string;
  ts_active : int;  (** connections currently granted *)
  ts_mem_bytes : int;  (** channel memory currently pinned *)
  ts_peak : int;  (** high-water mark of [ts_active] *)
  ts_denied : int;  (** admissions refused with {!Quota_exceeded} *)
}

val tenant_stats : t -> tenant_stats list
(** Per-principal quota accounting, sorted by principal (the
    [netlab stats] [registry.tenant.*] rows). *)

val quota_limits : t -> quota

type shard_stats = {
  ss_shard : int;
  ss_cpu : int;  (** CPU index the shard's table work is charged to *)
  ss_ports : int;
  ss_pending : int;
  ss_tw_pending : int;
  ss_lock_acquisitions : int;
  ss_lock_contended : int;  (** acquisitions that had to wait *)
}

val shard_stats : t -> shard_stats list
(** One entry per shard (a single entry when sharding is off). *)

val sharded : t -> bool
val num_shards : t -> int
