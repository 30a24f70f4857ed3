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
  | Refused of string  (** any other refusal, descriptive *)

val error_to_string : error -> string

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

(* The four service entry points, exposed as Mach-style RPC ports so
   callers pay real IPC costs. *)

type connect_req = {
  c_app : Uln_host.Addr_space.t;
  c_src_port : int;  (** 0 = allocate an ephemeral port *)
  c_dst : Uln_addr.Ip.t;
  c_dst_port : int;
}

type accept_req = { a_app : Uln_host.Addr_space.t; a_port : int }

val connect_port : t -> (connect_req, (grant, error) result) Uln_host.Ipc.t
val listen_port : t -> (int, (unit, string) result) Uln_host.Ipc.t
val accept_port : t -> (accept_req, (grant, error) result) Uln_host.Ipc.t

val release_port : t -> (int * Netio.channel, unit) Uln_host.Ipc.t
(** Final close: the library has finished TIME_WAIT; free the port and
    destroy the channel. *)

(** A connectionless endpoint: UDP, or the request-response transport
    in its server or client role. *)
type dgram = Udp | Rrp of [ `Server | `Client ]

val bind_dgram_port :
  t ->
  (Uln_host.Addr_space.t * dgram * int, (Netio.channel * int, error) result) Uln_host.Ipc.t
(** The binding phase for connectionless protocols (paper §5):
    [(app, kind, port)] — port 0 allocates a client port, round robin
    over 40001-65535, skipping bound ones ({!Out_of_ports} when all
    are).  Builds a channel whose filter matches datagrams to the port and whose template pins the
    sender's own address/port, and returns it with the port.  Ports are
    keyed by (IP protocol, port), so UDP (17) and RRP (81) hold the same
    number independently.  Demultiplexing is software-only — with no
    setup handshake there is no opportunity to exchange BQIs, exactly
    the difficulty the paper notes. *)

val release_dgram_port : t -> (dgram * int * Netio.channel, unit) Uln_host.Ipc.t
(** Free a datagram binding's port and destroy its channel. *)

val resolve_mac_port : t -> (Uln_addr.Ip.t, Uln_addr.Mac.t) Uln_host.Ipc.t
(** Link-address resolution service: the registry owns ARP on its host;
    libraries query it and cache the result. *)

val inherit_conn :
  t -> (Uln_proto.Tcp.snapshot * Netio.channel * bool, unit) Uln_host.Ipc.t
(** Application exit with a live connection: [(snapshot, channel,
    graceful)].  Graceful: the registry adopts the connection, closes it
    properly and serves the 2MSL delay.  Abnormal: it sends RST. *)

val inherit_batch :
  t ->
  ((Uln_proto.Tcp.snapshot * Netio.channel) list * bool, unit) Uln_host.Ipc.t
(** All of an exiting application's connections in one IPC.  With the
    TIME_WAIT wheel enabled, an abnormal batch becomes an RST sweep:
    each connection pays {!Calibration.rst_batch_per_conn} (deriving and
    sending exactly one RST) instead of a full inherit dispatch, and
    graceful residues park on the registry's timer wheel rather than
    living as engine control blocks. *)

(* {2 Endpoint leases (endpoint_lease switch)} *)

type lease_grant = {
  lg_lease : Netio.lease;  (** kernel-side capability for local stamping *)
  lg_base : int;  (** first port of the leased block *)
  lg_count : int;  (** block size ({!Calibration.lease_block_ports}) *)
  lg_channels : Netio.channel list;  (** pre-built channels, recycled per connection *)
}

val lease_port : t -> (Uln_host.Addr_space.t, (lease_grant, error) result) Uln_host.Ipc.t
(** Grant an endpoint lease: one IPC charges
    {!Calibration.lease_grant} plus the channel builds, marks the block
    in the port namespace, and registers the kernel lease.  Subsequent
    connects under the lease never call the registry: the library stamps
    the pre-verified filter/template in the kernel
    ({!Netio.activate_leased}) and runs the handshake itself.
    {!Out_of_ports} when no aligned block is free. *)

val release_lease_port : t -> (lease_grant, unit) Uln_host.Ipc.t
(** Return a lease: revokes the kernel capability, frees the port block
    and recycles (or destroys) the lease's channels. *)

val park_time_wait_port : t -> ((Uln_addr.Ip.t * int * int) list, unit) Uln_host.Ipc.t
(** A batch of [(remote_ip, remote_port, local_port)] residues: a
    library offloads leased connections' TIME_WAIT onto the registry's
    wheel so the local control blocks and channels free immediately —
    the churn analogue of connection inheritance.  One-way: libraries
    [post] a coalesced batch and never await.  No-op when the wheel
    switch is off. *)

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
