(** The network I/O module (paper §3.3).

    Co-located with the in-kernel device driver; one instance per
    host-network interface.  It provides the two kernel mechanisms the
    paper argues are sufficient for user-level protocols:

    - {b secure input demultiplexing}: a filter table (software, for
      LANCE/Ethernet) and/or the AN1 hardware BQI path, delivering each
      packet into the shared-memory ring of exactly the authorized
      channel, with batched semaphore notification;
    - {b protected transmission}: sends are gated by an unforgeable
      capability whose header template the packet must match, which
      prevents impersonation of other connections.

    Channels are created and activated only by privileged domains (the
    registry server); data transfer afterwards involves no server. *)

type t

type channel

exception Send_rejected of string
(** A transmitted packet did not match the sender's header template. *)

val create :
  Uln_host.Machine.t ->
  Uln_net.Nic.t ->
  mode:Uln_filter.Demux.mode ->
  ?flow_cache:bool ->
  ?hier:bool ->
  ?napi:bool ->
  unit ->
  t
(** [flow_cache] (default [false]) enables the exact-match flow cache in
    front of the software filter table; [hier] (default [false]) routes
    cache misses through the hierarchical index instead of the linear
    scan (see {!Uln_filter.Demux}).  [napi] (default [false]) installs
    NAPI-style interrupt suppression on the NIC
    ({!Uln_net.Nic.t.set_napi}, budget and ring from {!Calibration}) —
    the {!Uln_proto.Tcp_params.int_suppress} ablation. *)

val nic : t -> Uln_net.Nic.t
val machine : t -> Uln_host.Machine.t

(* {2 Privileged operations (registry server only)} *)

val create_channel :
  t ->
  caller:Uln_host.Addr_space.t ->
  owner:Uln_host.Addr_space.t ->
  use_bqi:bool ->
  channel
(** Allocate a channel: pinned shared region (mapped into [owner] and
    the kernel), receive ring, notification semaphore, and — when
    [use_bqi] on capable hardware — a controller BQI ring stocked with
    the region's buffers.
    @raise Capability.Violation unless [caller] is privileged. *)

val channel_id : channel -> int
(** Stable per-netio channel identifier (allocation order); the
    registry keys per-grant accounting on it. *)

val channel_bqi : channel -> int
(** The local receive BQI (0 when none): the value the peer must stamp
    on this connection's packets, carried to it in the handshake. *)

val set_channel_affinity : t -> channel -> int -> unit
(** Re-pin a channel: subsequent deliveries charge (and wake) on the
    new CPU, and every demux entry of the channel is re-tagged — which
    flushes the flow cache, so no dispatch can steer to the old CPU.
    The first delivery after a change pays [Costs.cpu_migrate_ns] on
    the new CPU.  A no-op when the index is unchanged, and on a 1-CPU
    machine every index maps to the boot CPU. *)

val migrations : t -> int
(** Cross-CPU deliveries: packets whose channel's home CPU differed
    from the CPU the flow last ran on. *)

val activate :
  t ->
  caller:Uln_host.Addr_space.t ->
  channel ->
  filter:Uln_filter.Program.t ->
  template:Uln_filter.Template.t ->
  unit
(** Install the input filter and the outbound template, enabling the
    channel.  The template's [bqi] is stamped on outgoing packets.
    The pair is cross-checked ({!Uln_filter.Verify.check_template}):
    a receive filter that pins the local address admits only templates
    that pin the same address as packet source, so the send capability
    cannot impersonate another endpoint.
    @raise Capability.Violation unless [caller] is privileged, or if
    the template fails the cross-check.
    @raise Uln_filter.Verify.Rejected if the filter fails admission. *)

val add_filter :
  t -> caller:Uln_host.Addr_space.t -> channel -> Uln_filter.Program.t ->
  Uln_filter.Demux.key
(** Additional input filters (the registry points handshake traffic at
    its own channel this way).  The program passes verifier admission
    ({!Uln_filter.Verify}): it is optimized, certified against
    {!Calibration.filter_cycle_budget}, and refused if vacuous or
    over-budget.
    @raise Uln_filter.Verify.Rejected on an admission failure. *)

val add_stamped_filter :
  t ->
  caller:Uln_host.Addr_space.t ->
  channel ->
  template:Uln_filter.Demux.key ->
  constraints:(int * int) list ->
  min_len:int ->
  Uln_filter.Demux.key
(** Prestamped filter install for the sparse-scale benches: derive a
    connection filter from an already-admitted conjunctive-exact
    [template] entry by overriding its byte constraints
    ({!Uln_filter.Demux.install_stamped}).  Skips the per-install
    overlap check: a stamped entry carries its template's program, which
    the template's install already checked, and distinct 4-tuples cannot
    overlap.  The entry joins the template's overlap group
    ({!Uln_filter.Demux.live_groups}), so the checks later installs run
    do not grow with the stamped population.
    @raise Capability.Violation unless [caller] is privileged.
    @raise Invalid_argument if [template] is unknown or inexact. *)

val filter_conflict : t -> channel -> Uln_filter.Program.t -> string option
(** Description of a strict partial overlap between [program]'s accept
    set and a filter installed for a {e different} channel (a concrete
    witness packet both accept, with neither filter subsuming the
    other) — the ambiguity/eavesdropping hazard the registry surfaces
    as a capability-install conflict.  [None] when provably clean. *)

val remove_filter : t -> caller:Uln_host.Addr_space.t -> Uln_filter.Demux.key -> unit

val reassign_owner :
  t -> caller:Uln_host.Addr_space.t -> channel -> owner:Uln_host.Addr_space.t -> unit
(** Move a channel to a new owning domain (remaps the shared region):
    used when the registry pre-creates a channel at SYN time, before it
    knows which application will accept the connection. *)

val transfer_channel :
  t -> channel -> from_domain:Uln_host.Addr_space.t -> to_domain:Uln_host.Addr_space.t -> unit
(** Hand a channel from its current owner to another application — the
    Mach-port semantics that let connections be passed inetd-style
    "without involving the registry server" (paper §3.2).  Unlike
    {!reassign_owner} this needs no privilege, only ownership.
    @raise Capability.Violation if [from_domain] does not own the
    channel. *)

val inject : t -> caller:Uln_host.Addr_space.t -> channel -> Uln_net.Frame.t -> unit
(** Privileged re-delivery into a channel's ring: the registry uses this
    to forward segments that raced a connection handoff (they matched
    its own filters before the application's filter existed). *)

val destroy_channel : t -> caller:Uln_host.Addr_space.t -> channel -> unit
(** Revoke the capability, remove filters, release the BQI ring and the
    shared region. *)

val park_channel : t -> caller:Uln_host.Addr_space.t -> channel -> unit
(** Strip the channel's filters and template and mark it inactive while
    keeping the shared region, its mappings, the semaphore, the
    capability gate and any BQI ring — the channel-pool recycling path
    ({!Uln_proto.Tcp_params.t.channel_pool}).  Frames of the previous
    connection still queued in the ring are dropped.  A later
    {!activate} (after {!reassign_owner} if needed) re-arms it.
    @raise Capability.Violation unless [caller] is privileged. *)

val channel_destroyed : channel -> bool

(* {2 Endpoint leases} *)

type lease
(** A block of local TCP ports whose filter/template {e shape} was
    verified once at grant time; the owning application can then arm
    channels for individual connections without a privileged caller
    ({!Uln_proto.Tcp_params.t.endpoint_lease}). *)

val grant_lease :
  t ->
  caller:Uln_host.Addr_space.t ->
  owner:Uln_host.Addr_space.t ->
  ip:Uln_addr.Ip.t ->
  base_port:int ->
  count:int ->
  lease
(** Register a lease (registry only): [owner] may arm channels for
    connections whose local port lies in [base_port, base_port+count)
    and whose source address is [ip].
    @raise Capability.Violation unless [caller] is privileged. *)

val revoke_lease : t -> caller:Uln_host.Addr_space.t -> lease -> unit
(** Invalidate a lease; subsequent {!activate_leased} calls under it
    are refused.  Channels already armed stay armed.
    @raise Capability.Violation unless [caller] is privileged. *)

val activate_leased :
  t ->
  channel ->
  from_domain:Uln_host.Addr_space.t ->
  lease:lease ->
  remote_ip:Uln_addr.Ip.t ->
  remote_port:int ->
  local_port:int ->
  unit
(** Arm [channel] for one connection under [lease] — the unprivileged
    kernel entry that replaces the per-connection registry IPC.  The
    kernel itself instantiates the pre-verified filter and template
    from the validated 4-tuple (the caller never supplies a program, so
    the anti-impersonation property is preserved), charging one
    fast trap plus {!Calibration.lease_stamp}.  On AN1 the channel
    advertises its receive BQI on outbound handshake frames and learns
    the peer's stamp from the first marked inbound frame.
    @raise Capability.Violation if the caller does not own both the
    channel and the lease, the lease is revoked, or [local_port] falls
    outside the leased block. *)

val release_leased : t -> channel -> from_domain:Uln_host.Addr_space.t -> unit
(** Disarm a leased channel once its connection has fully closed,
    readying it for the next {!activate_leased}: filters out, template
    cleared, region/rings kept, queued frames dropped.  Owner-callable.
    @raise Capability.Violation if the caller does not hold the
    channel's lease. *)

(* {2 Data path (application library, via capability)} *)

val conforms : Uln_filter.Template.t -> Uln_net.Frame.t -> bool
(** The send-side impersonation check: does the frame's header match the
    template?  Reads only the first {!Uln_filter.Template.span} wire
    bytes. *)

val send : t -> channel -> from_domain:Uln_host.Addr_space.t -> Uln_net.Frame.t -> unit
(** Transmit through the channel: specialized kernel entry, template
    check, BQI stamping, device handoff.  Called from a thread.
    @raise Send_rejected if the header does not match the template.
    @raise Capability.Violation if the channel is destroyed, inactive,
    or [from_domain] neither owns the channel nor is privileged. *)

val send_batched :
  t -> channel -> from_domain:Uln_host.Addr_space.t -> Uln_net.Frame.t -> unit
(** Batched transmit: write a descriptor into the channel's shared tx
    ring and ring the doorbell — no kernel boundary in the caller.  A
    kernel drain (one {!Uln_host.Costs.t.fast_trap} per batch) picks up
    every descriptor present, template-checks, stamps and transmits each
    (doorbell coalescing: N queued segments cost one trap).  Template
    mismatches discovered in the drain are counted in
    {!sends_rejected}, not raised.  When the descriptor ring is full the
    call degrades to the synchronous {!send}.
    @raise Capability.Violation if the channel is destroyed, inactive,
    template-less, or [from_domain] neither owns it nor is privileged. *)

val rx_sem : channel -> Uln_engine.Semaphore.t
(** Signalled (with batching) when the receive ring goes non-empty. *)

val rx_pop : channel -> from_domain:Uln_host.Addr_space.t -> Uln_net.Frame.t option
(** Drain one packet from the shared ring (no kernel crossing).
    @raise Capability.Violation if [from_domain] has no mapping. *)

val rx_pending : channel -> from_domain:Uln_host.Addr_space.t -> bool
(** Whether the shared receive ring holds at least one frame.  Like
    {!rx_pop} this reads mapped memory directly, so a polling receive
    thread can check for work without any kernel crossing.
    @raise Capability.Violation if [from_domain] has no mapping. *)

val recycle : t -> channel -> unit
(** Return a receive buffer to the channel's BQI ring (no-op for
    software-demux channels). *)

(* {2 Statistics} *)

val sends_rejected : t -> int
(** Template-check failures (impersonation attempts). *)

val unmatched_drops : t -> int
(** Input packets matching no channel. *)

val ring_overflows : t -> int
(** Packets lost to full channel rings (slow consumer). *)

val note_rx_burst : t -> int -> unit
(** Record that one library receive wakeup drained that many frames
    from channel rings (called by the protocol library; zero is
    ignored). *)

val rx_wakeups : t -> int
(** Receive wakeups that found at least one frame. *)

val rx_frames : t -> int
(** Frames drained across all recorded receive bursts. *)

val rx_burst_histogram : t -> (int * int) list
(** [(burst size, occurrences)] pairs, ascending — how many frames each
    receive wakeup handled. *)

val napi_stats : t -> Uln_net.Napi.stats
(** The NIC's interrupt-suppression counters (all zero when NAPI was
    never installed). *)

val txq_stats : t -> Uln_net.Txq.stats
(** The NIC's transmit-path counters: GSO episodes and frames cut,
    completion events and descriptors reaped per batch (all zero when
    neither tx ablation is on). *)

val demux_cost_dist : t -> Uln_engine.Stats.Dist.t
(** Per-packet demultiplexing cost (us) actually charged — the Table 5
    measurement point. *)

val hw_demuxed : t -> int
(** Packets delivered by the AN1 BQI hardware path. *)

val sw_demuxed : t -> int
(** Packets dispatched by the software filter table. *)

val tx_doorbells : channel -> int
(** Descriptors submitted through the batched tx ring. *)

val tx_batches : channel -> int
(** Kernel drains of the tx ring (each cost one fast_trap). *)

val tx_sync_fallbacks : channel -> int
(** Batched sends that found the descriptor ring full and degraded to
    the synchronous path. *)

val tx_batch_histogram : channel -> (int * int) list
(** [(batch_size, occurrences)] pairs, ascending — how well doorbell
    coalescing amortized the kernel boundary. *)
