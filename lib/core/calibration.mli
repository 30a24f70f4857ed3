(** Organization-level calibration constants.

    The data paths of all organizations are emergent — throughput and
    latency fall out of the machine cost model ({!Uln_host.Costs}), CPU
    contention and link serialization.  A few structural costs are
    charged explicitly where the paper measures a composite action whose
    internals we do not model instruction-by-instruction; each constant
    is documented against the paper's own accounting (the §4 connection
    setup breakdown, and known Mach/Ultrix behaviour). *)

(* {2 Shared BSD-stack costs} *)

val bsd_socket_create : Uln_engine.Time.span
(** socket()+bind() work at active open in the BSD-derived stacks
    (PCB allocation, route lookup, option setup). *)

(* {2 In-kernel (Ultrix) specifics} *)

val small_write_buffering : Uln_engine.Time.span
(** Extra socket-layer cost per write smaller than
    {!copy_eliminate_threshold}: BSD chains small mbufs instead of
    using the page-remap path. *)

val copy_eliminate_threshold : int
(** Writes at least this large use the copy-eliminating buffer
    organization in Ultrix (1024, per §4 "invoked only when the user
    packet size is 1024 bytes or larger"). *)

(* {2 Mach/UX single-server specifics} *)

val ux_socket_op : Uln_engine.Time.span
(** Extra per-call overhead of the UX server's BSD emulation layer
    (file-descriptor translation, UX internal locks) on each socket
    operation, beyond the raw Mach IPC costs. *)

val ux_per_segment : Uln_engine.Time.span
(** Extra per-segment cost inside the UX server data path (its buffer
    layer between the Mach IPC boundary and the BSD stack). *)

(* {2 User-level library organization (the paper's system)} *)

val registry_port_alloc : Uln_engine.Time.span
(** Registry bookkeeping to allocate/validate a connection end-point
    (part of the 1.5 ms non-overlapped outbound processing). *)

val registry_channel_setup : Uln_engine.Time.span
(** Creating the shared region, mapping it into the application and the
    kernel, initialising rings and installing the filter/template
    ("nearly 3.4 ms are spent setting up user channels"). *)

val registry_state_transfer : Uln_engine.Time.span
(** Moving TCP state from the registry server to the library
    ("about 1.4 ms to transfer and set up TCP state to user level"). *)

val netio_demux_overhead : Uln_engine.Time.span
(** Fixed kernel cost around each software filter dispatch (buffer
    bookkeeping before/after running the filter); the filter program
    itself is charged by its instruction cost.  Together these are
    Table 5's 52 us LANCE figure. *)

val filter_cycle_budget : int
(** Admission-control bound on one demux program's certified worst-case
    cycle cost ({!Uln_filter.Verify}): filters the verifier cannot
    bound under this are refused at install time, so no application can
    make kernel demultiplexing arbitrarily expensive for everyone
    else. *)

val userlib_rx_per_segment : Uln_engine.Time.span
(** Per-packet cost of the user-level receive path beyond the protocol
    code itself: the per-connection thread upcall, C-threads
    synchronization and shared-ring accounting. *)

val userlib_rx_per_segment_zc : Uln_engine.Time.span
(** The same per-packet receive-path cost when the connection runs the
    zero-copy data path ({!Uln_proto.Tcp_params.t.zero_copy}): frames
    stay in the shared ring buffers and the library hands loaned views
    upward, so the per-segment work shrinks to descriptor accounting
    and the upcall itself — no private-buffer staging, no socket-layer
    enqueue of a second copy. *)

val userlib_batch_overhead : Uln_engine.Time.span
(** Per-notification cost of waking the library: scheduling, address
    space switch and thread dispatch.  On the slow Ethernet almost
    every packet pays it (batch size ~1), which is the paper's "0.8 ms
    greater" delivery cost; on AN1 back-to-back arrivals amortize it
    ("network packet batching is very effective"), which is why the
    paper's AN1 numbers converge with Ultrix. *)

val userlib_per_write : Uln_engine.Time.span
(** Per-[send] library bookkeeping (socket-layer emulation in the
    library). *)

val bqi_setup : Uln_engine.Time.span
(** Extra channel-setup cost on AN1: allocating and programming the
    controller's BQI ring ("the machinery involved to set up the BQI
    has to be exercised", Table 4). *)

val channel_reuse_setup : Uln_engine.Time.span
(** Re-arming a parked (pooled) user channel for a new connection:
    filter install, template stamp and ring reset.  The shared region,
    its mappings, the semaphore and any BQI ring already exist, so this
    replaces {!registry_channel_setup} (and {!bqi_setup}) when
    {!Uln_proto.Tcp_params.t.channel_pool} is on. *)

val channel_pool_max : int
(** Parked channels the registry keeps per host before falling back to
    destroying released ones (bounds pinned shared memory). *)

val lease_grant : Uln_engine.Time.span
(** Registry work to grant an endpoint lease: reserving the port block
    and running the filter verifier once over the parameterized
    filter/template shape (one Absint pass certifies every
    instantiation, since only the compared constants vary). *)

val lease_block_ports : int
(** Ports per endpoint lease block. *)

val lease_channels : int
(** Channels pre-built and handed over with a lease grant — enough to
    cover the connections in flight (including close tails) at churn
    rate; extra demand falls back to the per-connection registry path. *)

val lease_stamp : Uln_engine.Time.span
(** Kernel cost of arming a leased channel for one connection: the
    network I/O module instantiates the pre-verified filter/template
    shape with the validated 4-tuple and inserts it into the demux
    table — no verifier run, no registry IPC. *)

val lease_local_alloc : Uln_engine.Time.span
(** Library-side bookkeeping to take a port from its leased block. *)

val time_wait_granularity : Uln_engine.Time.span
(** Tick of the registry's TIME_WAIT wheel.  2MSL residues round up to
    it; far coarser than the engines' timer granularity because nothing
    latency-sensitive fires from this wheel. *)

val time_wait_capacity : int
(** TIME_WAIT records the registry will hold on the wheel; beyond this
    the oldest protection is forfeited early (counted, not silent) so
    churn cannot grow registry state without bound. *)

val time_wait_entry : Uln_engine.Time.span
(** Registry cost to park one inherited connection's 2MSL residue on
    the wheel (record + wheel insert), replacing a live control block
    with engine timers. *)

val rst_batch_per_conn : Uln_engine.Time.span
(** Per-connection cost of the batched abnormal-exit pass: deriving and
    transmitting one RST from each inherited snapshot in a single sweep
    (one IPC for the whole set, no per-connection server dispatch). *)

val channel_ring_slots : int
(** Receive-ring depth of a user channel. *)

val channel_buffer_size : int
(** Size of each shared packet buffer (fits a max Ethernet frame). *)

val tx_pool_slots : int
(** Buffers in a zero-copy connection's transmit loan pool: deep enough
    to cover a full send window of outstanding segments (snd_buf /
    mss rounds to ~11) with headroom for application pipelining. *)

val tx_pool_buffer_size : int
(** Size of each transmit loan buffer: one VM page, so a loan covers the
    common bulk write sizes (the paper's Table 2 sweep tops out at 4 KB)
    and a pool buffer can always be handed to the kernel by reference.
    TCP segments the loan into MSS-sized slices via the scatter-gather
    chain, so loans larger than one wire frame are fine. *)

val rx_poll_budget : Uln_engine.Time.span
(** How long a zero-copy receive thread spins on its (mapped) receive
    ring after draining it before giving up and sleeping on the channel
    semaphore again.  Sized to cover a max-length Ethernet frame's
    serialization plus protocol turnaround (~1.2 ms + ack processing),
    so a steady bulk stream pays the notification chain once, not per
    segment; an idle connection burns at most this much CPU per lull. *)

val rx_poll_tick : Uln_engine.Time.span
(** Granularity of the receive-ring poll: each tick charges this much
    CPU and re-checks the ring, so worst-case pickup latency for a
    polled frame is one tick. *)

val tenant_max_conns : int
(** Default per-tenant (per-principal) ceiling on concurrently granted
    registry connections; admission beyond it fails with the typed
    [Quota_exceeded] error rather than exhausting shared channel
    memory.  Overridable per registry ({!Registry.create}). *)

val tenant_mem_per_conn : int
(** Shared-region bytes the registry charges a tenant per granted
    connection (one channel: ring slots x buffer size). *)

val tenant_max_mem_bytes : int
(** Default per-tenant shared-memory ceiling; reached exactly when the
    connection ceiling is, unless a registry is created with custom
    limits. *)

val registry_shard_route : Uln_engine.Time.span
(** Cost of routing one registry operation to its shard: the stable
    4-tuple hash plus the indirection into the per-shard tables
    (shard_registry mode only). *)

val napi_budget : int
(** Frames one NAPI poll slice handles before yielding the CPU
    ({!Uln_net.Napi}); enabled when {!Uln_proto.Tcp_params.int_suppress}
    is on. *)

val napi_ring_slots : int
(** Bounded NAPI software-ring capacity: frames beyond it are dropped
    at the device (early drop), so overload degrades instead of
    livelocking. *)

val userlib_rx_gro_frame : Uln_engine.Time.span
(** Library cost of handing each {e additional} frame of a receive
    burst to the stack under rx_coalesce: dispatch bookkeeping without
    a fresh thread switch.  The first frame of a burst pays the full
    {!userlib_rx_per_segment} price. *)

val gro_poll_interval : Uln_engine.Time.span
(** Sleep between ring re-checks while an rx_coalesce poll episode
    holds its burst bracket open (the library-level analogue of
    [gro_flush_timeout]): frames found by a re-check continue the open
    merge run at {!userlib_rx_gro_frame} instead of paying a fresh
    wakeup->drain entry. *)

val gro_quiescent_polls : int
(** Consecutive empty re-checks after which a poll episode closes its
    bracket (flushing the merge run) and re-arms the semaphore. *)

val gro_episode_budget : Uln_engine.Time.span
(** Upper bound on one poll episode's lifetime under sustained load:
    the bracket is closed and reopened so a flood cannot defer
    delivery (or the flush's ACK) indefinitely. *)
