module Time = Uln_engine.Time

let bsd_socket_create = Time.us 1200
let small_write_buffering = Time.us 260
let copy_eliminate_threshold = 1024

let ux_socket_op = Time.us 180
let ux_per_segment = Time.us 700

let registry_port_alloc = Time.us 1500
let registry_channel_setup = Time.us 3200
let registry_state_transfer = Time.us 1400
let netio_demux_overhead = Time.us 33

(* Admission-control ceiling on a single demux program's certified
   worst-case cost: ~8.6x the standard TCP connection filter (476
   interpreted cycles), so every legitimate filter fits with room for
   richer ones, while an unbounded program cannot stall the receive
   path of every other channel on the host. *)
let filter_cycle_budget = 4096

let userlib_rx_per_segment = Time.us 320
let userlib_rx_per_segment_zc = Time.us 85
let userlib_batch_overhead = Time.us 380
let userlib_per_write = Time.us 60

let tx_pool_slots = 32
let tx_pool_buffer_size = 4096

let rx_poll_budget = Time.us 3000
let rx_poll_tick = Time.us 25

let bqi_setup = Time.us 500

let channel_ring_slots = 64
let channel_buffer_size = 1600

(* Connection-churn fast path (setup plane). *)

let channel_reuse_setup = Time.us 420
let channel_pool_max = 32

let lease_grant = Time.us 2600
let lease_block_ports = 256
let lease_channels = 4
let lease_stamp = Time.us 160
let lease_local_alloc = Time.us 35

let time_wait_granularity = Time.ms 100
let time_wait_capacity = 4096
let time_wait_entry = Time.us 25
let rst_batch_per_conn = Time.us 90

(* Per-tenant admission quotas (million-connection control plane). *)

let tenant_max_conns = 65536
let tenant_mem_per_conn = channel_ring_slots * channel_buffer_size
let tenant_max_mem_bytes = tenant_max_conns * tenant_mem_per_conn

(* Registry shard-routing cost: the stable 4-tuple hash plus the
   shard-table indirection a sharded lookup pays over the flat table. *)
let registry_shard_route = Time.us 2

(* Small-message fast path (rx/ack/wakeup coalescing). *)

(* NAPI-style interrupt suppression: frames one poll slice handles
   before yielding the CPU, and the bounded software ring beyond which
   the device drops early instead of queueing unbounded work. *)
let napi_budget = 64
let napi_ring_slots = 256

(* Library-side cost of handing one additional frame of an rx burst to
   the stack: the dispatch bookkeeping without a fresh thread switch —
   the first frame of a burst still pays the full per-segment price. *)
let userlib_rx_gro_frame = Time.us 25

(* The receive thread's poll episode (rx_coalesce): after the wakeup
   drain the thread keeps its burst bracket open and re-checks the
   ring every [gro_poll_interval] — sleeping between checks, so the
   CPU is free for other connections — and re-arms the semaphore once
   [gro_quiescent_polls] consecutive checks find nothing.  Frames a
   check does find continue the open merge run at the cheap
   [userlib_rx_gro_frame] price instead of buying a whole new
   wakeup->drain entry; this is what lets merging span the gaps
   between fan-in senders (Linux ships the same mechanism as
   napi_defer_hard_irqs + gro_flush_timeout).  [gro_episode_budget]
   cuts a sustained flood into bounded episodes so no bracket can
   hold delivered data — or the ACK its flush releases — open-ended. *)
let gro_poll_interval = Time.us 500
let gro_quiescent_polls = 2
let gro_episode_budget = Time.ms 20
