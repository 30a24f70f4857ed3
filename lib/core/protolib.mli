(** The user-level protocol library (paper §3.2).

    Linked into each application: the full TCP/IP stack runs in the
    application's address space.  Connection setup goes through the
    registry server (real IPC); data transfer afterwards involves only
    the library and the network I/O module — packets move through the
    connection's shared-memory ring, arrival is signalled by a
    lightweight semaphore (batched), and transmission enters the kernel
    through a specialized, template-checked path.

    Per the paper, each connection gets its own protocol engine and
    receive thread ("protocol control block lookups are eliminated by
    having separate threads per connection that are upcalled"), and the
    buffer organization eliminates byte copying at every write size.
    Every endpoint — a handed-off or leased TCP connection, a UDP port,
    an RRP client or server — is built the same way: one channel, one
    private engine, one receive thread of the library's receive
    service. *)

type t

val create :
  Uln_host.Machine.t ->
  Netio.t ->
  Registry.t ->
  name:string ->
  ip:Uln_addr.Ip.t ->
  ?tcp_params:Uln_proto.Tcp_params.t ->
  ?cpu:int ->
  unit ->
  t
(** Instantiate the library for one application.  [cpu] (default 0)
    pins the library — its engine charges, receive threads and the
    channels it adopts — to that CPU of the machine; on a 1-CPU
    machine every index is the boot CPU. *)

val app : t -> Sockets.app
(** The application-facing socket interface. *)

val connect_q :
  ?params:Uln_proto.Tcp_params.t ->
  t ->
  src_port:int ->
  dst:Uln_addr.Ip.t ->
  dst_port:int ->
  (Sockets.conn, Registry.error) result
(** Like the socket interface's [connect] but with the registry's typed
    error, so multi-tenant applications can tell a
    {!Registry.Quota_exceeded} or an {!Registry.Out_of_ports} (of the
    registry's ports or the library's lease) apart, shed connections and
    retry rather than parse a message.  [params] gives {e this
    connection} its own protocol parameters — the "canned options" of
    paper §5: each connection has its own engine, so tuning it touches
    no one else. *)

val pass_connection : t -> Sockets.conn -> to_lib:t -> Sockets.conn
(** Hand an established connection to another application on the same
    host without involving the registry server — the inetd pattern the
    paper gives for Mach-port-based connection passing (§3.2).  The
    connection must be quiescent; the returned handle belongs to
    [to_lib] and the original becomes unusable.
    @raise Failure if the connection is not this library's or not
    ESTABLISHED. *)

val domain : t -> Uln_host.Addr_space.t

val cpu : t -> Uln_host.Cpu.t
(** The CPU this library is pinned to. *)

val live_connections : t -> int

val lease : t -> Registry.lease_grant option
(** The endpoint lease this library holds, once a leased connect has
    taken one. *)

val conns : t -> (Uln_proto.Tcp.t * Uln_proto.Tcp.conn) list
(** Each live connection with its private engine, in {!bufstats}
    order. *)

(** Buffer-management statistics of one live connection: transmit loan
    pool occupancy, receive loans outstanding against the TCP window,
    and the batched-transmit (doorbell coalescing) counters.  All zero
    except [bs_loaned_bytes] when the connection does not run the
    zero-copy data path. *)
type bufstats = {
  bs_pool_capacity : int;
  bs_pool_available : int;
  bs_pool_in_use : int;
  bs_pool_exhausted : int;  (** transmit allocations that found the pool empty *)
  bs_loaned_bytes : int;  (** receive bytes loaned out, held out of the window *)
  bs_tx_doorbells : int;
  bs_tx_batches : int;
  bs_tx_sync_fallbacks : int;
  bs_tx_batch_hist : (int * int) list;  (** (batch size, occurrences), ascending *)
}

val bufstats : t -> bufstats list
(** One entry per live connection of this library. *)

(** Receive-path coalescing statistics: how frames arrived (bursts per
    wakeup), what the stack merged (GRO runs, elided ACKs) and how the
    NIC was driven (interrupts vs NAPI polls, early drops).  The NAPI
    counters are zero unless [int_suppress] installed suppression; the
    burst histogram is recorded on every organization. *)
type rxstats = {
  rs_wakeups : int;  (** receive wakeups that found at least one frame *)
  rs_frames : int;  (** frames drained across those wakeups *)
  rs_burst_hist : (int * int) list;  (** (burst size, occurrences), ascending *)
  rs_gro_merged : int;  (** segments absorbed into merges beyond each run's first *)
  rs_gro_flushes : int;  (** merged runs handed to the TCP input machine *)
  rs_acks_elided : int;  (** ACKs suppressed by burst-aware delayed ACK *)
  rs_interrupts : int;  (** interrupts taken (NAPI: one per polling episode) *)
  rs_polls : int;  (** NAPI poll slices run *)
  rs_polled_frames : int;  (** frames delivered by the poll loop *)
  rs_ring_drops : int;  (** early drops at the bounded NAPI ring *)
  rs_ring_overflows : int;  (** frames lost to full channel rings *)
}

val rxstats : t -> rxstats
(** GRO/ACK counters are summed over connections currently open;
    wakeup and NAPI counters are module-wide and survive close. *)

(** Transmit fast-path statistics: what the stack offloaded (GSO
    episodes and the frames the NIC cut from them) and how the software
    pacer spread the bursts.  All zero unless the corresponding
    [tx_gso] / [pacing] switches are on. *)
type txstats = {
  ts_gso_sends : int;  (** oversized logical segments the stack emitted *)
  ts_gso_fallbacks : int;  (** data sends that went per-segment with tx_gso on *)
  ts_gso_episodes : int;  (** GSO descriptors the NIC accepted *)
  ts_gso_frames : int;  (** wire frames the NIC cut from them *)
  ts_pacer_waits : int;  (** data sends the pacer deferred *)
  ts_pacer_wait_us : float;  (** total pacer deferral *)
  ts_pacer_hist : (int * int) list;  (** (log2 us bucket, count), ascending *)
}

val txstats : t -> txstats
(** GSO/pacer/release counters are summed over connections currently
    open; the NIC-side counters are module-wide and survive close. *)

(** Endpoint-lease statistics of this library (all zero when the
    [endpoint_lease] switch is off). *)
type leasestats = {
  lst_leased_connects : int;  (** connects served with no registry IPC *)
  lst_fallbacks : int;
      (** leased connects that fell back to the registry path (every
          lease channel was on a live connection) *)
  lst_free_ports : int;  (** leased ports currently idle *)
  lst_free_channels : int;  (** lease channels currently idle *)
}

val leasestats : t -> leasestats
