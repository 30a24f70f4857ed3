(** TCP (RFC 793 / 4.3BSD flavour).

    A from-scratch engine with the full data-path feature set of the
    stack the paper borrowed from the UX server: three-way handshake,
    sliding window with flow control, Jacobson/Karn RTT estimation and
    exponential backoff, slow start and congestion avoidance, fast
    retransmit, delayed ACKs, Nagle, zero-window persist probes,
    half-close and 2MSL TIME_WAIT.

    One engine instance serves one stack instance; the same engine code
    runs in the kernel, in a server, or linked into an application.
    {!export}/{!import} detach an established connection from one engine
    and re-attach it to another with sequence state intact — the
    mechanism by which the registry server performs connection setup on
    an application's behalf and then hands the connection to the
    application's library (paper §3.4). *)

type t
(** A TCP engine bound to one IP instance. *)

type conn
(** One connection. *)

type listener
(** A passive open. *)

exception Connection_error of string
(** Raised by {!write}/{!read} on reset, timeout or abort. *)

type negotiated
(** Window scaling as negotiated on the handshake, with the option
    diagnostics of {!conn_options}. *)

type snapshot = {
  snap_local_port : int;
  snap_remote_ip : Uln_addr.Ip.t;
  snap_remote_port : int;
  snap_iss : Tcp_seq.t;
  snap_irs : Tcp_seq.t;
  snap_snd_una : Tcp_seq.t;
  snap_snd_nxt : Tcp_seq.t;
  snap_snd_wnd : int;
  snap_rcv_nxt : Tcp_seq.t;
  snap_mss : int;
  snap_opts : negotiated;
  snap_rtt : Rtt_est.t;  (** the estimator whole, timestamp state included *)
  snap_loss : Loss_recovery.t;  (** SACK permission and the loss counters *)
  snap_cc : Cong_control.t;
  snap_rcv_pending : string;
      (** bytes received (and acknowledged) by the exporting engine but
          not yet read by any application — data that raced the handoff
          travels with the state *)
}
(** Transferable state of an established connection with nothing
    unacknowledged in flight.  The plug-in records travel whole, so the
    importer keeps every option the handshake negotiated; it adopts
    them, so a snapshot is imported at most once. *)

val create : Proto_env.t -> Ipv4.t -> ?params:Tcp_params.t -> unit -> t
(** Build an engine and register it as the IP protocol-6 handler. *)

val params : t -> Tcp_params.t

val set_unknown_segment_hook :
  t -> (src:Uln_addr.Ip.t -> dst:Uln_addr.Ip.t -> Uln_buf.Mbuf.t -> bool) -> unit
(** Called with the raw transport payload when a valid segment matches
    no connection and no listener; return [true] to claim it (suppresses
    any RST).  The registry server uses this to re-deliver segments that
    raced a connection handoff. *)

val set_rst_on_unknown : t -> bool -> unit
(** Whether segments for unknown connections draw an RST (default
    [true]; the registry server's engine turns it off because packets
    it does not know about belong to application libraries). *)

val set_time_wait_hook : t -> (conn -> bool) -> unit
(** Called when a connection enters TIME_WAIT, before the engine arms
    its per-connection 2MSL timer.  Returning [true] claims the quiet
    period: the engine retires the control block immediately (closed
    callbacks fire) and the claimant is responsible for holding the
    port and absorbing stray segments for 2MSL — the registry's
    TIME_WAIT wheel ({!Tcp_params.t.time_wait_wheel}).  Returning
    [false] keeps the engine's own timer, byte-identically. *)

(* {2 Opening and closing} *)

val connect :
  t ->
  src_port:int ->
  dst:Uln_addr.Ip.t ->
  dst_port:int ->
  (conn * [ `Established ] Tcp_fsm.state, string) result
(** Active open; blocks the calling thread until ESTABLISHED or failure.
    On success the caller receives the ESTABLISHED witness minted when
    the handshake completed. *)

val connect_prepare :
  t ->
  src_port:int ->
  dst:Uln_addr.Ip.t ->
  dst_port:int ->
  (conn * [ `Syn_sent ] Tcp_fsm.state, string) result
(** First half of {!connect}: allocate the connection and take the
    Closed -> SYN_SENT transition {e without sending the SYN}.  The
    returned witness lets setup-plane code derive a
    {!Tcp_fsm.bqi_permit} (hints ride on handshake segments only) and
    register demux state before any wire activity. *)

val connect_launch :
  conn -> ([ `Established ] Tcp_fsm.state, string) result
(** Second half: transmit the SYN and block until ESTABLISHED or
    failure.  The conn must come from {!connect_prepare}. *)

val listen : t -> port:int -> listener
(** Passive open.
    @raise Failure if the port already has a listener. *)

val listener_witness : listener -> [ `Listen ] Tcp_fsm.state
(** A fresh LISTEN-state proof for this listener (each pending TCB the
    listener spawns has its own FSM; this witness vouches for the
    listener itself, e.g. to stamp BQI hints on SYN-ACKs). *)

val accept : listener -> conn * [ `Established ] Tcp_fsm.state
(** Block until a handshake completes on the listener; returns the
    connection together with its ESTABLISHED witness. *)

val close_listener : t -> listener -> unit

val conns : t -> conn list
(** The engine's connections (TIME_WAIT included), in 4-tuple order. *)

val port_in_use : t -> int -> bool
(** Whether a listener or a connection in any state (TIME_WAIT
    included) holds this local port. *)

val close : conn -> unit
(** Orderly release: queue a FIN behind any buffered data.  Returns
    immediately; use {!await_closed} to drain. *)

val abort : conn -> unit
(** Send RST and discard the connection. *)

val await_closed : conn -> unit
(** Block until the connection reaches CLOSED (including through
    TIME_WAIT). *)

(* {2 Data transfer} *)

val write : conn -> Uln_buf.View.t -> unit
(** Queue bytes for transmission, blocking while the send buffer is
    full.  @raise Connection_error on a dead connection. *)

val read : conn -> max:int -> Uln_buf.View.t option
(** Receive up to [max] bytes, blocking while none are available.
    [None] at end-of-stream (peer FIN consumed).
    @raise Connection_error on reset/timeout. *)

val write_owned : ?release:(unit -> unit) -> conn -> Uln_buf.View.t -> unit
(** Zero-copy write: queue the view by reference.  The engine reads it
    in place for transmission and any retransmissions and fires
    [release] exactly once when its last byte is acknowledged (or the
    connection is torn down); the caller must not touch the buffer until
    then.  Blocks while the whole view does not fit the send buffer.
    @raise Connection_error unless the connection was created with
    [Tcp_params.zero_copy]. *)

val read_loan : conn -> max:int -> Uln_buf.View.t option
(** Like {!read}, but the delivered bytes stay charged against the
    receive window until {!return_loan}: outstanding loans shrink the
    advertised window, back-pressuring the sender instead of letting a
    slow application starve receive buffering. *)

val return_loan : conn -> int -> unit
(** Give back [len] loaned bytes; may reopen the advertised window (and
    send the window update). *)

val loaned_bytes : conn -> int
(** Bytes currently delivered as loans and not yet returned. *)

val bytes_queued : conn -> int
(** Unacknowledged + unsent bytes in the send buffer. *)

val bytes_available : conn -> int
(** Bytes ready for {!read}. *)

(* {2 Inspection} *)

val state : conn -> Tcp_state.t

val fsm : conn -> Tcp_fsm.Packed.t
(** The connection's packed session witness.  Its state always agrees
    with {!state} (the shadow oracle asserts this at every transition
    and again in {!export}/teardown). *)

val established_witness : conn -> [ `Established ] Tcp_fsm.state option
(** A fresh ESTABLISHED proof if the connection is currently in that
    state; [None] otherwise.  Used by handoff paths that need a witness
    for {!export} after the fact (e.g. graceful-exit inheritance). *)

val error : conn -> string option
val local_port : conn -> int
val remote_addr : conn -> Uln_addr.Ip.t * int
val mss : conn -> int
val srtt_us : conn -> float
val cwnd : conn -> int

type conn_options = {
  co_snd_scale : int;  (** shift applied to windows the peer advertises *)
  co_rcv_scale : int;  (** shift applied to windows we advertise *)
  co_sack : bool;  (** SACK negotiated on this connection *)
  co_timestamps : bool;  (** RFC 1323 timestamps negotiated *)
  co_cong : string;  (** congestion-control algorithm name *)
  co_unknown_opts : int;  (** unknown option kinds seen on received segments *)
  co_wnd_clamps : int;  (** advertised windows clamped to the 16-bit field *)
  co_rto_rexmits : int;
      (** retransmissions after a timeout: the timer firings and the
          go-back-N resends that follow them *)
  co_fast_rexmits : int;  (** fast retransmits and NewReno partial-ACK repairs *)
  co_sack_rexmits : int;  (** retransmissions driven by the SACK scoreboard *)
  co_recovery_us : float list;
      (** completed loss-recovery episode durations, newest first *)
}
(** Negotiated-option state and loss-recovery diagnostics of one
    connection (the [netlab stats] snapshot; the WAN bench's recovery samples). *)

val conn_options : conn -> conn_options

val on_closed : conn -> (unit -> unit) -> unit
(** Callback once the connection is fully gone (port reusable). *)

(* {2 Connection handoff (paper §3.4)} *)

val export : conn -> witness:[ `Established ] Tcp_fsm.state -> snapshot
(** Detach an ESTABLISHED connection from its engine without emitting
    any segments; the conn becomes unusable.  The witness is the static
    proof that the connection completed its handshake — obtained from
    {!connect}/{!accept} or {!established_witness}.
    @raise Failure unless the connection is ESTABLISHED and quiescent
    (empty buffers). *)

val import : t -> snapshot -> conn
(** Adopt an exported connection into this engine. *)

val export_force : conn -> snapshot
(** Like {!export} but without the quiescence requirement: buffered
    data is discarded.  For abnormal-termination inheritance, where the
    adopting registry only needs sequence state to reset the peer.
    @raise Failure unless the connection is ESTABLISHED. *)

val await_drained : conn -> unit
(** Block until every byte written has been sent {e and acknowledged}
    (or the connection dies).  Graceful exit waits for this before
    handing the connection to the registry. *)

(* {2 Engine statistics} *)

val segments_in : t -> int
val segments_out : t -> int
val retransmissions : t -> int
val rsts_out : t -> int
val checksum_failures : t -> int

val unknown_options : t -> int
(** Total unknown TCP option kinds skipped across all received
    segments (engine-wide aggregate of [co_unknown_opts]). *)

val fsm_steps : t -> int
val shadow_checks : t -> int
(** Witness transitions (opens included) and shadow-oracle assertions
    made on this engine's connections. *)

(* {2 Receive coalescing (rx_coalesce)} *)

val begin_burst : t -> unit
(** Open an rx burst: until {!end_burst}, contiguous in-order data
    segments are merged GRO-style and run through the input state
    machine once per merged run instead of once per frame.  A no-op
    unless {!Tcp_params.rx_coalesce} is set — with the switch off every
    frame takes the per-packet path, charge order included.  Merging is
    conservative: out-of-order, SACK-bearing, flag-bearing (SYN, FIN,
    RST), PAWS-stale or window-overflowing segments always flow
    per-packet, so dupack/SACK recovery behavior is unchanged. *)

val end_burst : t -> unit
(** Close the burst and flush any pending merge. *)

val gro_merged : t -> int
(** Segments absorbed into a merge beyond the first of each run. *)

val gro_flushes : t -> int
(** Merged runs handed to the input state machine. *)

val acks_elided : t -> int
(** ACKs the burst-aware delayed-ACK suppressed relative to per-packet
    arrival (nonzero only with {!Tcp_params.burst_ack}). *)

(* {2 Transmit fast path (tx_gso / pacing)} *)

val gso_sends : t -> int
(** Oversized logical segments handed to the NIC for segmentation
    (nonzero only with {!Tcp_params.tx_gso}). *)

val gso_fallbacks : t -> int
(** Data sends that took the per-segment path with [tx_gso] on:
    retransmissions, sub-MSS tails, single-MSS windows. *)

val pacer_waits : t -> int
(** Data sends the software pacer deferred
    ({!Tcp_params.pacing}). *)

val pacer_wait_us : t -> float
(** Total pacer deferral, microseconds. *)

val pacer_hist : t -> (int * int) list
(** Pacer-deferral histogram as [(log2 us bucket, count)] pairs,
    ascending. *)
