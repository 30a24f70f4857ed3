(** Pluggable congestion control.

    The connection owns the dupack counter and the retransmission
    machinery; this module owns cwnd/ssthresh and answers two questions
    per ACK event: how the window moves, and whether the caller must
    retransmit right now.  Selected per-connection by
    {!Tcp_params.t.cong_control}:

    - [`Reno]: the engine's historical arithmetic, extracted verbatim —
      slow start, congestion avoidance, fast retransmit at 3 dupacks
      with window inflation, timeout collapse to one MSS.  Bit-for-bit
      the pre-extraction behaviour (the ablation oracle).
    - [`Newreno]: RFC 6582 — a recovery episode spans one loss window
      ([recover] = snd_max at entry); partial ACKs retransmit the next
      hole immediately instead of stalling until timeout.
    - [`Cubic]: RFC 8312-style — concave/convex window growth as a
      cubic of time since the last loss with beta = 0.7, C = 0.4, never
      slower than Reno's step; NewReno recovery mechanics. *)

type algo = [ `Reno | `Newreno | `Cubic ]

type t

val create : algo -> mss:int -> initial_segments:int -> t
val reinit : t -> mss:int -> unit
(** MSS (re)negotiated on the handshake: restart the initial window. *)

val set_mss : t -> int -> unit
(** Adopt a renegotiated MSS without touching the window (the active
    opener's path: the initial window was sized at connect time). *)

val set_max_cwnd : t -> int -> unit
(** Window growth ceiling; never below the historical 65535 clamp
    (raised by the connection once window scaling is negotiated). *)

val cwnd : t -> int
val ssthresh : t -> int
val recovery_point : t -> Tcp_seq.t
val algo : t -> algo
val name : t -> string

val on_dupack : t -> count:int -> flight:int -> snd_max:Tcp_seq.t -> bool
(** One duplicate ACK ([count] is the running total).  True: the caller
    must fast-retransmit at snd_una now. *)

val on_sack : t -> unit
(** New SACK information arrived during recovery.  Pipe accounting in
    the connection replaces dupack inflation, so the window holds. *)

val on_ack :
  t ->
  ack:Tcp_seq.t ->
  acked:int ->
  dupacks:int ->
  flight:int ->
  now_us:float ->
  bool
(** A cumulative ACK advanced snd_una by [acked] bytes; [dupacks] is
    the counter value before the connection resets it.  True: partial
    ACK during NewReno/Cubic recovery — retransmit the first unacked
    hole now. *)

val on_rto : t -> flight:int -> unit
(** Retransmission timeout: collapse the window. *)

val on_idle : t -> unit
(** The ACK clock died (nothing in flight for over an RTO): restart
    from the initial window.  No-op for [`Reno], which predates
    congestion-window validation. *)
