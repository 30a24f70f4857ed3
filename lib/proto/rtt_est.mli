(** RTT estimation: Jacobson's smoothed estimator, fed by the classic
    single timer under Karn's rule or, once RFC 1323 timestamps are
    negotiated, by the echo on every ACK; the retransmit backoff;
    [ts_recent] and PAWS.  The only reader of
    {!Tcp_params.t.timestamps}.  One record per connection; it travels
    whole in a handoff snapshot.  Only this module writes its fields. *)

type t = {
  mutable srtt_us : float;
  mutable rttvar_us : float;
  mutable rtt_min_us : float;  (** smallest sample seen; 0 until the first *)
  mutable rto : Uln_engine.Time.span;
  mutable backoff : int;
  mutable timing : (Tcp_seq.t * Uln_engine.Time.t) option;
      (** the single timer: the timed sequence number and its send time *)
  mutable ts_ok : bool;  (** timestamps negotiated *)
  mutable ts_recent : int;  (** peer's newest in-window TSval (our TSecr) *)
}

val create : Tcp_params.t -> t
(** No sample yet: the RTO is [initial_rto]. *)

val sample : t -> Tcp_params.t -> float -> unit
(** Feed one RTT sample (us).  The first sets srtt = s and rttvar = s/2,
    later ones use gains 1/8 and 1/4; the RTO, srtt + 4 rttvar, is
    clamped to [min_rto, max_rto] and the backoff resets. *)

val sent : t -> seq:Tcp_seq.t -> snd_max:Tcp_seq.t -> now:Uln_engine.Time.t -> unit
(** Data went out at [seq]: start the single timer if it is idle and the
    data is new (at or past [snd_max]). *)

val retransmitted : t -> unit
(** Karn's rule: a retransmission ends the timing in progress. *)

val acked :
  t -> Tcp_params.t -> ack:Tcp_seq.t -> ts:(int * int) option -> now:Uln_engine.Time.t -> unit
(** An ACK advanced snd_una: take the sample (the TSecr echo when
    timestamps are on, else the single timer if [ack] covers it) and
    collapse the backoff. *)

val syn_acked : t -> unit
(** The SYN-ACK arrived: collapse the backoff (no sample). *)

val rexmt_delay : t -> Tcp_params.t -> Uln_engine.Time.span
(** RTO doubled per backoff step, up to 2^6, capped at [max_rto]. *)

val persist_delay : t -> Uln_engine.Time.span
(** RTO doubled per backoff step, up to 2^4. *)

val timed_out : t -> bool
(** The retransmit timer fired: back off and stop timing.  [false] once
    the segment has been retried too often — the connection gives up. *)

val probed : t -> unit
(** A window probe went out: back off, up to 10 steps. *)

val admit : t -> Tcp_wire.segment -> rcv_nxt:Tcp_seq.t -> bool
(** PAWS: [false] for a timestamped segment older than [ts_recent] (the
    caller acknowledges and drops it); otherwise refresh [ts_recent]
    from an in-window segment and admit it. *)

val fresh : t -> (int * int) option -> bool
(** Whether a segment's timestamp option would pass PAWS unchanged. *)

val option : t -> Tcp_params.t -> offer:bool -> now:Uln_engine.Time.t -> (int * int) option
(** The TS option of an outgoing segment: present once negotiated, and
    on a SYN ([offer]) when the switch is on. *)

val negotiate : t -> Tcp_params.t -> (int * int) option -> unit
(** Accept the peer's handshake TS option if the switch is on. *)
