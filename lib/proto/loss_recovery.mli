(** Loss recovery: the duplicate-ACK counter, fast retransmit and the
    NewReno partial-ACK repair, the SACK scoreboard and its hole cursor,
    and recovery-episode accounting.  The only reader of
    {!Tcp_params.t.sack}.  {!Cong_control} decides when to retransmit;
    this module decides what.  One record per connection; it travels
    whole in a handoff snapshot.  Only this module writes its fields. *)

type t = {
  mutable sack_ok : bool;  (** SACK negotiated *)
  mutable dupacks : int;
  sb : Sack.t;
  mutable cursor : Tcp_seq.t;
  mutable rto_rexmits : int;
  mutable fast_rexmits : int;
  mutable sack_rexmits : int;
  mutable rec_start : Uln_engine.Time.t option;
  mutable rec_point : Tcp_seq.t;
  mutable rec_samples_us : float list;  (** episode durations, newest first *)
}

type 'c view = {
  una : 'c -> Tcp_seq.t;
  nxt : 'c -> Tcp_seq.t;
  max : 'c -> Tcp_seq.t;
  mss : 'c -> int;
  buffered : 'c -> int;  (** bytes in the send queue, from snd_una *)
  cc : 'c -> Cong_control.t;
  now : 'c -> Uln_engine.Time.t;
  resend : 'c -> seq:Tcp_seq.t -> off:int -> len:int -> unit;
}
(** What recovery reads of a connection ['c], live (each send sleeps for
    its CPU charge, and the connection may move meanwhile), and how it
    resends [len] bytes at queue offset [off]. *)

val create : iss:Tcp_seq.t -> t

val offer : t -> Tcp_params.t -> syn_ack:bool -> bool
(** SACK-permitted on a handshake segment: a SYN offers the switch, a
    SYN-ACK echoes the negotiation. *)

val negotiate : t -> Tcp_params.t -> bool -> unit
(** The peer's SACK-permitted option arrived. *)

val sacked : t -> una:Tcp_seq.t -> Cong_control.t -> (Tcp_seq.t * Tcp_seq.t) list -> unit
(** Fold an ACK's SACK blocks into the scoreboard. *)

val dupack : t -> 'c view -> 'c -> flight:int -> bool
(** One duplicate ACK; [true] when it started fast retransmit. *)

val advanced : t -> 'c view -> 'c -> unit
(** A cumulative ACK advanced snd_una: reset the dupacks, trim the
    scoreboard, and close the recovery episode once past its frontier. *)

val repair : t -> 'c view -> 'c -> unit
(** Retransmit now: the SACK holes pipe-limited, else the segment at
    snd_una. *)

val timed_out : t -> unit
(** The retransmit timer fired. *)

val resent : t -> unit
(** Go-back-N resent a segment below the send frontier. *)

val rewound : t -> 'c view -> 'c -> unit
(** The timeout rewound snd_nxt: forget the scoreboard (the peer may
    renege) and open a recovery episode. *)
