(** RFC 2018 SACK scoreboard.

    One instance per connection, used on both sides of the option:

    - {e Sender}: {!add} folds the blocks off each incoming ACK into a
      sorted disjoint range set anchored at [snd_una]; {!next_hole} and
      {!sacked_bytes} drive pipe-limited hole retransmission during
      recovery; {!clear} forgets everything on a retransmission timeout
      (the peer is allowed to renege, so SACKed ranges must never be
      freed from the send buffer — only the cumulative ACK frees).

    - {e Receiver}: {!select_blocks} picks the blocks to attach to an
      outgoing ACK from the out-of-order ranges, most recently changed
      first (RFC 2018 §4), capped at the option-space limit. *)

type t

val create : unit -> t
val clear : t -> unit
(** Forget all SACKed ranges — the reneging-safety reset on RTO. *)

val add : t -> una:Tcp_seq.t -> (Tcp_seq.t * Tcp_seq.t) list -> unit
(** Merge the blocks of one ACK.  Edges at or below [una] are clipped;
    overlapping and adjacent ranges coalesce. *)

val forward : t -> una:Tcp_seq.t -> unit
(** Drop everything the cumulative ACK has passed. *)

val is_empty : t -> bool
val sacked_bytes : t -> int

val next_hole :
  t -> from:Tcp_seq.t -> upto:Tcp_seq.t -> (Tcp_seq.t * Tcp_seq.t) option
(** First unSACKed interval starting at or after [from], clipped to
    [upto]; [None] when everything in [from, upto) is SACKed or the
    interval is empty. *)

val highest : t -> Tcp_seq.t option
(** Highest SACKed right edge. *)

val sacked_above : t -> Tcp_seq.t -> int
(** Bytes SACKed at or above the given sequence — the RFC 6675 loss
    evidence for the hole starting there. *)

val select_blocks :
  recent:Tcp_seq.t option ->
  limit:int ->
  (Tcp_seq.t * Tcp_seq.t) list ->
  (Tcp_seq.t * Tcp_seq.t) list
(** Receive side: order [ranges] for transmission — the range containing
    [recent] (the sequence number that most recently arrived) first,
    then the rest, truncated to [limit]. *)
