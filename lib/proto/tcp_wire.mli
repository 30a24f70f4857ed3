(** TCP segment wire format (RFC 793 §3.1) with a general options codec:
    MSS, window scale and SACK-permitted/timestamps (RFC 1323/2018
    handshake options), and SACK blocks on established-state ACKs. *)

type flags = {
  fin : bool;
  syn : bool;
  rst : bool;
  psh : bool;
  ack : bool;
}

val no_flags : flags

(** Decoded option list.  [unknown] is decode-side only: kinds the codec
    does not speak, skipped by their length field and surfaced so the
    connection can count them ({!encode} ignores it). *)
type opts = {
  mss : int option;  (** kind 2, SYN only *)
  wscale : int option;  (** kind 3: window shift count, SYN only *)
  sack_ok : bool;  (** kind 4: SACK-permitted, SYN only *)
  sack : (Tcp_seq.t * Tcp_seq.t) list;
      (** kind 5: received-beyond-the-gap blocks, [left, right) edges;
          at most 3 per segment alongside timestamps (4 bare) *)
  ts : (int * int) option;  (** kind 8: (TSval, TSecr) *)
  unknown : int list;  (** unrecognised kinds, in arrival order *)
}

val no_opts : opts
val opts_mss : int -> opts  (** [no_opts] with just an MSS — the classic SYN *)

val opts_length : opts -> int
(** Encoded size in bytes, nop-padded to a 4-byte multiple. *)

type segment = {
  src_port : int;
  dst_port : int;
  seq : Tcp_seq.t;
  ack : Tcp_seq.t;
  flags : flags;
  wnd : int;  (** as carried on the wire: 16 bits, post-scaling *)
  opts : opts;
  payload : Uln_buf.Mbuf.t;
}

val header_size : int
(** 20, without options. *)

val encode :
  ?payload_sum:int ->
  src_ip:Uln_addr.Ip.t -> dst_ip:Uln_addr.Ip.t -> segment -> Uln_buf.Mbuf.t
(** Serialise with a correct checksum (pseudo-header included).
    [payload_sum], when given, is the payload's un-complemented partial
    sum (word parity starting even, as from {!Uln_buf.View.blit_sum} /
    {!Uln_buf.Bytequeue.peek_sum}): the checksum is then completed from
    the header alone instead of re-walking the payload — the fused
    copy+checksum transmit path.

    @raise Invalid_argument if [wnd] exceeds 16 bits (the caller must
    scale or clamp — see {!Tcp.stats} [wnd_clamps]) or the options
    exceed 40 bytes. *)

val decode :
  src_ip:Uln_addr.Ip.t -> dst_ip:Uln_addr.Ip.t -> Uln_buf.Mbuf.t -> segment option
(** Parse and verify the checksum; [None] on truncation, corruption, or
    a structurally malformed option list (truncated body, length < 2,
    known kind with the wrong length) — never an exception.  Unknown
    kinds with plausible lengths are skipped and reported in
    [opts.unknown]. *)

val seg_len : segment -> int
(** Sequence space the segment occupies: payload + SYN + FIN. *)

val pp : Format.formatter -> segment -> unit
