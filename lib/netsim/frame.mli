(** Link-level frames.

    A frame carries the structured link-header fields (station
    addresses, a protocol type, and — on AN1 — the buffer queue index)
    plus the link payload.  {!to_wire} and {!wire_prefix} materialise
    the on-wire bytes (the 14-byte header, then the payload) when
    software needs to inspect them: the packet filter runs over the
    whole frame, fixed-offset header checks over a prefix. *)

type t = {
  src : Uln_addr.Mac.t;
  dst : Uln_addr.Mac.t;
  ethertype : int;  (** 0x0800 IP, 0x0806 ARP, ... *)
  bqi : int;  (** AN1 link-header demux field; 0 elsewhere *)
  bqi_hint : int;
      (** the "unused field in the AN1 link header" the registry servers
          use during connection setup to tell the remote side which BQI
          to stamp on this connection's data packets (paper §3.4) *)
  gso_size : int;
      (** segmentation-offload descriptor field: when non-zero, the
          payload is one oversized IP/TCP packet the controller must cut
          into wire frames of at most this many TCP payload bytes each
          ({!Txq.split}); 0 — the normal case — means the payload goes
          on the wire as-is.  Never appears on the wire itself. *)
  payload : Uln_buf.Mbuf.t;
}

val make :
  src:Uln_addr.Mac.t ->
  dst:Uln_addr.Mac.t ->
  ethertype:int ->
  ?bqi:int ->
  ?bqi_hint:int ->
  ?gso_size:int ->
  Uln_buf.Mbuf.t ->
  t

val payload_length : t -> int

val header_size : int
(** 14 bytes: dst(6) src(6) type(2). *)

val to_wire : t -> Uln_buf.View.t
(** Header and payload as one contiguous view (copies). *)

val wire_prefix : t -> int -> Uln_buf.View.t
(** [wire_prefix f n] is the first [min n (length of to_wire f)] wire
    bytes, copied from the header and the payload chain without
    materialising the rest — for readers of fixed header offsets. *)

val ethertype_ip : int
val ethertype_arp : int

val pp : Format.formatter -> t -> unit
