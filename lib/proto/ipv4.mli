(** IPv4 (RFC 791): header handling, fragmentation and reassembly.

    As in the paper's implementation, the library handles host traffic
    only — no gateway (forwarding) functions — and never emits options,
    so headers are always 20 bytes.  Fragmented datagrams are reassembled
    with a 30-second timeout. *)

type t

type handler = src:Uln_addr.Ip.t -> dst:Uln_addr.Ip.t -> Uln_buf.Mbuf.t -> unit
(** Upper-layer input: called with the transport payload. *)

val create :
  Proto_env.t ->
  my_ip:Uln_addr.Ip.t ->
  mtu:int ->
  tx:(?gso_size:int -> dst:Uln_addr.Ip.t -> Uln_buf.Mbuf.t -> unit) ->
  t
(** [mtu] is the link payload limit (1500 on both networks here); [tx]
    receives complete IP packets for link resolution and transmission.
    A non-zero [gso_size] marks an oversized segmentation-offload
    packet the NIC must cut into wire frames of at most that many TCP
    payload bytes each ({!Uln_net.Txq.split}). *)

val my_ip : t -> Uln_addr.Ip.t

val mtu : t -> int
(** The link payload limit this instance was created with. *)

val set_handler : t -> proto:int -> handler -> unit
(** Register the upper layer for an IP protocol number (6 TCP, 17 UDP,
    1 ICMP). *)

val output :
  t -> proto:int -> dst:Uln_addr.Ip.t -> ?ttl:int -> ?gso_size:int -> Uln_buf.Mbuf.t -> unit
(** Emit a datagram, fragmenting when the payload exceeds [mtu - 20].
    A positive [gso_size] instead emits the whole payload as one
    segmentation-offload packet (no fragmentation): the NIC cuts it
    into complete wire packets, so nothing oversized ever reaches the
    wire. *)

val input : t -> Uln_buf.Mbuf.t -> unit
(** Process a received IP packet (starting at the IP header).  Invalid
    packets (bad version, checksum, truncation) are counted and
    dropped. *)

val header_size : int
(** 20. *)

(* {2 Statistics} *)

val drops : t -> int
(** Malformed, misaddressed or undeliverable inputs. *)

val fragments_out : t -> int
val reassembled : t -> int
