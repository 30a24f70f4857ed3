(** UDP (RFC 768).

    The unreliable datagram service that earlier user-level efforts
    (Topaz, the Mach work at CMU) implemented; here it coexists with TCP
    on the same stack — the paper's multi-protocol motivation.  Large
    datagrams exercise IP fragmentation. *)

type t

type datagram = {
  src : Uln_addr.Ip.t;
  src_port : int;
  dst_port : int;
  data : Uln_buf.View.t;
}

type endpoint
(** A bound local port. *)

val create : Proto_env.t -> Ipv4.t -> t
(** Attach to an IP instance (registers the protocol-17 handler). *)

val bind : t -> port:int -> endpoint
(** Claim a local port.
    @raise Failure if the port is taken. *)

val unbind : t -> endpoint -> unit

val recv : endpoint -> datagram
(** Block until a datagram arrives at this port. *)

val try_recv : endpoint -> datagram option

val sendto :
  t -> src_port:int -> dst:Uln_addr.Ip.t -> dst_port:int -> Uln_buf.View.t -> unit
(** Emit one datagram (fragmenting below if needed). *)

val header_size : int
(** 8. *)

val set_unreachable_cb :
  t -> (src:Uln_addr.Ip.t -> dst:Uln_addr.Ip.t -> sport:int -> dport:int -> unit) -> unit
(** Called (instead of a silent drop) when a datagram arrives for an
    unbound port; the stack wires this to ICMP port-unreachable
    generation. *)

val deliver_unreachable : t -> src_port:int -> about:Uln_addr.Ip.t -> unit
(** An ICMP destination-unreachable quoted one of our datagrams: record
    the error against the local endpoint that sent it. *)

val last_error : endpoint -> Uln_addr.Ip.t option
(** The destination most recently reported unreachable to this
    endpoint, if any. *)

val errors_received : t -> int

val datagrams_in : t -> int
val drops : t -> int
(** Bad checksum or unbound destination port. *)
