(** Filter programs: validated instruction sequences plus the standard
    protocol filters the registry server installs. *)

type t

exception Invalid of string
(** Raised by {!of_insns} on malformed programs. *)

val max_stack : int
(** Static bound on operand-stack depth (32): {!of_insns} rejects any
    program that could push past it. *)

val of_insns : Insn.t list -> t
(** Validate and build: checks stack discipline (no underflow, at least
    one value live at every exit, depth bounded) and operand sanity.
    @raise Invalid otherwise. *)

val insns : t -> Insn.t list
val length : t -> int

val max_offset : t -> int
(** Number of packet bytes the program may need (one past the highest
    byte it can touch), so dispatch tables can reason about short
    packets. *)

val interp_cycles : t -> int
(** Worst-case interpreter cost, in CPU cycles. *)

val compiled_cycles : t -> int
(** Estimated cost of the same program after kernel code synthesis /
    compilation (the BPF answer to interpretation overhead): roughly a
    quarter of the interpreter's dispatch burden. *)

(* {2 Standard filters} *)

val tcp_conn :
  src_ip:Uln_addr.Ip.t ->
  dst_ip:Uln_addr.Ip.t ->
  src_port:int ->
  dst_port:int ->
  t
(** Match an Ethernet-encapsulated TCPv4 segment of one connection, as
    seen by the receiver: [src_*] are the remote end, [dst_*] the local
    end.  Assumes a 20-byte IP header (our stack never sends options). *)

val tcp_conn_pins :
  src_ip:Uln_addr.Ip.t ->
  dst_ip:Uln_addr.Ip.t ->
  src_port:int ->
  dst_port:int ->
  (int * int) list
(** The [(offset, byte)] pairs {!tcp_conn} pins for the same arguments,
    in offset order: its bindings as a stamp of any [tcp_conn] shape
    ({!Demux.stamp}). *)

val tcp_conn_bytes :
  src_ip:Uln_addr.Ip.t -> dst_ip:Uln_addr.Ip.t -> src_port:int -> dst_port:int -> string
(** The bytes of {!tcp_conn_pins}, in the same (offset) order: a
    [tcp_conn] shape's binding as {!Demux.stamp_bytes} takes it. *)

val udp_port : dst_ip:Uln_addr.Ip.t -> dst_port:int -> t
(** Match UDP datagrams to a local port. *)

val tcp_dst_port : dst_ip:Uln_addr.Ip.t -> dst_port:int -> t
(** Match any TCP segment to a local port (the registry server's
    listener filter, shadowed by per-connection filters). *)

val rrp_server : dst_ip:Uln_addr.Ip.t -> port:int -> t
(** Match RRP (IP protocol 81) {e requests} to a local server port
    (message type 0, server-port field). *)

val rrp_client : dst_ip:Uln_addr.Ip.t -> port:int -> t
(** Match RRP {e responses} to a local client port (message type 1,
    client-port field). *)

val arp : unit -> t
(** Match ARP frames. *)

val ip_proto : int -> t
(** Match any IP packet with the given protocol number. *)

val pp : Format.formatter -> t -> unit

val of_string : string -> (t, string) result
(** Parse a {!pp}-printed listing (one instruction per line, optional
    ["N:"] index prefixes, blank and ["#"] comment lines ignored) and
    validate it — the round trip [of_string (pp p) = p] is
    property-tested.  Lets [netlab filter-lint] read programs from
    files. *)
