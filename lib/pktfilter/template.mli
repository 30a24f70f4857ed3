(** Outbound header templates.

    The network I/O module associates a template with every send
    capability it issues.  Before transmission it matches the packet's
    header words against the template; a mismatch means the application
    tried to impersonate another connection, and the packet is refused.
    The template also carries the link-level BQI the remote peer asked
    us to stamp on this connection's packets (AN1).

    Offsets are relative to the start of the link header, as with filter
    programs. *)

type t

type field = { offset : int; mask : int; value : int }
(** One 16-bit constraint: [packet[offset..offset+1] land mask = value]. *)

val make : ?bqi:int -> field list -> t
(** [make ~bqi fields] builds a template.  [bqi] (default 0) is the
    index stamped into the link header of conforming packets. *)

val bqi : t -> int

val with_bqi : t -> bqi:int -> t
(** The same header constraints with a different outbound BQI stamp.
    Used when the peer's BQI is learned {e after} the template is
    installed: a leased channel's template starts with stamp 0 and the
    network I/O module refreshes it from the first handshake frame the
    peer's registry marks (the constraints — the impersonation check —
    are untouched). *)

val fields : t -> field list

val matches : t -> Uln_buf.View.t -> bool
(** Check a packet's wire bytes against every constraint.  Packets too
    short to contain a constrained word fail. *)

val span : t -> int
(** The wire bytes {!matches} can read: the largest [offset + 2] over the
    constraints (0 with none).  Since a constraint past the end of the
    packet fails, [matches] gives the same verdict on any prefix of at
    least [span] bytes — or on the whole packet when it is shorter. *)

val check_cycles : t -> int
(** Matching cost in CPU cycles ("the logic required ... is quite
    short"). *)

val tcp_conn :
  src_ip:Uln_addr.Ip.t ->
  dst_ip:Uln_addr.Ip.t ->
  src_port:int ->
  dst_port:int ->
  ?bqi:int ->
  unit ->
  t
(** The template the registry installs for one TCP connection, as seen
    by the sender: [src_*] local end, [dst_*] remote end.  Constrains
    ethertype, IP protocol, both addresses and both ports. *)

val rrp_endpoint :
  src_ip:Uln_addr.Ip.t -> role:[ `Client | `Server ] -> port:int -> unit -> t
(** The template for an RRP endpoint: pins the source address, the IP
    protocol (81) and the endpoint's own port field (client port for
    clients, server port for servers). *)

val udp_bound :
  src_ip:Uln_addr.Ip.t -> src_port:int -> unit -> t
(** The template for a bound UDP endpoint: datagrams may go to any
    destination, but the source address and port must be the endpoint's
    own — which is all the impersonation check needs for a
    connectionless protocol. *)

val pp : Format.formatter -> t -> unit
