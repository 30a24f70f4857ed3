(** A complete stack instance: ARP + IPv4 + ICMP + UDP + TCP over one
    link attachment.

    This is "the protocol library" of the paper: the same composition is
    instantiated inside the kernel (Ultrix organization), inside the UX
    server (Mach organization), or inside each application (the paper's
    organization).  Where it runs is decided entirely by the [netif] the
    creator passes in and the {!Proto_env.t} it charges. *)

type netif = {
  mtu : int;
  mac : Uln_addr.Mac.t;
  tx : Uln_net.Frame.t -> unit;
      (** transmit a frame; called in thread context and may block *)
}

type t = private {
  env : Proto_env.t;
  netif : netif;
  arp : Arp.t;
  ip : Ipv4.t;
  icmp : Icmp.t;
  udp : Udp.t;
  tcp : Tcp.t;
  rrp : Rrp.t;  (** the request-response transport — a second protocol
                    library co-existing with TCP (paper §1.1) *)
}

val create :
  Proto_env.t ->
  netif:netif ->
  ip_addr:Uln_addr.Ip.t ->
  ?tcp_params:Tcp_params.t ->
  unit ->
  t

val input : t -> Uln_net.Frame.t -> unit
(** Hand a received frame to the stack (thread context).  Dispatches on
    the link-level type: ARP to the resolver, IP upward; other types are
    counted and dropped. *)

val add_static_arp : t -> Uln_addr.Ip.t -> Uln_addr.Mac.t -> unit
(** Pre-seed resolution (used where a trusted party answers instead of
    broadcasting, and by tests). *)

val begin_rx_burst : t -> unit
(** Bracket a batch of {!input} calls that arrived in one receive
    wakeup: TCP may then merge contiguous in-order segments and run its
    input machine once per merged run ({!Tcp.begin_burst}).  A no-op
    unless {!Tcp_params.rx_coalesce} is on. *)

val end_rx_burst : t -> unit
(** Close the bracket and flush any pending merge. *)
