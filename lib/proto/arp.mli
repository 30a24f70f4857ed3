(** Address Resolution Protocol (RFC 826) over Ethernet-format links.

    Each stack instance links its own ARP engine, as applications do in
    the paper.  Resolution is asynchronous: {!resolve} calls back when a
    mapping is known, retrying the broadcast a few times before giving
    up.  Static entries support organizations in which a trusted party
    answers resolution queries instead (the registry server does this
    for user-level libraries). *)

type t

val create :
  Proto_env.t ->
  my_ip:Uln_addr.Ip.t ->
  my_mac:Uln_addr.Mac.t ->
  tx:(Uln_net.Frame.t -> unit) ->
  t

val resolve : t -> Uln_addr.Ip.t -> (Uln_addr.Mac.t option -> unit) -> unit
(** [resolve t ip k] calls [k (Some mac)] once known (immediately on
    cache hit), or [k None] after retries are exhausted (3 broadcasts,
    1 s apart). *)

val lookup : t -> Uln_addr.Ip.t -> Uln_addr.Mac.t option
(** Non-blocking cache probe. *)

val add_static : t -> Uln_addr.Ip.t -> Uln_addr.Mac.t -> unit

val input : t -> Uln_net.Frame.t -> unit
(** Process an ARP frame (request or reply); answers requests for our
    address and learns sender mappings. *)
