(** ICMP echo (RFC 792): just enough for ping — the canonical smoke
    test for a freshly assembled stack, and a latency microscope for
    the examples. *)

type t

val create : Proto_env.t -> Ipv4.t -> t
(** Attach to an IP instance (registers the protocol-1 handler).
    Incoming echo requests are answered automatically. *)

val ping :
  t ->
  dst:Uln_addr.Ip.t ->
  ?payload_len:int ->
  (Uln_engine.Time.span option -> unit) ->
  unit
(** Send an echo request; the callback receives the round-trip time, or
    [None] after a 5 s timeout. *)

val send_unreachable :
  t -> dst:Uln_addr.Ip.t -> code:int -> original:Uln_buf.View.t -> unit
(** Emit a type-3 destination-unreachable carrying the original IP
    header + 8 payload bytes (code 3 = port unreachable). *)

val set_unreachable_handler :
  t -> (code:int -> original:Uln_buf.View.t -> unit) -> unit
(** Called when a destination-unreachable arrives; [original] is the
    quoted IP header + 8 bytes of the datagram that caused it. *)

val unreachables_in : t -> int
val unreachables_out : t -> int
