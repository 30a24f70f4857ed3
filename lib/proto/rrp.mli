(** RRP: a request-response transport protocol (VMTP-flavoured).

    The paper's motivating case for protocol multiplicity: "the need for
    an efficient transport for distributed systems was a factor in the
    development of request/response protocols in lieu of existing
    byte-stream protocols such as TCP ... specialized protocols achieve
    remarkably low latencies [but] do not always deliver the highest
    throughput" (§1.1, citing Birrell-Nelson RPC and VMTP).

    RRP is connectionless: one request message, one response message, no
    handshake.  Reliability is transactional — the client retransmits
    the request until a response (or gives up), and the server keeps a
    per-client transaction cache for at-most-once execution (duplicate
    requests are answered from the cache, not re-executed).

    It runs over IP protocol {!protocol_number} (81, VMTP's) and is a
    self-contained library: adding it to a stack touches no TCP/UDP
    code — the extensibility argument of §1.1. *)

type t

val protocol_number : int
(** 81. *)

val header_size : int
(** 14 bytes: client port, server port, transaction id, type, flags,
    length, checksum. *)

val create : Proto_env.t -> Ipv4.t -> t
(** Attach to an IP instance (registers the protocol-81 handler). *)

(* {2 Server side} *)

type server

val serve : t -> port:int -> (Uln_buf.View.t -> Uln_buf.View.t) -> server
(** [serve t ~port handler] answers requests to [port]: each new
    transaction runs [handler] in its own thread; duplicates are
    answered from the transaction cache.
    @raise Failure if the port is taken. *)

val stop : t -> server -> unit

(* {2 Client side} *)

val call :
  t ->
  src_port:int ->
  dst:Uln_addr.Ip.t ->
  dst_port:int ->
  Uln_buf.View.t ->
  (Uln_buf.View.t, string) result
(** One transaction: send the request, block for the response,
    retransmitting up to 4 times at growing intervals.  [Error] on
    timeout.  A [src_port] may run one transaction at a time. *)

(* {2 Statistics} *)

val requests_served : t -> int
val duplicates_answered_from_cache : t -> int
(** Retransmitted requests that were {e not} re-executed. *)

val client_retransmissions : t -> int
val calls_failed : t -> int
