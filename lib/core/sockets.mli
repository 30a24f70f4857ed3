(** The organization-independent application interface.

    Every protocol organization — in-kernel, single-server, dedicated
    servers, user-level library — exposes the same socket-style
    operations to applications, so workloads and benchmarks are written
    once and run against any structure (the paper's "identical user
    program linked against different libraries").

    All operations must be called from simulated threads.  Costs differ
    per organization: that difference {e is} the experiment. *)

type conn = {
  send : Uln_buf.View.t -> unit;  (** blocking write of the whole view *)
  recv : max:int -> Uln_buf.View.t option;  (** [None] at end-of-stream *)
  alloc_tx : int -> Uln_buf.View.t option;
      (** zero-copy transmit: borrow a buffer of at least the given size
          from the connection's shared pool.  [None] when the
          organization has no zero-copy path (or the pool is exhausted);
          the caller then falls back to [send]. *)
  send_owned : Uln_buf.View.t -> unit;
      (** queue a buffer obtained from [alloc_tx] by reference — no
          copy; ownership passes to the stack, which returns the buffer
          to the pool once the data is acknowledged.  For views not
          allocated from the pool this behaves like [send] (charging the
          remap/copy fallback). *)
  recv_loan : max:int -> Uln_buf.View.t option;
      (** zero-copy receive: the returned view is loaned; until
          [return_loan] the bytes count against the advertised TCP
          window (a slow application back-pressures its sender).  On
          organizations without a zero-copy path this is [recv] (no loan
          to return, though calling [return_loan] stays harmless). *)
  return_loan : Uln_buf.View.t -> unit;
      (** give back a view obtained from [recv_loan], reopening the
          window it occupied. *)
  close : unit -> unit;  (** orderly release (FIN) *)
  abort : unit -> unit;  (** RST *)
  conn_state : unit -> Uln_proto.Tcp_state.t;
  conn_fsm : unit -> Uln_proto.Tcp_fsm.Packed.t;
      (** the connection's session-typed witness (shadow oracle); its
          state always agrees with [conn_state] *)
  await_closed : unit -> unit;
}

type listener = { accept : unit -> conn }

type udp_endpoint = {
  sendto : dst:Uln_addr.Ip.t -> dst_port:int -> Uln_buf.View.t -> unit;
  recv_from : unit -> Uln_addr.Ip.t * int * Uln_buf.View.t;
      (** blocking receive: source address, source port, payload *)
  udp_close : unit -> unit;
}
(** A bound connectionless endpoint — the paper's §5 case: no handshake,
    but a binding phase still authorises the identifiers, after which
    the data path bypasses any server. *)

type rrp_client = {
  rrp_call :
    dst:Uln_addr.Ip.t -> dst_port:int -> Uln_buf.View.t -> (Uln_buf.View.t, string) result;
      (** one request-response transaction (blocking; retransmits) *)
  rrp_client_close : unit -> unit;
}
(** A client endpoint of the request-response transport (RRP) — the
    paper's low-latency protocol class, living alongside TCP. *)

type rrp_service = { rrp_stop : unit -> unit }

type app = {
  app_name : string;
  app_ip : Uln_addr.Ip.t;
  connect :
    src_port:int -> dst:Uln_addr.Ip.t -> dst_port:int -> (conn, string) result;
  listen : port:int -> listener;
  udp_bind : port:int -> udp_endpoint;
      (** claim a UDP port (raises [Failure] if taken) *)
  rrp_client : unit -> (rrp_client, string) result;
      (** an RRP client endpoint on an ephemeral port, held until
          [rrp_client_close]; [Error] when every client port is held *)
  rrp_serve : port:int -> (Uln_buf.View.t -> Uln_buf.View.t) -> rrp_service;
      (** answer RRP requests on a port with at-most-once semantics *)
  exit_app : graceful:bool -> unit;
      (** terminate the application; open connections are cleaned up by
          whatever the organization prescribes (the registry server
          inherits them in the user-library organization) *)
}
