type conn = {
  send : Uln_buf.View.t -> unit;
  recv : max:int -> Uln_buf.View.t option;
  alloc_tx : int -> Uln_buf.View.t option;
  send_owned : Uln_buf.View.t -> unit;
  recv_loan : max:int -> Uln_buf.View.t option;
  return_loan : Uln_buf.View.t -> unit;
  close : unit -> unit;
  abort : unit -> unit;
  conn_state : unit -> Uln_proto.Tcp_state.t;
  conn_fsm : unit -> Uln_proto.Tcp_fsm.Packed.t;
  await_closed : unit -> unit;
}

type listener = { accept : unit -> conn }

type udp_endpoint = {
  sendto : dst:Uln_addr.Ip.t -> dst_port:int -> Uln_buf.View.t -> unit;
  recv_from : unit -> Uln_addr.Ip.t * int * Uln_buf.View.t;
  udp_close : unit -> unit;
}

type rrp_client = {
  rrp_call :
    dst:Uln_addr.Ip.t -> dst_port:int -> Uln_buf.View.t -> (Uln_buf.View.t, string) result;
  rrp_client_close : unit -> unit;
}

type rrp_service = { rrp_stop : unit -> unit }

type app = {
  app_name : string;
  app_ip : Uln_addr.Ip.t;
  connect :
    src_port:int -> dst:Uln_addr.Ip.t -> dst_port:int -> (conn, string) result;
  listen : port:int -> listener;
  udp_bind : port:int -> udp_endpoint;
  rrp_client : unit -> (rrp_client, string) result;
  rrp_serve : port:int -> (Uln_buf.View.t -> Uln_buf.View.t) -> rrp_service;
  exit_app : graceful:bool -> unit;
}
