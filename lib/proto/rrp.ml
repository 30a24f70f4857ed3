module Time = Uln_engine.Time
module Timers = Uln_engine.Timers
module Sched = Uln_engine.Sched
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip
module Costs = Uln_host.Costs

let protocol_number = 81
let header_size = 14

let type_request = 0
let type_response = 1

let max_tries = 4
let first_retry = Time.ms 300

(* Wire layout (big-endian):
   0-1  client port      8     type
   2-3  server port      9     flags (unused)
   4-7  transaction id   10-11 payload length
                         12-13 checksum (pseudo-header included) *)

let encode ~src_ip ~dst_ip ~client_port ~server_port ~tid ~typ payload =
  let h = View.create header_size in
  View.set_uint16 h 0 client_port;
  View.set_uint16 h 2 server_port;
  View.set_uint32 h 4 (Int32.of_int (tid land 0x7fffffff));
  View.set_uint8 h 8 typ;
  View.set_uint8 h 9 0;
  View.set_uint16 h 10 (View.length payload);
  View.set_uint16 h 12 0;
  let m = Mbuf.append (Mbuf.of_view h) payload in
  let pseudo =
    Checksum.pseudo_header ~src:src_ip ~dst:dst_ip ~proto:protocol_number ~len:(Mbuf.length m)
  in
  View.set_uint16 h 12 (Checksum.of_mbuf ~init:pseudo m);
  m

type decoded = {
  d_client : int;
  d_server : int;
  d_tid : int;
  d_typ : int;
  d_payload : View.t;
}

let decode ~src_ip ~dst_ip m =
  let len = Mbuf.length m in
  if len < header_size then None
  else
    let pseudo =
      Checksum.pseudo_header ~src:src_ip ~dst:dst_ip ~proto:protocol_number ~len
    in
    if Checksum.of_mbuf ~init:pseudo m <> 0 then None
    else
      let h = Mbuf.flatten (Mbuf.take m header_size) in
      let plen = View.get_uint16 h 10 in
      if header_size + plen > len then None
      else
        Some
          { d_client = View.get_uint16 h 0;
            d_server = View.get_uint16 h 2;
            d_tid = Int32.to_int (View.get_uint32 h 4) land 0x7fffffff;
            d_typ = View.get_uint8 h 8;
            d_payload = Mbuf.flatten (Mbuf.take (Mbuf.drop m header_size) plen) }

type server = {
  s_port : int;
  handler : View.t -> View.t;
  (* at-most-once transaction cache: (client ip, client port) -> last
     transaction id and its cached response *)
  cache : (int32 * int, int * View.t) Hashtbl.t;
  mutable in_flight : (int32 * int * int, unit) Hashtbl.t;
}

type pending_call = {
  c_tid : int;
  mutable c_response : View.t option;
  mutable c_wake : unit -> unit;
}

type t = {
  env : Proto_env.t;
  ip : Ipv4.t;
  servers : (int, server) Hashtbl.t;
  calls : (int, pending_call) Hashtbl.t; (* by client port *)
  mutable next_tid : int;
  mutable served : int;
  mutable dups : int;
  mutable retransmits : int;
  mutable failed : int;
}

let requests_served t = t.served
let duplicates_answered_from_cache t = t.dups
let client_retransmissions t = t.retransmits
let calls_failed t = t.failed

let charge t = Proto_env.charge t.env t.env.Proto_env.costs.Costs.socket_layer

let send t ~dst ~client_port ~server_port ~tid ~typ payload =
  Ipv4.output t.ip ~proto:protocol_number ~dst
    (encode ~src_ip:(Ipv4.my_ip t.ip) ~dst_ip:dst ~client_port ~server_port ~tid ~typ payload)

let handle_request t srv ~src d =
  let key = (Ip.to_int32 src, d.d_client) in
  match Hashtbl.find_opt srv.cache key with
  | Some (tid, cached) when tid = d.d_tid ->
      (* Retransmitted request: answer from the cache, do not re-run. *)
      t.dups <- t.dups + 1;
      send t ~dst:src ~client_port:d.d_client ~server_port:d.d_server ~tid:d.d_tid
        ~typ:type_response cached
  | _ ->
      let running = (Ip.to_int32 src, d.d_client, d.d_tid) in
      if not (Hashtbl.mem srv.in_flight running) then begin
        Hashtbl.replace srv.in_flight running ();
        (* Each new transaction gets its own handler thread. *)
        Proto_env.spawn_handler t.env ~name:"rrp.handler" (fun () ->
            charge t;
            let response = srv.handler d.d_payload in
            Hashtbl.remove srv.in_flight running;
            Hashtbl.replace srv.cache key (d.d_tid, response);
            t.served <- t.served + 1;
            send t ~dst:src ~client_port:d.d_client ~server_port:d.d_server ~tid:d.d_tid
              ~typ:type_response response)
      end

let input t ~src ~dst payload =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.socket_layer;
  match decode ~src_ip:src ~dst_ip:dst payload with
  | None -> ()
  | Some d ->
      if d.d_typ = type_request then begin
        match Hashtbl.find_opt t.servers d.d_server with
        | Some srv -> handle_request t srv ~src d
        | None -> ()
      end
      else if d.d_typ = type_response then begin
        match Hashtbl.find_opt t.calls d.d_client with
        | Some call when call.c_tid = d.d_tid ->
            if call.c_response = None then begin
              call.c_response <- Some d.d_payload;
              call.c_wake ()
            end
        | _ -> ()
      end

let create env ip =
  let t =
    { env;
      ip;
      servers = Hashtbl.create 8;
      calls = Hashtbl.create 8;
      next_tid = 1;
      served = 0;
      dups = 0;
      retransmits = 0;
      failed = 0 }
  in
  Ipv4.set_handler ip ~proto:protocol_number (fun ~src ~dst payload -> input t ~src ~dst payload);
  t

let serve t ~port handler =
  if Hashtbl.mem t.servers port then failwith (Printf.sprintf "Rrp.serve: port %d in use" port);
  let srv = { s_port = port; handler; cache = Hashtbl.create 16; in_flight = Hashtbl.create 8 } in
  Hashtbl.replace t.servers port srv;
  srv

let stop t srv = Hashtbl.remove t.servers srv.s_port

let call t ~src_port ~dst ~dst_port payload =
  if Hashtbl.mem t.calls src_port then
    Error (Printf.sprintf "client port %d already has a transaction in flight" src_port)
  else begin
    t.next_tid <- t.next_tid + 1;
    let call = { c_tid = t.next_tid; c_response = None; c_wake = (fun () -> ()) } in
    Hashtbl.replace t.calls src_port call;
    charge t;
    let transmit () =
      send t ~dst ~client_port:src_port ~server_port:dst_port ~tid:call.c_tid
        ~typ:type_request payload
    in
    transmit ();
    (* Wait for the response, retransmitting at growing intervals. *)
    let rec await tries interval =
      if call.c_response <> None then ()
      else if tries >= max_tries then ()
      else begin
        let timer =
          Timers.arm t.env.Proto_env.timers interval (fun () -> call.c_wake ())
        in
        Sched.suspend (fun wake -> call.c_wake <- wake);
        Timers.disarm timer;
        call.c_wake <- (fun () -> ());
        if call.c_response = None then begin
          t.retransmits <- t.retransmits + 1;
          transmit ();
          await (tries + 1) (Time.span_scale interval 2)
        end
      end
    in
    await 1 first_retry;
    Hashtbl.remove t.calls src_port;
    match call.c_response with
    | Some r -> Ok r
    | None ->
        t.failed <- t.failed + 1;
        Error "rrp: transaction timed out"
  end
