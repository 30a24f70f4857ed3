module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip
module Mailbox = Uln_engine.Mailbox
module Costs = Uln_host.Costs

let proto = 17
let header_size = 8

type datagram = { src : Ip.t; src_port : int; dst_port : int; data : View.t }

type endpoint = { port : int; box : datagram Mailbox.t; mutable last_error : Ip.t option }

type t = {
  env : Proto_env.t;
  ip : Ipv4.t;
  ports : (int, endpoint) Hashtbl.t;
  mutable datagrams_in : int;
  mutable drops : int;
  mutable errors : int;
  mutable on_unbound : (src:Ip.t -> dst:Ip.t -> sport:int -> dport:int -> unit) option;
}

let input t ~src ~dst payload =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.socket_layer;
  if Mbuf.length payload < header_size then t.drops <- t.drops + 1
  else begin
    let hdr = Mbuf.flatten (Mbuf.take payload header_size) in
    let src_port = View.get_uint16 hdr 0 in
    let dst_port = View.get_uint16 hdr 2 in
    let len = View.get_uint16 hdr 4 in
    let csum = View.get_uint16 hdr 6 in
    let pseudo = Checksum.pseudo_header ~src ~dst ~proto ~len in
    let valid =
      len >= header_size
      && len <= Mbuf.length payload
      && (csum = 0 || Checksum.of_mbuf ~init:pseudo (Mbuf.take payload len) = 0)
    in
    if not valid then t.drops <- t.drops + 1
    else
      match Hashtbl.find_opt t.ports dst_port with
      | None -> (
          t.drops <- t.drops + 1;
          match t.on_unbound with
          | Some f -> f ~src ~dst ~sport:src_port ~dport:dst_port
          | None -> ())
      | Some ep ->
          t.datagrams_in <- t.datagrams_in + 1;
          let data = Mbuf.flatten (Mbuf.take (Mbuf.drop payload header_size) (len - header_size)) in
          Mailbox.send ep.box { src; src_port; dst_port; data }
  end

let create env ip =
  let t =
    { env;
      ip;
      ports = Hashtbl.create 16;
      datagrams_in = 0;
      drops = 0;
      errors = 0;
      on_unbound = None }
  in
  Ipv4.set_handler ip ~proto (fun ~src ~dst payload -> input t ~src ~dst payload);
  t

let bind t ~port =
  if Hashtbl.mem t.ports port then failwith (Printf.sprintf "Udp.bind: port %d in use" port);
  let ep = { port; box = Mailbox.create (); last_error = None } in
  Hashtbl.replace t.ports port ep;
  ep

let unbind t ep = Hashtbl.remove t.ports ep.port

let recv ep = Mailbox.recv ep.box
let try_recv ep = Mailbox.try_recv ep.box

let sendto t ~src_port ~dst ~dst_port data =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.socket_layer;
  let len = header_size + View.length data in
  let hdr = View.create header_size in
  View.set_uint16 hdr 0 src_port;
  View.set_uint16 hdr 2 dst_port;
  View.set_uint16 hdr 4 len;
  View.set_uint16 hdr 6 0;
  let m = Mbuf.prepend hdr (Mbuf.of_view data) in
  let pseudo =
    Checksum.pseudo_header ~src:(Ipv4.my_ip t.ip) ~dst ~proto ~len
  in
  let csum = Checksum.of_mbuf ~init:pseudo m in
  (* All-zero checksums are transmitted as 0xffff per the RFC. *)
  View.set_uint16 hdr 6 (if csum = 0 then 0xffff else csum);
  Ipv4.output t.ip ~proto ~dst m

let datagrams_in t = t.datagrams_in
let drops t = t.drops

let set_unreachable_cb t f = t.on_unbound <- Some f

let deliver_unreachable t ~src_port ~about =
  t.errors <- t.errors + 1;
  match Hashtbl.find_opt t.ports src_port with
  | Some ep -> ep.last_error <- Some about
  | None -> ()

let last_error ep = ep.last_error
let errors_received t = t.errors
