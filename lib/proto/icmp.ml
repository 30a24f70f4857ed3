module Time = Uln_engine.Time
module Timers = Uln_engine.Timers
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip

let proto = 1
let type_echo_reply = 0
let type_unreachable = 3
let type_echo_request = 8
let timeout = Time.sec 5

type waiter = { sent_at : Time.t; k : Time.span option -> unit; timer : Timers.handle }

type t = {
  env : Proto_env.t;
  ip : Ipv4.t;
  pending : (int, waiter) Hashtbl.t;
  mutable next_id : int;
  mutable sent : int;
  mutable unreach_in : int;
  mutable unreach_out : int;
  mutable on_unreachable : (code:int -> original:View.t -> unit) option;
}

let encode ~typ ~id ~seq payload =
  let h = View.create 8 in
  View.set_uint8 h 0 typ;
  View.set_uint8 h 1 0;
  View.set_uint16 h 2 0;
  View.set_uint16 h 4 id;
  View.set_uint16 h 6 seq;
  let m = Mbuf.prepend h payload in
  let csum = Checksum.of_mbuf m in
  View.set_uint16 h 2 csum;
  m

let input t ~src ~dst:_ payload =
  if Mbuf.length payload >= 8 && Checksum.of_mbuf payload = 0 then begin
    let hdr = Mbuf.flatten (Mbuf.take payload 8) in
    let typ = View.get_uint8 hdr 0 in
    let id = View.get_uint16 hdr 4 in
    let seq = View.get_uint16 hdr 6 in
    let body = Mbuf.drop payload 8 in
    if typ = type_unreachable then begin
      t.unreach_in <- t.unreach_in + 1;
      match t.on_unreachable with
      | Some f -> f ~code:(View.get_uint8 hdr 1) ~original:(Mbuf.flatten body)
      | None -> ()
    end
    else if typ = type_echo_request then
      Ipv4.output t.ip ~proto ~dst:src (encode ~typ:type_echo_reply ~id ~seq body)
    else if typ = type_echo_reply then begin
      match Hashtbl.find_opt t.pending id with
      | None -> ()
      | Some w ->
          Hashtbl.remove t.pending id;
          Timers.disarm w.timer;
          w.k (Some (Time.diff (Proto_env.now t.env) w.sent_at))
    end
  end

let create env ip =
  let t =
    { env;
      ip;
      pending = Hashtbl.create 8;
      next_id = 1;
      sent = 0;
      unreach_in = 0;
      unreach_out = 0;
      on_unreachable = None }
  in
  Ipv4.set_handler ip ~proto (fun ~src ~dst payload -> input t ~src ~dst payload);
  t

let ping t ~dst ?(payload_len = 56) k =
  let id = t.next_id in
  t.next_id <- (t.next_id + 1) land 0xffff;
  let payload = View.create payload_len in
  View.fill payload 'p';
  let timer =
    Timers.arm t.env.Proto_env.timers timeout (fun () ->
        match Hashtbl.find_opt t.pending id with
        | None -> ()
        | Some w ->
            Hashtbl.remove t.pending id;
            w.k None)
  in
  Hashtbl.replace t.pending id { sent_at = Proto_env.now t.env; k; timer };
  t.sent <- t.sent + 1;
  Ipv4.output t.ip ~proto ~dst (encode ~typ:type_echo_request ~id ~seq:1 (Mbuf.of_view payload))

let send_unreachable t ~dst ~code ~original =
  t.unreach_out <- t.unreach_out + 1;
  let h = View.create 8 in
  View.set_uint8 h 0 type_unreachable;
  View.set_uint8 h 1 code;
  let m = Mbuf.append (Mbuf.of_view h) original in
  let csum = Checksum.of_mbuf m in
  View.set_uint16 h 2 csum;
  Ipv4.output t.ip ~proto ~dst m

let set_unreachable_handler t f = t.on_unreachable <- Some f
let unreachables_in t = t.unreach_in
let unreachables_out t = t.unreach_out
let echoes_sent t = t.sent
