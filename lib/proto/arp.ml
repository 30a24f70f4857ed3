module Time = Uln_engine.Time
module Timers = Uln_engine.Timers
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip
module Mac = Uln_addr.Mac
module Frame = Uln_net.Frame
module Costs = Uln_host.Costs

type pending = { mutable callbacks : (Mac.t option -> unit) list; mutable tries : int }

type t = {
  env : Proto_env.t;
  my_ip : Ip.t;
  my_mac : Mac.t;
  tx : Frame.t -> unit;
  cache : (Ip.t, Mac.t) Hashtbl.t;
  waiting : (Ip.t, pending) Hashtbl.t;
}

let packet_size = 28
let op_request = 1
let op_reply = 2
let max_tries = 3
let retry_interval = Time.sec 1

let create env ~my_ip ~my_mac ~tx =
  { env; my_ip; my_mac; tx; cache = Hashtbl.create 16; waiting = Hashtbl.create 8 }

let lookup t ip = Hashtbl.find_opt t.cache ip
let add_static t ip mac = Hashtbl.replace t.cache ip mac

let encode t ~op ~target_mac ~target_ip =
  let v = View.create packet_size in
  View.set_uint16 v 0 1 (* hardware: Ethernet *);
  View.set_uint16 v 2 Frame.ethertype_ip;
  View.set_uint8 v 4 6 (* hardware address length *);
  View.set_uint8 v 5 4 (* protocol address length *);
  View.set_uint16 v 6 op;
  let put_mac off mac = Array.iteri (fun i b -> View.set_uint8 v (off + i) b) (Mac.to_octets mac) in
  let put_ip off ip = View.set_uint32 v off (Ip.to_int32 ip) in
  put_mac 8 t.my_mac;
  put_ip 14 t.my_ip;
  put_mac 18 target_mac;
  put_ip 24 target_ip;
  Mbuf.of_view v

let send t ~op ~dst_mac ~target_mac ~target_ip =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.arp_lookup;
  t.tx
    (Frame.make ~src:t.my_mac ~dst:dst_mac ~ethertype:Frame.ethertype_arp
       (encode t ~op ~target_mac ~target_ip))

let send_request t ip =
  send t ~op:op_request ~dst_mac:Mac.broadcast ~target_mac:(Mac.of_int 0) ~target_ip:ip

let settle t ip answer =
  match Hashtbl.find_opt t.waiting ip with
  | None -> ()
  | Some p ->
      Hashtbl.remove t.waiting ip;
      List.iter (fun k -> k answer) (List.rev p.callbacks)

let rec arm_retry t ip =
  let retry () =
    match Hashtbl.find_opt t.waiting ip with
    | None -> ()
    | Some p ->
        if p.tries >= max_tries then settle t ip None
        else begin
          p.tries <- p.tries + 1;
          Proto_env.spawn_handler t.env ~name:"arp.retry" (fun () ->
              send_request t ip;
              arm_retry t ip)
        end
  in
  ignore (Timers.arm t.env.Proto_env.timers retry_interval retry)

let resolve t ip k =
  match Hashtbl.find_opt t.cache ip with
  | Some mac -> k (Some mac)
  | None -> (
      match Hashtbl.find_opt t.waiting ip with
      | Some p -> p.callbacks <- k :: p.callbacks
      | None ->
          Hashtbl.replace t.waiting ip { callbacks = [ k ]; tries = 1 };
          send_request t ip;
          arm_retry t ip)

let input t frame =
  let p = Mbuf.flatten frame.Frame.payload in
  if View.length p >= packet_size then begin
    let op = View.get_uint16 p 6 in
    let sender_mac = Mac.of_octets (Array.init 6 (fun i -> View.get_uint8 p (8 + i))) in
    let sender_ip = Ip.of_int32 (View.get_uint32 p 14) in
    let target_ip = Ip.of_int32 (View.get_uint32 p 24) in
    (* Learn the sender mapping in every valid ARP packet. *)
    if not (Ip.is_any sender_ip) then begin
      Hashtbl.replace t.cache sender_ip sender_mac;
      settle t sender_ip (Some sender_mac)
    end;
    if op = op_request && Ip.equal target_ip t.my_ip then
      send t ~op:op_reply ~dst_mac:sender_mac ~target_mac:sender_mac ~target_ip:sender_ip
  end
