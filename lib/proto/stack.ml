module Ip = Uln_addr.Ip
module Mac = Uln_addr.Mac
module View = Uln_buf.View
module Frame = Uln_net.Frame

type netif = { mtu : int; mac : Mac.t; tx : Frame.t -> unit }

type t = {
  env : Proto_env.t;
  netif : netif;
  arp : Arp.t;
  ip : Ipv4.t;
  icmp : Icmp.t;
  udp : Udp.t;
  tcp : Tcp.t;
  rrp : Rrp.t;
}

let create env ~netif ~ip_addr ?(tcp_params = Tcp_params.default) () =
  let arp = Arp.create env ~my_ip:ip_addr ~my_mac:netif.mac ~tx:netif.tx in
  let ip_tx ?(gso_size = 0) ~dst packet =
    let send_to mac =
      netif.tx
        (Frame.make ~src:netif.mac ~dst:mac ~ethertype:Frame.ethertype_ip ~gso_size packet)
    in
    if Ip.equal dst Ip.broadcast then send_to Mac.broadcast
    else
      Arp.resolve arp dst (function Some mac -> send_to mac | None -> ())
  in
  let ip = Ipv4.create env ~my_ip:ip_addr ~mtu:netif.mtu ~tx:ip_tx in
  let icmp = Icmp.create env ip in
  let udp = Udp.create env ip in
  (* Datagrams to unbound ports draw an ICMP port-unreachable; incoming
     unreachables are routed back to the offending local endpoint. *)
  Udp.set_unreachable_cb udp (fun ~src ~dst ~sport ~dport ->
      let quote = View.create 28 in
      View.set_uint8 quote 0 0x45;
      View.set_uint16 quote 2 28;
      View.set_uint8 quote 9 17;
      View.set_uint32 quote 12 (Ip.to_int32 src);
      View.set_uint32 quote 16 (Ip.to_int32 dst);
      View.set_uint16 quote 20 sport;
      View.set_uint16 quote 22 dport;
      Icmp.send_unreachable icmp ~dst:src ~code:3 ~original:quote);
  Icmp.set_unreachable_handler icmp (fun ~code:_ ~original ->
      if View.length original >= 28 && View.get_uint8 original 9 = 17 then
        Udp.deliver_unreachable udp
          ~src_port:(View.get_uint16 original 20)
          ~about:(Ip.of_int32 (View.get_uint32 original 16)));
  let tcp = Tcp.create env ip ~params:tcp_params () in
  let rrp = Rrp.create env ip in
  { env; netif; arp; ip; icmp; udp; tcp; rrp }

let input t frame =
  let ethertype = frame.Frame.ethertype in
  if ethertype = Frame.ethertype_arp then Arp.input t.arp frame
  else if ethertype = Frame.ethertype_ip then Ipv4.input t.ip frame.Frame.payload

let add_static_arp t ip mac = Arp.add_static t.arp ip mac

let begin_rx_burst t = Tcp.begin_burst t.tcp
let end_rx_burst t = Tcp.end_burst t.tcp
