module Sched = Uln_engine.Sched
module Rng = Uln_engine.Rng
module Ip = Uln_addr.Ip
module Mac = Uln_addr.Mac
module Machine = Uln_host.Machine
module Costs = Uln_host.Costs
module Link = Uln_net.Link
module Nic = Uln_net.Nic
module Lance = Uln_net.Lance
module An1_nic = Uln_net.An1_nic
module Demux = Uln_filter.Demux
module Tcp_params = Uln_proto.Tcp_params

type network = Ethernet | An1 | Wan

let networks = [ (Ethernet, "ethernet"); (An1, "an1"); (Wan, "wan") ]
let network_name n = List.assoc n networks
let network_of_name s = List.find_map (fun (n, name) -> if name = s then Some n else None) networks

type impl = Shared of Shared_stack.t | Library of { netio : Netio.t; registry : Registry.t }

type host = {
  machine : Machine.t;
  h_nic : Nic.t;
  ip : Ip.t;
  impl : impl;
  mutable libs : (string * Protolib.t) list; (* newest first *)
}

type t = {
  sched : Sched.t;
  net : network;
  organization : Organization.t;
  the_link : Link.t;
  hosts : host array;
  tcp_params : Tcp_params.t;
}

let sched t = t.sched
let network t = t.net
let org t = t.organization
let link t = t.the_link
let num_hosts t = Array.length t.hosts
let host_ip t i = t.hosts.(i).ip
let machine t i = t.hosts.(i).machine
let nic t i = t.hosts.(i).h_nic

let create ?(costs = Costs.r3000) ?(seed = 1) ?(demux_mode = Demux.Interpreted)
    ?quota ?(tcp_params = Tcp_params.default)
    ?(num_hosts = 2) ?(cpus = 1) ?an1_mtu ?(wan_delay = Uln_engine.Time.ms 20) ~network
    ~org () =
  let sched = Sched.create () in
  let the_link =
    match network with
    | Ethernet -> Link.ethernet sched
    | An1 -> Link.an1 sched
    | Wan ->
        (* A long-haul path abstracted as one full-duplex 100 Mb/s
           segment with Ethernet framing and a configurable one-way
           propagation delay: the high bandwidth-delay product
           environment of the WAN bench. *)
        Link.custom sched ~name:"wan" ~rate_mbps:100 ~overhead_bytes:18 ~min_payload:46
          ~propagation:wan_delay ~duplex:true
  in
  let mk_host i =
    let name = Printf.sprintf "host%d" i in
    let machine =
      Machine.create ~cpus sched ~name ~costs ~rng:(Rng.create ~seed:(seed + (i * 7919)))
    in
    let mac = Mac.of_int (0x080020000000 + i + 1) in
    let h_nic =
      match network with
      | Ethernet | Wan -> Lance.create machine the_link ~mac ()
      | An1 -> An1_nic.create machine the_link ~mac ?mtu:an1_mtu ()
    in
    let ip = Ip.make 10 0 0 (i + 1) in
    let impl =
      match org with
      | Organization.User_library ->
          (* The demux and interrupt switches live in tcp_params with
             the other ablations; thread them to the network I/O module
             they configure. *)
          let netio =
            Netio.create machine h_nic ~mode:demux_mode
              ~flow_cache:tcp_params.Tcp_params.flow_cache ~hier:tcp_params.Tcp_params.hier_demux
              ~napi:tcp_params.Tcp_params.int_suppress ()
          in
          Library { netio; registry = Registry.create machine netio ~ip ~tcp_params ?quota () }
      | shared -> Shared (Shared_stack.create shared machine h_nic ~ip ~tcp_params ())
    in
    { machine; h_nic; ip; impl; libs = [] }
  in
  { sched;
    net = network;
    organization = org;
    the_link;
    hosts = Array.init num_hosts mk_host;
    tcp_params }

let library ?cpu t ~host name =
  let h = t.hosts.(host) in
  match h.impl with
  | Library { netio; registry } ->
      let lib =
        Protolib.create h.machine netio registry ~name ~ip:h.ip ~tcp_params:t.tcp_params ?cpu ()
      in
      h.libs <- (name, lib) :: h.libs;
      Some lib
  | Shared _ -> None

let libraries t i = List.rev t.hosts.(i).libs

let app ?cpu t ~host name =
  match t.hosts.(host).impl with
  | Shared s -> Shared_stack.app ?cpu s ~name
  | Library _ -> Protolib.app (Option.get (library ?cpu t ~host name))

let netio t i = match t.hosts.(i).impl with Library l -> Some l.netio | Shared _ -> None
let registry t i = match t.hosts.(i).impl with Library l -> Some l.registry | Shared _ -> None

let host_stacks t i =
  match t.hosts.(i).impl with Shared s -> Shared_stack.stacks s | Library _ -> []
