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

type network = Ethernet | An1 | Wan

type impl =
  | K of Org_inkernel.t
  | S of Org_single_server.t
  | D of Org_dedicated.t
  | U of Org_userlib.t

type host = { machine : Machine.t; h_nic : Nic.t; ip : Ip.t; impl : impl }

type t = {
  sched : Sched.t;
  net : network;
  organization : Organization.t;
  the_link : Link.t;
  hosts : host array;
  tcp_params : Uln_proto.Tcp_params.t;
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
    ?quota ?(tcp_params = Uln_proto.Tcp_params.default)
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
      | Organization.In_kernel -> K (Org_inkernel.create machine h_nic ~ip ~tcp_params ())
      | Organization.Single_server variant ->
          S (Org_single_server.create machine h_nic ~ip ~variant ~tcp_params ())
      | Organization.Dedicated_servers -> D (Org_dedicated.create machine h_nic ~ip ~tcp_params ())
      | Organization.User_library ->
          U (Org_userlib.create machine h_nic ~ip ~mode:demux_mode ?quota ~tcp_params ())
    in
    { machine; h_nic; ip; impl }
  in
  { sched;
    net = network;
    organization = org;
    the_link;
    hosts = Array.init num_hosts mk_host;
    tcp_params }

let app ?cpu t ~host name =
  match t.hosts.(host).impl with
  | K k -> Org_inkernel.app ?cpu k ~name
  | S s -> Org_single_server.app s ~name
  | D d -> Org_dedicated.app d ~name
  | U u -> Org_userlib.app ?cpu u ~name

let netio t i = match t.hosts.(i).impl with U u -> Some (Org_userlib.netio u) | _ -> None

let library ?cpu t ~host name =
  match t.hosts.(host).impl with
  | U u -> Some (Org_userlib.library ?cpu u ~name)
  | K _ | S _ | D _ -> None

let registry t i =
  match t.hosts.(i).impl with U u -> Some (Org_userlib.registry u) | _ -> None

let host_stack t i =
  match t.hosts.(i).impl with
  | K k -> Some (Org_inkernel.stack k)
  | S s -> Some (Org_single_server.stack s)
  | D d -> Some (Org_dedicated.stack d)
  | U _ -> None
