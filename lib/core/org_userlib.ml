type t = {
  machine : Uln_host.Machine.t;
  netio : Netio.t;
  registry : Registry.t;
  ip : Uln_addr.Ip.t;
  tcp_params : Uln_proto.Tcp_params.t option;
}

let create machine nic ~ip ~mode ?quota ?tcp_params () =
  (* The demux and interrupt switches live in tcp_params with the other
     ablations; thread them to the network I/O module they configure. *)
  let p = Option.value tcp_params ~default:Uln_proto.Tcp_params.default in
  let netio =
    Netio.create machine nic ~mode ~flow_cache:p.Uln_proto.Tcp_params.flow_cache
      ~hier:p.Uln_proto.Tcp_params.hier_demux ~napi:p.Uln_proto.Tcp_params.int_suppress ()
  in
  let registry = Registry.create machine netio ~ip ?tcp_params ?quota () in
  { machine; netio; registry; ip; tcp_params }

let library ?cpu t ~name =
  Protolib.create t.machine t.netio t.registry ~name ~ip:t.ip ?tcp_params:t.tcp_params ?cpu ()

let app ?cpu t ~name = Protolib.app (library ?cpu t ~name)

let netio t = t.netio
let registry t = t.registry
