module Time = Uln_engine.Time
module Stats = Uln_engine.Stats
module Costs = Uln_host.Costs
module World = Uln_core.World
module Organization = Uln_core.Organization
module Netio = Uln_core.Netio

type t2_row = {
  t2_network : string;
  t2_system : string;
  t2_size : int;
  t2_mbps : float;
  t2_paper : float option;
}

type t3_row = {
  t3_network : string;
  t3_system : string;
  t3_size : int;
  t3_rtt_ms : float;
  t3_rtt : Percentile.summary; (* p50/p99/p999 of the same exchanges, us *)
  t3_paper : float option;
}

type t4_row = {
  t4_network : string;
  t4_system : string;
  t4_setup_ms : float;
  t4_paper : float option;
}

type t5_row = { t5_interface : string; t5_us : float; t5_paper : float option }

type scale_row = {
  sc_conns : int;
  sc_scan_cycles : float;
  sc_hit_cycles : float;
  sc_hits : int;
  sc_misses : int;
}

type zc_row = {
  zc_network : string;
  zc_size : int;
  zc_mbps_copy : float;
  zc_mbps_zero_copy : float;
  zc_gain_pct : float;
}

let sys_name = function
  | Organization.In_kernel -> "ultrix"
  | Organization.Single_server `Mapped -> "mach-ux"
  | Organization.Single_server `Message -> "mach-ux-msg"
  | Organization.Dedicated_servers -> "dedicated"
  | Organization.User_library -> "userlib"

let systems_for network =
  match network with
  | World.Ethernet ->
      [ Organization.In_kernel; Organization.Single_server `Mapped; Organization.User_library ]
  | World.An1 -> [ Organization.In_kernel; Organization.User_library ]
  | World.Wan -> [ Organization.User_library ]

(* The zero-copy ablation runs the paper's system with the loaning data
   path switched on; everything else about the world is identical. *)
let zc_params = { Uln_proto.Tcp_params.default with Uln_proto.Tcp_params.zero_copy = true }

(* --- Table 1 ---------------------------------------------------------- *)

let table1 ?(quick = false) () =
  let total_bytes = if quick then 400_000 else 4_000_000 in
  List.map (fun s -> Raw_xchg.run ~total_bytes ~user_packet:s ()) [ 512; 1024; 2048; 4096 ]

(* --- Tables 2 and 3 ---------------------------------------------------- *)

(* One series per (network, system): the paper's organizations, then
   the zero-copy ablation of the paper's system (no paper column: the
   measured system always copied). *)
let series () =
  List.concat_map
    (fun network ->
      List.map
        (fun org -> (network, sys_name org, org, Uln_proto.Tcp_params.default))
        (systems_for network)
      @ [ (network, "userlib-zc", Organization.User_library, zc_params) ])
    [ World.Ethernet; World.An1 ]

let t2_sizes = [ 512; 1024; 2048; 4096 ]
let t3_sizes = [ 1; 512; 1460 ]

let t2_cell ?(total_bytes = 4_000_000) ~tcp_params (network, system, org) size =
  let r = Bulk.measure ~total_bytes ~tcp_params ~write_size:size ~network ~org () in
  { t2_network = World.network_name network;
    t2_system = system;
    t2_size = size;
    t2_mbps = r.Bulk.mbps;
    t2_paper = Paper_ref.lookup2 Paper_ref.table2 (World.network_name network) system size }

let t3_cell ?(exchanges = 50) ~tcp_params (network, system, org) size =
  let r = Pingpong.measure ~exchanges ~tcp_params ~size ~network ~org () in
  { t3_network = World.network_name network;
    t3_system = system;
    t3_size = size;
    t3_rtt_ms = Time.to_ms_f r.Pingpong.avg_rtt;
    t3_rtt = r.Pingpong.rtt;
    t3_paper = Paper_ref.lookup2 Paper_ref.table3 (World.network_name network) system size }

let table2 ?(quick = false) () =
  (* Quick mode still needs enough bytes to get past slow start and the
     initial Nagle/delayed-ACK transient. *)
  let total_bytes = if quick then 1_500_000 else 4_000_000 in
  List.concat_map
    (fun (network, system, org, tcp_params) ->
      List.map (t2_cell ~total_bytes ~tcp_params (network, system, org)) t2_sizes)
    (series ())

let table3 ?(quick = false) () =
  let exchanges = if quick then 10 else 50 in
  List.concat_map
    (fun (network, system, org, tcp_params) ->
      List.map (t3_cell ~exchanges ~tcp_params (network, system, org)) t3_sizes)
    (series ())

(* --- Table 4 ---------------------------------------------------------- *)

let table4 ?(quick = false) () =
  let count = if quick then 3 else 10 in
  let cell network org =
    let r = Setup.measure ~count ~network ~org () in
    let paper =
      List.fold_left
        (fun acc (n, s, v) ->
          if n = World.network_name network && s = sys_name org then Some v else acc)
        None Paper_ref.table4
    in
    { t4_network = World.network_name network;
      t4_system = sys_name org;
      t4_setup_ms = Time.to_ms_f r.Setup.avg_setup;
      t4_paper = paper }
  in
  [ cell World.Ethernet Organization.In_kernel;
    cell World.An1 Organization.In_kernel;
    cell World.Ethernet (Organization.Single_server `Mapped);
    cell World.Ethernet Organization.User_library;
    cell World.An1 Organization.User_library ]

let setup_breakdown () =
  let modelled = Setup.breakdown_userlib () in
  List.map2
    (fun (label, span) (_, paper_ms) -> (label, Time.to_ms_f span, Some paper_ms))
    modelled Paper_ref.setup_breakdown

(* --- Table 5 ---------------------------------------------------------- *)

let demux_cost ?(flow_cache = false) ~network ~mode () =
  let tcp_params = { Uln_proto.Tcp_params.default with Uln_proto.Tcp_params.flow_cache } in
  let w = World.create ~network ~org:Organization.User_library ~demux_mode:mode ~tcp_params () in
  let _ = Bulk.run ~total_bytes:400_000 ~write_size:1460 w in
  let netio = Option.get (World.netio w 1) in
  (Stats.Dist.mean (Netio.demux_cost_dist netio), Netio.hw_demuxed netio, Netio.sw_demuxed netio)

let table5 () =
  let sw_interp, _, _ =
    demux_cost ~network:World.Ethernet ~mode:Uln_filter.Demux.Interpreted ()
  in
  let sw_compiled, _, _ =
    demux_cost ~network:World.Ethernet ~mode:Uln_filter.Demux.Compiled ()
  in
  let sw_cached, _, _ =
    demux_cost ~flow_cache:true ~network:World.Ethernet ~mode:Uln_filter.Demux.Interpreted ()
  in
  (* On AN1 data packets take the hardware path: isolate its mean. *)
  let c = Costs.r3000 in
  let hw = Time.to_us_f c.Costs.demux_hardware in
  [ { t5_interface = "LANCE Ethernet (software filter, interpreted)";
      t5_us = sw_interp;
      t5_paper = Some 52.0 };
    { t5_interface = "AN1 (hardware BQI)"; t5_us = hw; t5_paper = Some 50.0 };
    { t5_interface = "LANCE Ethernet (software filter, compiled) [ablation]";
      t5_us = sw_compiled;
      t5_paper = None };
    { t5_interface = "LANCE Ethernet (software filter + flow cache) [ablation]";
      t5_us = sw_cached;
      t5_paper = None } ]

(* --- connection scaling (flow-cache ablation) -------------------------- *)

(* Two identical filter tables, n installed connection filters each, one
   with the flow cache: dispatch the same per-flow packets through both,
   check the endpoints agree, and compare mean dispatch cycles.  The
   linear scan costs O(table size); warm cache hits are flat. *)
let scale ?(conns = [ 1; 4; 16; 64; 256; 1024 ]) () =
  let module F = Uln_filter in
  let module View = Uln_buf.View in
  let module Ip = Uln_addr.Ip in
  let src_ip = Ip.make 10 0 0 2 and dst_ip = Ip.make 10 0 0 1 in
  let port i = 1024 + i in
  let pkt i =
    let v = View.create 54 in
    View.set_uint16 v 12 0x0800;
    View.set_uint8 v 14 0x45;
    View.set_uint8 v 23 6;
    View.set_uint32 v 26 (Ip.to_int32 src_ip);
    View.set_uint32 v 30 (Ip.to_int32 dst_ip);
    View.set_uint16 v 34 (port i);
    View.set_uint16 v 36 80;
    v
  in
  let row n =
    let mk flow_cache =
      let d = F.Demux.create ~mode:F.Demux.Interpreted ~flow_cache () in
      for i = 0 to n - 1 do
        ignore
          (F.Demux.install_exn d
             (F.Program.tcp_conn ~src_ip ~dst_ip ~src_port:(port i) ~dst_port:80)
             i)
      done;
      d
    in
    let scan_tbl = mk false and cache_tbl = mk true in
    (* Warm the cache: the first packet of each flow misses and installs. *)
    for i = 0 to n - 1 do
      ignore (F.Demux.dispatch cache_tbl (pkt i))
    done;
    let rounds = Stdlib.max 1 (1024 / n) in
    let scan_cycles = ref 0 and hit_cycles = ref 0 and count = ref 0 in
    for _ = 1 to rounds do
      for i = 0 to n - 1 do
        let p = pkt i in
        let e_scan, c_scan = F.Demux.dispatch scan_tbl p in
        let e_hit, c_hit = F.Demux.dispatch cache_tbl p in
        if e_scan <> e_hit then failwith "scale: flow cache and linear scan disagree";
        scan_cycles := !scan_cycles + c_scan;
        hit_cycles := !hit_cycles + c_hit;
        incr count
      done
    done;
    let st = F.Demux.cache_stats cache_tbl in
    { sc_conns = n;
      sc_scan_cycles = float_of_int !scan_cycles /. float_of_int !count;
      sc_hit_cycles = float_of_int !hit_cycles /. float_of_int !count;
      sc_hits = st.F.Demux.hits;
      sc_misses = st.F.Demux.misses }
  in
  List.map row conns

(* --- sparse-sweep scale: the 64k-1M-connection control plane ----------- *)

type sparse_row = {
  sp_conns : int;
  sp_miss_p : Percentile.summary;  (** hier miss-path dispatch, cycles *)
  sp_linear_cycles : float;  (** sampled linear-scan miss, cycles *)
  sp_setup_p : Percentile.summary;  (** live connect latency, us *)
  sp_delivery_p : Percentile.summary;  (** live one-way delivery latency, us *)
  sp_shards : int;
  sp_lock_contended : int;  (** shard-lock acquisitions that waited *)
}

(* Background connection [i]'s 4-tuple, as the server sees it: a remote
   end on the synthetic 10.77/16 network, so live traffic (10.0.0.x)
   can never match a background filter, with the 20-bit flow id spread
   over the third address byte and the remote port; the local end is
   port 80. *)
let sparse_remote i = (Uln_addr.Ip.make 10 77 ((i lsr 16) land 0xff) 2, i land 0xffff)

(* Miss-path probe costs on a standalone table of [n] connection
   filters, each a stamp of one tcp_conn shape: the hierarchical path
   sampled densely enough for tail percentiles, the linear scan sampled
   sparsely (each sample IS an O(n) walk). *)
let sparse_probe n =
  let module F = Uln_filter in
  let module View = Uln_buf.View in
  let module Ip = Uln_addr.Ip in
  let dst_ip = Ip.make 10 0 0 1 in
  let d = F.Demux.create ~mode:F.Demux.Interpreted ~hier:true () in
  let sh =
    match
      F.Demux.shape d (F.Program.tcp_conn ~src_ip:Ip.any ~dst_ip:Ip.any ~src_port:0 ~dst_port:0)
    with
    | Ok sh -> sh
    | Error _ -> failwith "sparse_probe: tcp_conn has no shape"
  in
  for i = 0 to n - 1 do
    let src_ip, src_port = sparse_remote i in
    match
      F.Demux.stamp_bytes d sh (F.Program.tcp_conn_bytes ~src_ip ~dst_ip ~src_port ~dst_port:80) i
    with
    | Ok _ -> ()
    | Error e -> failwith (Format.asprintf "sparse_probe: %a" F.Demux.pp_stamp_error e)
  done;
  let pkt i =
    let v = View.create 54 in
    View.set_uint16 v 12 0x0800;
    View.set_uint8 v 14 0x45;
    View.set_uint8 v 23 6;
    View.set_uint8 v 26 10;
    View.set_uint8 v 27 77;
    View.set_uint8 v 28 ((i lsr 16) land 0xff);
    View.set_uint8 v 29 2;
    View.set_uint32 v 30 (Ip.to_int32 dst_ip);
    View.set_uint16 v 34 (i land 0xffff);
    View.set_uint16 v 36 80;
    v
  in
  let check i = function
    | Some j when j = i -> ()
    | _ -> failwith "sparse_probe: lookup missed its flow"
  in
  let samples = Stdlib.min n 1024 in
  let stride = Stdlib.max 1 (n / samples) in
  let hier_cycles =
    Array.init samples (fun k ->
        let i = k * stride mod n in
        let e, c = F.Demux.dispatch d (pkt i) in
        check i e;
        float_of_int c)
  in
  F.Demux.set_hier d false;
  let lin_samples = Stdlib.max 4 ((1 lsl 22) / n) in
  let lin_total = ref 0 in
  for k = 0 to lin_samples - 1 do
    let i = k * (n / lin_samples) mod n in
    let e, c = F.Demux.dispatch d (pkt i) in
    check i e;
    lin_total := !lin_total + c
  done;
  (Percentile.summarize hier_cycles, float_of_int !lin_total /. float_of_int lin_samples)

(* Pre-populate host [host]'s network I/O module with [n] background
   connection filters, each a stamp of the host's one connection-filter
   shape, as a live connection's.  The synthetic flows live on 10.77/16
   so live traffic never matches them — they only weigh down the miss
   path. *)
let populate_background w ~host n =
  let module Registry = Uln_core.Registry in
  let netio = Option.get (World.netio w host) in
  let dom = Registry.domain (Option.get (World.registry w host)) in
  let local_ip = World.host_ip w host in
  let ch = Netio.create_channel netio ~caller:dom ~owner:dom ~use_bqi:false in
  for i = 0 to n - 1 do
    let remote_ip, remote_port = sparse_remote i in
    ignore
      (Netio.add_stamped_filter netio ~caller:dom ch ~remote_ip ~remote_port ~local_ip
         ~local_port:80)
  done

(* Live setup/delivery latency against a server host whose demux already
   carries [n] connections: the hierarchical miss path and the sharded
   registry are on (the linear scan at 64k+ entries costs ~10^8 cycles
   per packet — handshake timers would fire before the SYN cleared the
   table), so the linear comparison comes from {!sparse_probe}. *)
let sparse_live ?(conns = 96) ?(msgs_per_conn = 4)
    ?(tcp_params =
      { Uln_proto.Tcp_params.fast with
        Uln_proto.Tcp_params.hier_demux = true;
        shard_registry = true }) n =
  let module Sched = Uln_engine.Sched in
  let module Sockets = Uln_core.Sockets in
  let module Registry = Uln_core.Registry in
  let module F = Uln_filter in
  let module View = Uln_buf.View in
  let module Ip = Uln_addr.Ip in
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library ~tcp_params ~cpus:4 ()
  in
  let sched = World.sched w in
  let reg1 = Option.get (World.registry w 1) in
  populate_background w ~host:1 n;
  let port = 7000 in
  let setup = Array.make conns 0. in
  let delivery = Array.make (conns * msgs_per_conn) 0. in
  let send_stamp = ref Time.zero in
  let mi = ref 0 in
  let srv = World.app w ~host:1 "sparse-srv" in
  Sched.spawn sched ~name:"sparse-srv" (fun () ->
      let l = srv.Sockets.listen ~port in
      for _ = 1 to conns do
        let c = l.Sockets.accept () in
        let rec echo k =
          if k < msgs_per_conn then
            match c.Sockets.recv ~max:512 with
            | None -> ()
            | Some v ->
                delivery.(!mi) <-
                  Time.to_us_f (Time.diff (Sched.now sched) !send_stamp);
                incr mi;
                c.Sockets.send v;
                echo (k + 1)
        in
        echo 0;
        c.Sockets.close ()
      done);
  let cli = World.app w ~host:0 "sparse-cli" in
  Sched.block_on sched (fun () ->
      for c = 0 to conns - 1 do
        let t0 = Sched.now sched in
        match
          cli.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:port
        with
        | Error e -> failwith ("sparse_live connect: " ^ e)
        | Ok conn ->
            setup.(c) <- Time.to_us_f (Time.diff (Sched.now sched) t0);
            for _ = 1 to msgs_per_conn do
              send_stamp := Sched.now sched;
              conn.Sockets.send (View.create 256);
              match conn.Sockets.recv ~max:512 with
              | Some _ -> ()
              | None -> failwith "sparse_live: early end of stream"
            done;
            conn.Sockets.close ()
      done);
  let reg0 = Option.get (World.registry w 0) in
  let contended =
    List.fold_left
      (fun acc (s : Registry.shard_stats) -> acc + s.Registry.ss_lock_contended)
      0
      (Registry.shard_stats reg0 @ Registry.shard_stats reg1)
  in
  ( Percentile.summarize setup,
    Percentile.summarize (Array.sub delivery 0 !mi),
    Registry.num_shards reg0,
    contended )

let scale_sparse ?(pops = [ 65536; 262144; 1048576 ]) () =
  List.map
    (fun n ->
      let miss_p, linear = sparse_probe n in
      let setup_p, delivery_p, shards, contended = sparse_live n in
      { sp_conns = n;
        sp_miss_p = miss_p;
        sp_linear_cycles = linear;
        sp_setup_p = setup_p;
        sp_delivery_p = delivery_p;
        sp_shards = shards;
        sp_lock_contended = contended })
    pops

(* --- zero-copy ablation (write-size scaling, userlib) ------------------ *)

(* The loaning data path against the copying oracle, across user packet
   sizes: same worlds, same workload, only [Tcp_params.zero_copy]
   differs.  The gain grows with packet size as the per-byte copy work
   eliminated dominates the fixed per-segment costs. *)
let zero_copy_ablation ?(quick = false) ?(sizes = [ 512; 1024; 2048; 4096 ]) () =
  let total_bytes = if quick then 400_000 else 4_000_000 in
  List.concat_map
    (fun network ->
      List.map
        (fun size ->
          let run tcp_params =
            (Bulk.measure ~total_bytes ~tcp_params ~write_size:size ~network
               ~org:Organization.User_library ())
              .Bulk.mbps
          in
          let copy = run Uln_proto.Tcp_params.default in
          let zc = run zc_params in
          { zc_network = World.network_name network;
            zc_size = size;
            zc_mbps_copy = copy;
            zc_mbps_zero_copy = zc;
            zc_gain_pct = (zc -. copy) /. copy *. 100.0 })
        sizes)
    [ World.Ethernet; World.An1 ]

(* --- printing --------------------------------------------------------- *)

let pp_paper ppf = function
  | Some v -> Format.fprintf ppf "%6.1f" v
  | None -> Format.fprintf ppf "     -"

let print_breakdown ppf rows =
  Format.fprintf ppf "@[<v>Setup breakdown, user-library organization (ms)@,";
  List.iter
    (fun (label, ms, paper) ->
      Format.fprintf ppf "  %-64s %6.2f %a@," label ms pp_paper paper)
    rows;
  Format.fprintf ppf "@]"

(* --- request-response transport (motivation, paper SS1.1) ----------- *)

(* Back-to-back RRP transactions from host 0 to a server on host 1:
   [warmup] untimed calls first, then the span of [calls] timed ones. *)
let rrp_calls ?(warmup = 0) ~calls ~size ~reply ~network ~org () =
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let w = World.create ~network ~org () in
  let server = World.app w ~host:1 "rrp-server" and client = World.app w ~host:0 "rrp-client" in
  Sched.block_on (World.sched w) (fun () ->
      let _svc = server.Sockets.rrp_serve ~port:300 reply in
      let cl = Result.fold ~ok:Fun.id ~error:failwith (client.Sockets.rrp_client ()) in
      let payload = Uln_buf.View.create size in
      let call () = ignore (cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 payload) in
      for _ = 1 to warmup do
        call ()
      done;
      let t0 = Sched.now (World.sched w) in
      for _ = 1 to calls do
        call ()
      done;
      Time.diff (Sched.now (World.sched w)) t0)

let print_figures ppf () =
  Format.fprintf ppf "@[<v>Figure 1: alternative organizations of protocols@,@,";
  List.iter (fun o -> Format.fprintf ppf "%a@," Organization.describe o) Organization.all;
  Format.fprintf ppf "@,%a@]" Organization.describe_userlib ()
