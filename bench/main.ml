(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (simulated measurements, printed against the paper's own
   numbers), plus Bechamel micro-benchmarks of the implementation's hot
   paths (real execution time).

   The table targets are data ({!Uln_workload.Bench_spec}); this driver
   adds the prose reports (figures, ablations, filteropt, micro) and
   dispatches.  Usage: main.exe [--json] [TARGET]; with no
   target, [all].  With --json each table target also writes its rows
   to BENCH_<target>.json in the working directory. *)

module Time = Uln_engine.Time
module View = Uln_buf.View
module E = Uln_workload.Experiments
module B = Uln_workload.Bench_spec

let ppf = Format.std_formatter
let section = B.section ppf
let json = ref false
let table t () = B.run ~json:!json ppf t

let run_figures () =
  section "Figures 1 and 2 (organization structure)";
  E.print_figures ppf ();
  Format.fprintf ppf "@."

let run_ablations () =
  section "Ablation: extended organizations (message driver, dedicated servers)";
  B.print_rows ppf
    (List.concat_map
       (fun s ->
         if String.starts_with ~prefix:"orgs table2" s.B.name then s.B.run s.B.preset else [])
       (B.find "orgs").B.specs);
  Format.fprintf ppf "@.";
  section "Ablation: AN1 maximum packet size (the paper's unexploited 64 KB headroom)";
  List.iter
    (fun (mtu, label) ->
      List.iter
        (fun (org, org_label) ->
          (* Wider socket buffers so a single jumbo segment cannot
             collapse the window to stop-and-wait. *)
          let tcp_params =
            { Uln_proto.Tcp_params.default with
              Uln_proto.Tcp_params.snd_buf = 65535;
              rcv_buf = 65535 }
          in
          let w =
            Uln_core.World.create ~network:Uln_core.World.An1 ~org ~an1_mtu:mtu ~tcp_params ()
          in
          let r = Uln_workload.Bulk.run ~total_bytes:4_000_000 ~write_size:4096 w in
          Format.fprintf ppf "  %-12s mtu=%-6s %6.2f Mb/s@." org_label label
            r.Uln_workload.Bulk.mbps)
        [ (Uln_core.Organization.In_kernel, "in-kernel");
          (Uln_core.Organization.User_library, "userlib") ])
    [ (1500, "1500"); (4096, "4096"); (16000, "16000") ];
  Format.fprintf ppf
    "  (the paper notes the AN1 hardware allows packets up to 64 KB while its@.";
  Format.fprintf ppf
    "   driver encapsulated at 1500 bytes; per-packet costs amortize with MTU)@.";
  Format.fprintf ppf "@.";
  section "Ablation: hardware checksumming on AN1 (paper SS4, Table 5 discussion)";
  List.iter
    (fun (costs, label) ->
      let w =
        Uln_core.World.create ~costs ~network:Uln_core.World.An1
          ~org:Uln_core.Organization.User_library ()
      in
      let r = Uln_workload.Bulk.run ~total_bytes:4_000_000 ~write_size:4096 w in
      Format.fprintf ppf "  %-22s %6.2f Mb/s@." label r.Uln_workload.Bulk.mbps)
    [ (Uln_host.Costs.r3000, "software checksum");
      (* Checksum offload removes the summing cost from both the standalone
         checksum pass and the fused copy+checksum pass (which degenerates to
         a plain copy). *)
      ({ Uln_host.Costs.r3000 with
         Uln_host.Costs.checksum_per_byte_ns = 0;
         copy_checksum_per_byte_ns = Uln_host.Costs.r3000.Uln_host.Costs.copy_per_byte_ns
       },
       "hardware checksum") ];
  Format.fprintf ppf
    "  (paper: if hardware checksum alone is sufficient, the BQI scheme has@.";
  Format.fprintf ppf "   a significant performance advantage)@.";
  Format.fprintf ppf "@.";
  section "Ablation: data-path fast paths (Table 2 cell: userlib/ethernet/4096)";
  let fastpath_cell ~label tcp_params =
    let w =
      Uln_core.World.create ~network:Uln_core.World.Ethernet
        ~org:Uln_core.Organization.User_library ~tcp_params ()
    in
    let r = Uln_workload.Bulk.run ~total_bytes:1_500_000 ~write_size:4096 w in
    Format.fprintf ppf "  %-40s %6.2f Mb/s@." label r.Uln_workload.Bulk.mbps
  in
  let d = Uln_proto.Tcp_params.default in
  fastpath_cell ~label:"baseline (fused checksum)" d;
  fastpath_cell ~label:"flow-cache demux on" { d with Uln_proto.Tcp_params.flow_cache = true };
  Format.fprintf ppf
    "  (the other fast-path switches are measured leave-one-out by the@.";
  Format.fprintf ppf "   switches target)@.";
  Format.fprintf ppf "@."

let run_filteropt () =
  let module F = Uln_filter in
  section "Filter optimizer: certified worst case and accept-path cost (simulated cycles)";
  let ip_a = Uln_addr.Ip.of_string "10.0.0.1" and ip_b = Uln_addr.Ip.of_string "10.0.0.2" in
  let tcp_pkt ~src_port ~dst_port =
    let v = View.create 54 in
    View.set_uint16 v 12 0x0800;
    View.set_uint8 v 14 0x45;
    View.set_uint8 v 23 6;
    View.set_uint32 v 26 (Uln_addr.Ip.to_int32 ip_a);
    View.set_uint32 v 30 (Uln_addr.Ip.to_int32 ip_b);
    View.set_uint16 v 34 src_port;
    View.set_uint16 v 36 dst_port;
    v
  in
  let suite =
    [ ("tcp_conn", F.Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80,
       tcp_pkt ~src_port:1234 ~dst_port:80);
      ("tcp_listen", F.Program.tcp_dst_port ~dst_ip:ip_b ~dst_port:80,
       tcp_pkt ~src_port:999 ~dst_port:80);
      ("arp", F.Program.arp (),
       (let v = View.create 42 in View.set_uint16 v 12 0x0806; v)) ]
  in
  Format.fprintf ppf "  %-12s %18s %18s %18s@." "filter" "wcet interp" "wcet compiled"
    "accept-path cycles";
  List.iter
    (fun (name, p, pkt) ->
      let o = F.Optimize.run p in
      let rb = F.Verify.analyze p and ra = F.Verify.analyze o in
      let accepted_b, cyc_b = F.Interp.run_counted p pkt in
      let accepted_a, cyc_a = F.Interp.run_counted o pkt in
      assert (accepted_b && accepted_a);
      Format.fprintf ppf "  %-12s %9d -> %5d %9d -> %5d %9d -> %5d@." name
        rb.F.Verify.wcet_interp ra.F.Verify.wcet_interp rb.F.Verify.wcet_compiled
        ra.F.Verify.wcet_compiled cyc_b cyc_a)
    suite;
  (* The dispatch-table view: several installed filters, a packet for the
     oldest entry (so every filter is tried).  Worst-case accounting
     charges the sum of all entries' WCETs; actual accounting charges
     only the executed prefixes of the misses plus the match. *)
  section "Demux dispatch cost: optimized table and executed-cycle charging";
  let mk_table ~optimize =
    let d = F.Demux.create ~mode:F.Demux.Interpreted () in
    (* arp installed first, so it is tried last (most-recent-first order) *)
    let keys =
      List.rev_map (fun (name, p, _) -> F.Demux.install_exn ~optimize d p name) (List.rev suite)
    in
    (d, keys)
  in
  let arp_pkt =
    let v = View.create 42 in
    View.set_uint16 v 12 0x0806;
    v
  in
  let unopt, unopt_keys = mk_table ~optimize:false in
  let opt, opt_keys = mk_table ~optimize:true in
  let _, cost_unopt = F.Demux.dispatch unopt arp_pkt in
  let _, cost_opt = F.Demux.dispatch opt arp_pkt in
  (* Sum of certified worst cases over the table: the charge the old
     accounting model made on every dispatch that tried all entries. *)
  let table_wcet d keys =
    List.fold_left ( + ) 0 (List.filter_map (F.Demux.wcet d) keys)
  in
  Format.fprintf ppf "  ARP packet through 3-entry table (2 misses + 1 match):@.";
  Format.fprintf ppf "    unoptimized entries, executed-cycle charge: %4d cycles@." cost_unopt;
  Format.fprintf ppf "    optimized entries,   executed-cycle charge: %4d cycles@." cost_opt;
  Format.fprintf ppf
    "    worst-case-sum charge would have been:      %4d cycles (unopt) / %4d (opt)@."
    (table_wcet unopt unopt_keys) (table_wcet opt opt_keys);
  Format.fprintf ppf "@."

(* --- Bechamel micro-benchmarks (real time, not simulated) ------------- *)

let micro_tests () =
  let open Bechamel in
  let packet = View.create 1514 in
  View.set_uint16 packet 12 0x0800;
  View.set_uint8 packet 14 0x45;
  View.set_uint8 packet 23 6;
  let ip_a = Uln_addr.Ip.of_string "10.0.0.1" and ip_b = Uln_addr.Ip.of_string "10.0.0.2" in
  let conn_prog =
    Uln_filter.Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80
  in
  let compiled = Uln_filter.Compile.compile conn_prog in
  let payload_1460 = View.create 1460 in
  let seg =
    { Uln_proto.Tcp_wire.src_port = 1234;
      dst_port = 80;
      seq = 7;
      ack = 9;
      flags = { Uln_proto.Tcp_wire.no_flags with Uln_proto.Tcp_wire.ack = true };
      wnd = 8192;
      opts = Uln_proto.Tcp_wire.no_opts;
      payload = Uln_buf.Mbuf.of_view payload_1460 }
  in
  let encoded = Uln_proto.Tcp_wire.encode ~src_ip:ip_a ~dst_ip:ip_b seg in
  let quick_bulk network org () =
    let w = Uln_core.World.create ~network ~org () in
    ignore (Uln_workload.Bulk.run ~total_bytes:100_000 ~write_size:1460 w)
  in
  let quick_pingpong () =
    ignore
      (Uln_workload.Pingpong.measure ~exchanges:5 ~size:512 ~network:Uln_core.World.Ethernet
         ~org:Uln_core.Organization.User_library ())
  in
  let quick_setup () =
    ignore
      (Uln_workload.Setup.measure ~count:2 ~network:Uln_core.World.Ethernet
         ~org:Uln_core.Organization.User_library ())
  in
  let quick_raw () = ignore (Uln_workload.Raw_xchg.run ~total_bytes:100_000 ~user_packet:1460 ()) in
  let quick_demux () =
    ignore (Uln_filter.Interp.run conn_prog packet)
  in
  [ (* hot paths *)
    Test.make ~name:"checksum-1460B" (Staged.stage (fun () -> Uln_proto.Checksum.of_view payload_1460));
    Test.make ~name:"filter-interp" (Staged.stage (fun () -> Uln_filter.Interp.run conn_prog packet));
    Test.make ~name:"filter-compiled" (Staged.stage (fun () -> compiled packet));
    Test.make ~name:"tcp-decode-1460B"
      (Staged.stage (fun () -> Uln_proto.Tcp_wire.decode ~src_ip:ip_a ~dst_ip:ip_b encoded));
    (* one per table: a representative cell of each experiment *)
    Test.make ~name:"table1-cell(raw-exchange-100KB)" (Staged.stage quick_raw);
    Test.make ~name:"table2-cell(userlib-ethernet-100KB)"
      (Staged.stage (quick_bulk Uln_core.World.Ethernet Uln_core.Organization.User_library));
    Test.make ~name:"table3-cell(pingpong-512B)" (Staged.stage quick_pingpong);
    Test.make ~name:"table4-cell(setup-x2)" (Staged.stage quick_setup);
    Test.make ~name:"table5-cell(demux-dispatch)" (Staged.stage quick_demux) ]

let run_micro () =
  let open Bechamel in
  section "Micro-benchmarks (real execution time per run)";
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Bechamel.Time.second 0.25) ~kde:(Some 1000) ()
  in
  let tests = micro_tests () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let ols =
        Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
      in
      let analyzed = Analyze.all ols Toolkit.Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ ns ] -> Format.fprintf ppf "  %-44s %12.1f ns/run@." name ns
          | _ -> Format.fprintf ppf "  %-44s (no estimate)@." name)
        analyzed)
    tests

(* The reduced-size pass over every subsystem the full targets drive,
   plus the filter-optimizer report.  Wired into the runtest alias so the
   data paths are driven end to end on every test run. *)
let run_smoke () =
  table B.smoke ();
  run_filteropt ()

(* [all] runs the table targets through the switch audit, then the
   figures and ablations, then [motivation] and [contention]. *)
let all =
  let tables = List.map (fun t -> (t.B.target, table t)) B.targets in
  let late (name, _) = List.mem name [ "motivation"; "contention" ] in
  List.filter (fun t -> not (late t)) tables
  @ [ ("figures", run_figures); ("ablations", run_ablations) ]
  @ List.filter late tables
  @ [ ("filteropt", run_filteropt); ("micro", run_micro) ]

let targets =
  all
  @ [ ("smoke", run_smoke);
      ("diffcheck", fun () -> if not (B.diffcheck ppf) then exit 1);
      ("all", fun () -> List.iter (fun (_, run) -> run ()) all) ]

let () =
  let flags, names = List.partition (fun a -> a = "--json") (List.tl (Array.to_list Sys.argv)) in
  json := flags <> [];
  let what = match names with [] -> "all" | t :: _ -> t in
  match List.assoc_opt what targets with
  | Some run -> run ()
  | None ->
      Format.eprintf "unknown argument %s (expected [--json] %s)@." what
        (String.concat "|" (List.map fst targets));
      exit 1
