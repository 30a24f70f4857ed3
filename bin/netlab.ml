(* netlab: command-line driver for the user-level networking testbed.

   Subcommands run individual experiments against any protocol
   organization and network, print the paper's tables, snapshot every
   counter of a scenario, or describe the organization structures
   (Figures 1 and 2). *)

open Cmdliner
module World = Uln_core.World
module Organization = Uln_core.Organization
module E = Uln_workload.Experiments

let org_conv =
  let parse s =
    match Organization.of_name s with
    | Some o -> Ok o
    | None -> Error (`Msg (Printf.sprintf "unknown organization %S" s))
  in
  let print ppf o = Format.pp_print_string ppf (Organization.name o) in
  Arg.conv (parse, print)

let network_conv =
  let parse s =
    match World.network_of_name s with
    | Some n -> Ok n
    | None -> Error (`Msg (Printf.sprintf "unknown network %S (ethernet|an1|wan)" s))
  in
  let print ppf n = Format.pp_print_string ppf (World.network_name n) in
  Arg.conv (parse, print)

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ] ~doc:"Stream simulator trace records (tcp, netio, ...) to stderr.")

let with_trace enabled f =
  if enabled then Uln_engine.Trace.set_sink (Some Uln_engine.Trace.stderr_sink);
  f ();
  Uln_engine.Trace.set_sink None

let org_arg =
  Arg.(
    value
    & opt org_conv Organization.User_library
    & info [ "o"; "org" ] ~docv:"ORG"
        ~doc:"Protocol organization: inkernel | server | server-msg | dedicated | userlib.")

let network_doc = "Network: ethernet (10 Mb/s), an1 (100 Mb/s) or wan (100 Mb/s, long delay)."

let network_arg =
  Arg.(
    value
    & opt network_conv World.Ethernet
    & info [ "n"; "network" ] ~docv:"NET" ~doc:network_doc)

let bytes_arg =
  Arg.(
    value & opt int 4_000_000
    & info [ "b"; "bytes" ] ~docv:"BYTES" ~doc:"Bytes to transfer.")

let size_arg default doc =
  Arg.(value & opt int default & info [ "s"; "size" ] ~docv:"BYTES" ~doc)

let throughput_cmd =
  let run org network bytes size trace =
    with_trace trace (fun () ->
        let r = Uln_workload.Bulk.measure ~total_bytes:bytes ~write_size:size ~network ~org () in
        Printf.printf "%s, %s, %d-byte writes: %.2f Mb/s (%d bytes, %d retransmissions)\n"
          (Organization.name org)
          (World.network_name network)
          size r.Uln_workload.Bulk.mbps r.Uln_workload.Bulk.bytes
          r.Uln_workload.Bulk.retransmissions)
  in
  Cmd.v
    (Cmd.info "throughput" ~doc:"Bulk-transfer throughput (one Table 2 cell).")
    Term.(
      const run $ org_arg $ network_arg $ bytes_arg
      $ size_arg 4096 "User packet size."
      $ trace_arg)

let latency_cmd =
  let run org network size trace =
    with_trace trace (fun () ->
        let r = Uln_workload.Pingpong.measure ~size ~network ~org () in
        Printf.printf "%s: avg rtt %.2f ms (min %.2f, max %.2f over %d exchanges)\n"
          (Organization.name org)
          (Uln_engine.Time.to_ms_f r.Uln_workload.Pingpong.avg_rtt)
          (Uln_engine.Time.to_ms_f r.Uln_workload.Pingpong.min_rtt)
          (Uln_engine.Time.to_ms_f r.Uln_workload.Pingpong.max_rtt)
          r.Uln_workload.Pingpong.exchanges)
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Request-response round trip (one Table 3 cell).")
    Term.(
      const run $ org_arg $ network_arg $ size_arg 512 "Payload size per direction." $ trace_arg)

let setup_cmd =
  let run org network =
    let r = Uln_workload.Setup.measure ~network ~org () in
    Printf.printf "%s: connection setup %.2f ms (avg of %d)\n" (Organization.name org)
      (Uln_engine.Time.to_ms_f r.Uln_workload.Setup.avg_setup)
      r.Uln_workload.Setup.samples
  in
  Cmd.v
    (Cmd.info "setup" ~doc:"Connection setup cost (one Table 4 cell).")
    Term.(const run $ org_arg $ network_arg)

let orgs_cmd =
  let run () = E.print_figures Format.std_formatter () in
  Cmd.v
    (Cmd.info "orgs" ~doc:"Describe the protocol organizations (Figures 1 and 2).")
    Term.(const run $ const ())

let table_arg =
  Arg.(
    required
    & pos 0 (some (enum [ ("1", 1); ("2", 2); ("3", 3); ("4", 4); ("5", 5) ])) None
    & info [] ~docv:"TABLE" ~doc:"Table number (1-5).")

let table_cmd =
  let run n =
    Uln_workload.Bench_spec.(run Format.std_formatter (find (Printf.sprintf "table%d" n)))
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Reproduce one of the paper's tables (paper values alongside).")
    Term.(const run $ table_arg)

let rrp_cmd =
  let run org network size =
    let n = 30 in
    let span =
      Uln_workload.Experiments.rrp_calls ~warmup:1 ~calls:n ~size ~reply:Fun.id ~network ~org ()
    in
    Printf.printf "%s: rrp transaction (%d B each way): %.2f ms\n" (Organization.name org) size
      (Uln_engine.Time.to_ms_f span /. float_of_int n)
  in
  Cmd.v
    (Cmd.info "rrp"
       ~doc:"Request-response transaction latency over the RRP transport (no handshake).")
    Term.(const run $ org_arg $ network_arg $ size_arg 512 "Payload size per direction.")

let snoop_cmd =
  let run org network =
    let w = World.create ~network ~org () in
    let buf = Uln_workload.Snoop.capture (World.link w) in
    let sched = World.sched w in
    let server = World.app w ~host:1 "server" in
    let client = World.app w ~host:0 "client" in
    Uln_engine.Sched.spawn sched ~name:"server" (fun () ->
        let l = server.Uln_core.Sockets.listen ~port:80 in
        let conn = l.Uln_core.Sockets.accept () in
        (match conn.Uln_core.Sockets.recv ~max:1024 with
        | Some _ -> conn.Uln_core.Sockets.send (Uln_buf.View.of_string "response payload")
        | None -> ());
        conn.Uln_core.Sockets.close ());
    Uln_engine.Sched.block_on sched (fun () ->
        match
          client.Uln_core.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80
        with
        | Error e -> failwith e
        | Ok conn ->
            conn.Uln_core.Sockets.send (Uln_buf.View.of_string "request");
            ignore (conn.Uln_core.Sockets.recv ~max:1024);
            conn.Uln_core.Sockets.close ();
            conn.Uln_core.Sockets.await_closed ());
    print_string (Buffer.contents buf)
  in
  Cmd.v
    (Cmd.info "snoop"
       ~doc:
         "Run a short request-response exchange and print every frame on the wire, decoded           (ARP, handshake, data, teardown).")
    Term.(const run $ org_arg $ network_arg)

let stats_cmd =
  let module S = Uln_workload.Snapshot in
  let module B = Uln_workload.Bench_spec in
  let module Time = Uln_engine.Time in
  let run org network cpus pairs servers conns bytes size (_, tcp_params) hold max_conns
      delay_ms loss every prefixes json trace =
    let conf =
      { S.org; network; cpus; pairs; servers; conns; bytes; size; tcp_params; hold; max_conns;
        delay_ms; loss }
    in
    let every = Option.map Time.ms every in
    let out = ref [] in
    with_trace trace (fun () ->
        S.run ?every ~prefixes conf (fun _ rows -> out := List.rev_append rows !out));
    let rows = List.rev !out in
    if json then print_string (B.json_contents "stats" rows)
    else B.print_rows Format.std_formatter rows
  in
  let preset_conv =
    let parse s =
      match S.preset s with
      | Some p -> Ok (s, p)
      | None -> Error (`Msg (Printf.sprintf "unknown preset %S" s))
    in
    Arg.conv (parse, fun ppf (s, _) -> Format.pp_print_string ppf s)
  in
  let count =
    let parse s =
      match int_of_string_opt s with
      | Some n when n >= 1 -> Ok n
      | _ -> Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
    in
    Arg.conv (parse, Format.pp_print_int)
  in
  let int_opt ?(kind = count) names default docv doc =
    Arg.(value & opt kind default & info names ~docv ~doc)
  in
  let flag names doc = Arg.(value & flag & info names ~doc) in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Run K client/server pairs, each making N connections of B bytes, and print one \
          snapshot of every counter in the world (CPUs, network I/O, registry, libraries, \
          stacks, live connections, contended locks) as name/value rows, taken after the last \
          byte is delivered and before close.")
    Term.(
      const run $ org_arg $ network_arg
      $ int_opt [ "c"; "cpus" ] 1 "N" "Simulated CPUs per host."
      $ int_opt [ "p"; "pairs" ] 1 "K" "Client/server pairs (pair p pinned to CPU p mod N)."
      $ int_opt [ "servers" ] 1 "M" "Server hosts; pair p's server runs on host 1 + p mod M."
      $ int_opt [ "conns" ] 1 "N" "Connections each pair makes, one after another."
      $ int_opt ~kind:Arg.int [ "b"; "bytes" ] 400_000 "BYTES" "Bytes per connection."
      $ int_opt [ "s"; "size" ] 4096 "BYTES" "Write size."
      $ Arg.(
          value
          & opt preset_conv ("default", Uln_proto.Tcp_params.default)
          & info [ "preset" ] ~docv:"NAME"
              ~doc:
                "TCP parameters: a Tcp_params preset (default, fast, wan, coalesced, tx_fast) \
                 or the name or preset name of any bench spec (+lease, zc-base, per_conn, ...).")
      $ flag [ "hold" ] "Hold every connection open until the snapshot."
      $ Arg.(
          value
          & opt (some count) None
          & info [ "max-conns" ] ~docv:"N" ~doc:"Per-principal connection quota.")
      $ int_opt ~kind:Arg.int [ "delay" ] 20 "MS" "One-way propagation delay on the wan network."
      $ Arg.(
          value & opt float 0.
          & info [ "loss" ] ~docv:"P" ~doc:"Independent per-frame drop probability.")
      $ Arg.(
          value
          & opt (some count) None
          & info [ "every" ] ~docv:"MS"
              ~doc:"Also snapshot every MS of simulated time while the transfer runs.")
      $ Arg.(
          value & opt_all string []
          & info [ "prefix" ] ~docv:"P"
              ~doc:"Only counters whose name starts with P (repeatable: any of them).")
      $ flag [ "json" ] "Print the rows as a BENCH-style JSON document."
      $ trace_arg)

let filter_lint_cmd =
  let open Uln_filter in
  let ip_local = Uln_addr.Ip.of_string "10.0.0.1" in
  let ip_peer = Uln_addr.Ip.of_string "10.0.0.2" in
  let builtin_suite () =
    [ ("tcp_conn", Program.tcp_conn ~src_ip:ip_peer ~dst_ip:ip_local ~src_port:1234 ~dst_port:80);
      ("tcp_listen", Program.tcp_dst_port ~dst_ip:ip_local ~dst_port:80);
      ("udp_port", Program.udp_port ~dst_ip:ip_local ~dst_port:53);
      ("rrp_server", Program.rrp_server ~dst_ip:ip_local ~port:300);
      ("rrp_client", Program.rrp_client ~dst_ip:ip_local ~port:301);
      ("arp", Program.arp ());
      ("ip_proto6", Program.ip_proto 6);
      ("raw_xchg", Program.of_insns [ Insn.Push_word 12; Insn.Push_lit 0x3333; Insn.Eq ]) ]
  in
  let budget = Uln_core.Calibration.filter_cycle_budget in
  (* One filter: verdict, certified minimum accepted length, worst-case
     cycles before/after optimization.  Returns false on anything the
     kernel would refuse to install. *)
  let lint_one ~dump name p =
    let o = Optimize.run p in
    let before = Verify.analyze p in
    let after = Verify.analyze o in
    Printf.printf "%-12s %-12s min-len %-4s wcet %4d -> %4d interp, %3d -> %3d compiled\n" name
      (Format.asprintf "%a" Verify.pp_vacuity after.Verify.vacuity)
      (match after.Verify.min_accept_len with Some n -> string_of_int n | None -> "-")
      before.Verify.wcet_interp after.Verify.wcet_interp before.Verify.wcet_compiled
      after.Verify.wcet_compiled;
    if dump then Format.printf "@[<v 2>  optimized:@ %a@]@." Program.pp o;
    match Verify.admit ~budget o with
    | Error e ->
        Printf.printf "  REJECTED: %s\n" (Format.asprintf "%a" Verify.pp_error e);
        false
    | Ok r when r.Verify.vacuity = Verify.Always_true ->
        Printf.printf "  REJECTED: filter accepts every packet\n";
        false
    | Ok _ -> true
  in
  let overlap_matrix suite =
    let rec pairs = function
      | [] -> []
      | x :: rest -> List.map (fun y -> (x, y)) rest @ pairs rest
    in
    List.fold_left
      (fun acc ((na, a), (nb, b)) ->
        match Verify.overlap_witness a b with
        | None -> acc
        | Some w ->
            if Verify.subsumes ~general:a ~specific:b then begin
              Printf.printf "note: %s subsumes %s (benign shadowing)\n" na nb;
              acc
            end
            else if Verify.subsumes ~general:b ~specific:a then begin
              Printf.printf "note: %s subsumes %s (benign shadowing)\n" nb na;
              acc
            end
            else begin
              Printf.printf "OVERLAP: %s and %s both accept the same %d-byte packet\n" na nb
                (Uln_buf.View.length w);
              acc + 1
            end)
      0 (pairs suite)
  in
  let read_file path =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let run file dump =
    let ok =
      match file with
      | None ->
          let suite = builtin_suite () in
          let oks = List.map (fun (n, p) -> lint_one ~dump n p) suite in
          let overlaps = overlap_matrix suite in
          List.for_all Fun.id oks && overlaps = 0
      | Some path -> (
          match Program.of_string (read_file path) with
          | Error e ->
              Printf.printf "%s: %s\n" path e;
              false
          | Ok p -> lint_one ~dump:true path p)
    in
    if not ok then exit 1
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Filter program to lint, in the textual form $(b,Program.pp) prints (one instruction \
             per line; optional \"N:\" index prefixes, blank and \"#\" lines ignored).  Without \
             a file, lints the built-in standard filter suite and prints its pairwise overlap \
             matrix.")
  in
  let dump_arg =
    Arg.(value & flag & info [ "d"; "dump" ] ~doc:"Also print the optimized program listing.")
  in
  Cmd.v
    (Cmd.info "filter-lint"
       ~doc:
         "Statically verify packet-filter programs: vacuity, minimum accepted packet length, \
          worst-case cycle certification against the kernel's admission budget, and optimizer \
          savings.  Exits non-zero if the kernel would refuse the filter.")
    Term.(const run $ file_arg $ dump_arg)

let proto_check_cmd =
  let module PC = Uln_protocheck.Proto_check in
  let module J = Uln_workload.Jout in
  let run json seed_unhandled seed_cycle params_src root =
    let specs =
      List.map
        (fun s -> Uln_workload.Bench_spec.(s.name, s.preset))
        (Uln_workload.Bench_spec.all_specs ())
    in
    let sources = Option.map (fun p -> (p, specs, root)) params_src in
    let findings = PC.run ~seed_unhandled ~seed_cycle ?sources () in
    if json then begin
      let row f =
        Printf.sprintf "{\"check\": %s, \"ok\": %s, \"detail\": %s}" (J.str f.PC.f_check)
          (if f.PC.f_ok then "true" else "false")
          (J.str f.PC.f_detail)
      in
      let doc = "[" ^ String.concat ",\n " (List.map row findings) ^ "]" in
      (match J.validate doc with
      | Ok () -> ()
      | Error e -> failwith ("proto-check: emitted invalid JSON: " ^ e));
      print_string doc;
      print_newline ()
    end
    else PC.print Format.std_formatter findings;
    if not (PC.ok findings) then exit 1
  in
  let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit findings as JSON.") in
  let seed_unhandled_arg =
    Arg.(
      value & flag
      & info [ "seed-unhandled" ]
          ~doc:
            "Inject an unhandled (state, event) pair into the FSM exhaustiveness check — \
             verifies the lint's failure path; the run exits non-zero.")
  in
  let seed_cycle_arg =
    Arg.(
      value & flag
      & info [ "seed-lock-cycle" ]
          ~doc:
            "Inject a rank-inverted lock-acquisition edge — verifies the lint's failure \
             path; the run exits non-zero.")
  in
  let params_arg =
    Arg.(
      value
      & opt (some file) None
      & info [ "params" ] ~docv:"FILE"
          ~doc:"Path to tcp_params.ml (enables the switch-coverage lint).")
  in
  let root_arg =
    Arg.(
      value & opt string "."
      & info [ "root" ] ~docv:"DIR" ~doc:"Directory oracle paths resolve against.")
  in
  Cmd.v
    (Cmd.info "proto-check"
       ~doc:
         "Static analysis of the protocol engines: TCP state-machine exhaustiveness and \
          runtime-dispatch conformance, declared lock-hierarchy rank monotonicity and \
          acyclicity, ablation-switch oracle/bench coverage and, with $(b,--params), the \
          dead-export and world-state lints over the source trees.  Exits non-zero on any \
          finding.")
    Term.(
      const run $ json_arg $ seed_unhandled_arg $ seed_cycle_arg $ params_arg $ root_arg)

let () =
  let doc = "user-level network protocol testbed (SIGCOMM '93 reproduction)" in
  let info = Cmd.info "netlab" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ throughput_cmd; latency_cmd; setup_cmd; orgs_cmd; table_cmd; snoop_cmd; rrp_cmd;
            stats_cmd; filter_lint_cmd; proto_check_cmd ]))
