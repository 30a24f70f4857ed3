(* netlab: command-line driver for the user-level networking testbed.

   Subcommands run individual experiments against any protocol
   organization and network, print the paper's tables, or describe the
   organization structures (Figures 1 and 2). *)

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
  let parse = function
    | "ethernet" -> Ok World.Ethernet
    | "an1" -> Ok World.An1
    | "wan" -> Ok World.Wan
    | s -> Error (`Msg (Printf.sprintf "unknown network %S (ethernet|an1|wan)" s))
  in
  let print ppf n =
    Format.pp_print_string ppf (match n with World.Ethernet -> "ethernet" | World.An1 -> "an1" | World.Wan -> "wan")
  in
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

let network_arg =
  Arg.(
    value
    & opt network_conv World.Ethernet
    & info [ "n"; "network" ] ~docv:"NET" ~doc:"Network: ethernet (10 Mb/s) or an1 (100 Mb/s).")

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
          (match network with World.Ethernet -> "ethernet" | World.An1 -> "an1" | World.Wan -> "wan")
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
    let w = World.create ~network ~org () in
    let server = World.app w ~host:1 "rrp-server" in
    let client = World.app w ~host:0 "rrp-client" in
    let ms =
      Uln_engine.Sched.block_on (World.sched w) (fun () ->
          let _svc = server.Uln_core.Sockets.rrp_serve ~port:300 (fun req -> req) in
          let cl = client.Uln_core.Sockets.rrp_client () in
          let payload = Uln_buf.View.create size in
          ignore (cl.Uln_core.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 payload);
          let t0 = Uln_engine.Sched.now (World.sched w) in
          let n = 30 in
          for _ = 1 to n do
            ignore (cl.Uln_core.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 payload)
          done;
          Uln_engine.Time.to_ms_f
            (Uln_engine.Time.diff (Uln_engine.Sched.now (World.sched w)) t0)
          /. float_of_int n)
    in
    Printf.printf "%s: rrp transaction (%d B each way): %.2f ms
" (Organization.name org) size ms
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

let bufstats_cmd =
  let module Protolib = Uln_core.Protolib in
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let module Time = Uln_engine.Time in
  let module View = Uln_buf.View in
  let run network bytes size copying =
    let tcp_params =
      { Uln_proto.Tcp_params.default with Uln_proto.Tcp_params.zero_copy = not copying }
    in
    let w = World.create ~tcp_params ~network ~org:Organization.User_library () in
    let sched = World.sched w in
    let source_lib =
      match World.library w ~host:0 "source" with Some l -> l | None -> assert false
    in
    let sink_lib =
      match World.library w ~host:1 "sink" with Some l -> l | None -> assert false
    in
    let source = Protolib.app source_lib and sink = Protolib.app sink_lib in
    Printf.printf "bufstats: userlib %s data path, %s, %d bytes in %d-byte writes\n"
      (if copying then "copying" else "zero-copy")
      (match network with World.Ethernet -> "ethernet" | World.An1 -> "an1" | World.Wan -> "wan")
      bytes size;
    Printf.printf "%8s  %-6s  %11s  %9s  %9s  %9s  %7s  %7s\n" "t(ms)" "host" "pool use/cap"
      "exhausted" "loaned(B)" "doorbells" "batches" "sync-fb";
    let finished = ref false in
    let last = ref None in
    (* Sample both libraries' buffer accounting on a fixed simulated-time
       cadence while the transfer runs. *)
    Sched.spawn sched ~name:"sampler" (fun () ->
        let rec go () =
          if not !finished then begin
            Sched.sleep sched (Time.ms 100);
            let line name lib =
              match Protolib.bufstats lib with
              | [] -> ()
              | s :: _ ->
                  if s.Protolib.bs_tx_doorbells > 0 then last := Some (name, s);
                  Printf.printf "%8.1f  %-6s  %8d/%-3d  %9d  %9d  %9d  %7d  %7d\n"
                    (Time.to_ms_f (Time.diff (Sched.now sched) Time.zero))
                    name s.Protolib.bs_pool_in_use s.Protolib.bs_pool_capacity
                    s.Protolib.bs_pool_exhausted s.Protolib.bs_loaned_bytes
                    s.Protolib.bs_tx_doorbells s.Protolib.bs_tx_batches
                    s.Protolib.bs_tx_sync_fallbacks
            in
            line "source" source_lib;
            line "sink" sink_lib;
            go ()
          end
        in
        go ());
    let t_end = ref Time.zero in
    Sched.spawn sched ~name:"sink" (fun () ->
        let l = sink.Sockets.listen ~port:5001 in
        let conn = l.Sockets.accept () in
        let rec drain () =
          match conn.Sockets.recv_loan ~max:65536 with
          | None -> ()
          | Some v ->
              conn.Sockets.return_loan v;
              drain ()
        in
        drain ();
        (* Data is fully delivered: stop the sampler here so the
           connection-teardown timers (TIME_WAIT runs for minutes of
           simulated time) do not flood the output with idle samples. *)
        t_end := Sched.now sched;
        finished := true;
        conn.Sockets.close ());
    let t0 = ref Time.zero in
    Sched.block_on sched (fun () ->
        match source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:5001 with
        | Error e -> failwith ("bufstats connect: " ^ e)
        | Ok conn ->
            t0 := Sched.now sched;
            let chunk = View.create size in
            View.fill chunk 'b';
            for _ = 1 to (bytes + size - 1) / size do
              match conn.Sockets.alloc_tx size with
              | Some owned ->
                  View.fill owned 'b';
                  conn.Sockets.send_owned owned
              | None -> conn.Sockets.send chunk
            done;
            conn.Sockets.close ();
            conn.Sockets.await_closed ());
    (match !last with
    | Some (name, s) when s.Protolib.bs_tx_batch_hist <> [] ->
        Printf.printf "tx batch histogram (%s): %s\n" name
          (String.concat " "
             (List.map
                (fun (sz, n) -> Printf.sprintf "%dx%d" sz n)
                s.Protolib.bs_tx_batch_hist))
    | _ -> ());
    let secs = Time.to_sec_f (Time.diff !t_end !t0) in
    if secs > 0. then
      Printf.printf "throughput: %.2f Mb/s\n" (float_of_int bytes *. 8. /. secs /. 1e6)
  in
  let copying_arg =
    Arg.(
      value & flag
      & info [ "copying" ]
          ~doc:"Run the copying oracle instead of the zero-copy data path (for comparison).")
  in
  Cmd.v
    (Cmd.info "bufstats"
       ~doc:
         "Run a user-library bulk transfer and stream its buffer accounting: transmit-pool \
          occupancy and exhaustion, outstanding receive loans, and the doorbell-coalescing \
          batch histogram.")
    Term.(
      const run $ network_arg
      $ Arg.(value & opt int 2_000_000 & info [ "b"; "bytes" ] ~docv:"BYTES" ~doc:"Bytes to transfer.")
      $ size_arg 4096 "User packet size."
      $ copying_arg)

let rxstats_cmd =
  let module Protolib = Uln_core.Protolib in
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let module View = Uln_buf.View in
  let run network bytes size per_packet =
    let tcp_params =
      if per_packet then Uln_proto.Tcp_params.fast else Uln_proto.Tcp_params.coalesced
    in
    let w = World.create ~tcp_params ~network ~org:Organization.User_library () in
    let sched = World.sched w in
    let sink_lib =
      match World.library w ~host:1 "sink" with Some l -> l | None -> assert false
    in
    let source =
      match World.library w ~host:0 "source" with
      | Some l -> Protolib.app l
      | None -> assert false
    in
    let sink = Protolib.app sink_lib in
    Printf.printf "rxstats: userlib %s receive path, %s, %d bytes in %d-byte writes\n"
      (if per_packet then "per-packet" else "coalesced")
      (match network with World.Ethernet -> "ethernet" | World.An1 -> "an1" | World.Wan -> "wan")
      bytes size;
    (* Capture the receiver's statistics after the payload has drained
       but before close detaches the connection (the GRO/ACK counters
       are summed over connections still open). *)
    let stats = ref None in
    Sched.spawn sched ~name:"sink" (fun () ->
        let l = sink.Sockets.listen ~port:5001 in
        let conn = l.Sockets.accept () in
        let got = ref 0 in
        let rec drain () =
          match conn.Sockets.recv ~max:65536 with
          | None -> ()
          | Some v ->
              got := !got + View.length v;
              drain ()
        in
        drain ();
        stats := Some (Protolib.rxstats sink_lib, !got);
        conn.Sockets.close ());
    Sched.block_on sched (fun () ->
        match source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:5001 with
        | Error e -> failwith ("rxstats connect: " ^ e)
        | Ok conn ->
            let chunk = View.create size in
            View.fill chunk 'r';
            for _ = 1 to (bytes + size - 1) / size do
              conn.Sockets.send chunk
            done;
            conn.Sockets.close ();
            conn.Sockets.await_closed ());
    match !stats with
    | None -> failwith "rxstats: transfer did not complete"
    | Some (s, got) ->
        Printf.printf "delivered:        %d bytes\n" got;
        Printf.printf "rx wakeups:       %d (%d frames, %.2f frames/wakeup)\n" s.Protolib.rs_wakeups
          s.Protolib.rs_frames
          (if s.Protolib.rs_wakeups = 0 then 0.
           else float_of_int s.Protolib.rs_frames /. float_of_int s.Protolib.rs_wakeups);
        Printf.printf "burst histogram:  %s\n"
          (match s.Protolib.rs_burst_hist with
          | [] -> "(empty)"
          | h ->
              String.concat " "
                (List.map (fun (sz, n) -> Printf.sprintf "%dx%d" sz n) h));
        Printf.printf "gro:              %d segments merged into %d flushes\n"
          s.Protolib.rs_gro_merged s.Protolib.rs_gro_flushes;
        Printf.printf "acks elided:      %d\n" s.Protolib.rs_acks_elided;
        Printf.printf "napi:             %d interrupts, %d polls, %d polled frames\n"
          s.Protolib.rs_interrupts s.Protolib.rs_polls s.Protolib.rs_polled_frames;
        Printf.printf "ring:             %d early drops, %d overflows\n" s.Protolib.rs_ring_drops
          s.Protolib.rs_ring_overflows
  in
  let per_packet_arg =
    Arg.(
      value & flag
      & info [ "per-packet" ]
          ~doc:
            "Run the interrupt-per-packet baseline instead of the coalescing fast path (for \
             comparison).")
  in
  Cmd.v
    (Cmd.info "rxstats"
       ~doc:
         "Run a user-library small-message transfer and print the receive-path coalescing \
          statistics: burst-size histogram and frames per wakeup, GRO merges, ACKs elided, \
          interrupts versus NAPI polls, and bounded-ring drops.")
    Term.(
      const run $ network_arg
      $ Arg.(value & opt int 400_000 & info [ "b"; "bytes" ] ~docv:"BYTES" ~doc:"Bytes to transfer.")
      $ size_arg 512 "User write size."
      $ per_packet_arg)

let txstats_cmd =
  let module Protolib = Uln_core.Protolib in
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let module View = Uln_buf.View in
  let run network bytes size per_segment =
    let tcp_params =
      if per_segment then
        { Uln_proto.Tcp_params.fast with Uln_proto.Tcp_params.zero_copy = true }
      else Uln_proto.Tcp_params.tx_fast
    in
    let w = World.create ~tcp_params ~network ~org:Organization.User_library () in
    let sched = World.sched w in
    let source_lib =
      match World.library w ~host:0 "source" with Some l -> l | None -> assert false
    in
    let sink =
      match World.library w ~host:1 "sink" with
      | Some l -> Protolib.app l
      | None -> assert false
    in
    let source = Protolib.app source_lib in
    Printf.printf "txstats: userlib %s transmit path, %s, %d bytes in %d-byte writes\n"
      (if per_segment then "per-segment (zero-copy baseline)" else "tx_fast")
      (match network with World.Ethernet -> "ethernet" | World.An1 -> "an1" | World.Wan -> "wan")
      bytes size;
    (* Capture the sender's statistics from the sink thread once the
       stream has fully drained (the source has sent its FIN, so every
       data byte is ACKed, but its connection is still attached — the
       per-engine GSO/pacer counters are summed over
       connections still open). *)
    let stats = ref None in
    Sched.spawn sched ~name:"sink" (fun () ->
        let l = sink.Sockets.listen ~port:5001 in
        let conn = l.Sockets.accept () in
        let got = ref 0 in
        let rec drain () =
          match conn.Sockets.recv_loan ~max:65536 with
          | None -> ()
          | Some v ->
              got := !got + View.length v;
              conn.Sockets.return_loan v;
              drain ()
        in
        drain ();
        stats := Some (Protolib.txstats source_lib, !got);
        conn.Sockets.close ());
    Sched.block_on sched (fun () ->
        match source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:5001 with
        | Error e -> failwith ("txstats connect: " ^ e)
        | Ok conn ->
            let chunk = View.create size in
            View.fill chunk 't';
            for _ = 1 to (bytes + size - 1) / size do
              match conn.Sockets.alloc_tx size with
              | Some owned ->
                  View.fill owned 't';
                  conn.Sockets.send_owned owned
              | None -> conn.Sockets.send chunk
            done;
            conn.Sockets.close ();
            conn.Sockets.await_closed ());
    match !stats with
    | None -> failwith "txstats: transfer did not complete"
    | Some (s, got) ->
        Printf.printf "delivered:        %d bytes\n" got;
        Printf.printf "gso (stack):      %d oversized sends, %d per-segment fallbacks\n"
          s.Protolib.ts_gso_sends s.Protolib.ts_gso_fallbacks;
        Printf.printf "gso (nic):        %d episodes cut into %d frames (%.2f frames/episode)\n"
          s.Protolib.ts_gso_episodes s.Protolib.ts_gso_frames
          (if s.Protolib.ts_gso_episodes = 0 then 0.
           else float_of_int s.Protolib.ts_gso_frames /. float_of_int s.Protolib.ts_gso_episodes);
        Printf.printf "pacer:            %d deferred sends, %.0f us total (%.1f us avg)\n"
          s.Protolib.ts_pacer_waits s.Protolib.ts_pacer_wait_us
          (if s.Protolib.ts_pacer_waits = 0 then 0.
           else s.Protolib.ts_pacer_wait_us /. float_of_int s.Protolib.ts_pacer_waits);
        Printf.printf "pacer wait hist:  %s\n"
          (match s.Protolib.ts_pacer_hist with
          | [] -> "(empty)"
          | h ->
              String.concat " "
                (List.map (fun (b, n) -> Printf.sprintf "[%d-%dus]x%d" (1 lsl b) (1 lsl (b + 1)) n) h))
  in
  let per_segment_arg =
    Arg.(
      value & flag
      & info [ "per-segment" ]
          ~doc:
            "Run the per-segment zero-copy baseline instead of the transmit fast path (for \
             comparison).")
  in
  Cmd.v
    (Cmd.info "txstats"
       ~doc:
         "Run a user-library bulk transfer and print the transmit fast-path statistics: GSO \
          episodes and frames per episode, and the pacer's queue-delay histogram.")
    Term.(
      const run $ network_arg
      $ Arg.(value & opt int 400_000 & info [ "b"; "bytes" ] ~docv:"BYTES" ~doc:"Bytes to transfer.")
      (* Default to the tx-pool buffer size so alloc_tx succeeds and the
         zero-copy release batching is visible; larger writes fall back
         to the copying path and report zero releases. *)
      $ size_arg Uln_core.Calibration.tx_pool_buffer_size "User write size."
      $ per_segment_arg)

let cpustats_cmd =
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let module Semaphore = Uln_engine.Semaphore in
  let module Machine = Uln_host.Machine in
  let module Cpu = Uln_host.Cpu in
  let module View = Uln_buf.View in
  let run org network cpus pairs bytes per_conn top =
    let tcp_params =
      { Uln_proto.Tcp_params.default with
        Uln_proto.Tcp_params.snd_buf = 65535;
        rcv_buf = 65535;
        smp_locking = (if per_conn then `Per_conn else `Big_lock) }
    in
    let w = World.create ~cpus ~tcp_params ~network ~org () in
    let sched = World.sched w in
    let finished = Semaphore.create () in
    let last_rx = ref Uln_engine.Time.zero in
    Printf.printf "cpustats: %s, %s, %d CPU(s), %d pair(s), %d bytes each%s\n"
      (Organization.name org)
      (match network with World.Ethernet -> "ethernet" | World.An1 -> "an1" | World.Wan -> "wan")
      cpus pairs bytes
      (match org with
      | Organization.In_kernel ->
          if per_conn then ", per-connection locks" else ", big kernel lock"
      | _ -> "");
    for p = 0 to pairs - 1 do
      let cpu = p mod cpus in
      let port = 9000 + p in
      let sink = World.app ~cpu w ~host:1 (Printf.sprintf "sink%d" p) in
      Sched.spawn sched ~name:(Printf.sprintf "sink%d" p) (fun () ->
          let l = sink.Sockets.listen ~port in
          let conn = l.Sockets.accept () in
          let rec drain () =
            match conn.Sockets.recv ~max:65536 with
            | Some _ ->
                let now = Sched.now sched in
                if Uln_engine.Time.compare now !last_rx > 0 then last_rx := now;
                drain ()
            | None -> ()
          in
          drain ();
          conn.Sockets.close ();
          Semaphore.signal finished);
      let source = World.app ~cpu w ~host:0 (Printf.sprintf "source%d" p) in
      Sched.spawn sched ~name:(Printf.sprintf "source%d" p) (fun () ->
          match
            source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:port
          with
          | Error e -> failwith e
          | Ok conn ->
              let chunk = View.create 8192 in
              View.fill chunk 'c';
              for _ = 1 to (bytes + 8191) / 8192 do
                conn.Sockets.send chunk
              done;
              conn.Sockets.close ();
              conn.Sockets.await_closed ())
    done;
    Sched.block_on sched (fun () ->
        for _ = 1 to pairs do
          Semaphore.wait finished
        done);
    (* Utilization against the transfer window (last payload byte), not
       the minutes of simulated TIME_WAIT teardown that follow. *)
    let now = !last_rx in
    Printf.printf "\n%-16s %10s %6s %11s %12s\n" "cpu" "busy(ms)" "util" "migrations"
      "penalty(ms)";
    for h = 0 to World.num_hosts w - 1 do
      Array.iter
        (fun c ->
          Printf.printf "%-16s %10.2f %5.1f%% %11d %12.2f\n" (Cpu.name c)
            (float_of_int (Cpu.busy_ns c) /. 1e6)
            (100. *. Cpu.utilization c now)
            (Cpu.migrations c)
            (float_of_int (Cpu.migrate_ns c) /. 1e6))
        (World.machine w h).Machine.cpus
    done;
    (match World.netio w 1 with
    | Some n ->
        Printf.printf "rx-ring steering migrations (host1 netio): %d\n"
          (Uln_core.Netio.migrations n)
    | None -> ());
    let locks =
      List.sort
        (fun (a : Semaphore.stats) b ->
          compare b.Semaphore.s_total_wait_ns a.Semaphore.s_total_wait_ns)
        (Semaphore.registered ~sched ())
    in
    let contended = List.filter (fun s -> s.Semaphore.s_contended > 0) locks in
    if contended = [] then print_string "\nno contended locks\n"
    else begin
      Printf.printf "\ntop contended locks (of %d named):\n" (List.length locks);
      Printf.printf "%-28s %-10s %10s %10s %10s %9s\n" "lock" "kind" "acquis."
        "contended" "wait(ms)" "max(ms)";
      List.iteri
        (fun i (s : Semaphore.stats) ->
          if i < top then
            Printf.printf "%-28s %-10s %10d %10d %10.2f %9.2f\n" s.Semaphore.s_name
              s.Semaphore.s_kind s.Semaphore.s_acquisitions s.Semaphore.s_contended
              (float_of_int s.Semaphore.s_total_wait_ns /. 1e6)
              (float_of_int s.Semaphore.s_max_wait_ns /. 1e6))
        contended
    end
  in
  let cpus_arg =
    Arg.(value & opt int 2 & info [ "c"; "cpus" ] ~docv:"N" ~doc:"Simulated CPUs per host.")
  in
  let pairs_arg =
    Arg.(
      value & opt int 2
      & info [ "p"; "pairs" ] ~docv:"N" ~doc:"Concurrent sender/sink pairs (pinned round-robin).")
  in
  let per_conn_arg =
    Arg.(
      value & flag
      & info [ "per-conn" ]
          ~doc:"In-kernel locking ablation: per-connection locks instead of the big kernel lock.")
  in
  let top_arg =
    Arg.(value & opt int 8 & info [ "top" ] ~docv:"K" ~doc:"Contended locks to list.")
  in
  Cmd.v
    (Cmd.info "cpustats"
       ~doc:
         "Run pinned concurrent transfers on a multiprocessor host and print per-CPU \
          utilization, cross-CPU packet migrations, and the most contended locks.")
    Term.(
      const run $ org_arg $ Arg.(value & opt network_conv World.An1
      & info [ "n"; "network" ] ~docv:"NET" ~doc:"Network: ethernet (10 Mb/s) or an1 (100 Mb/s).")
      $ cpus_arg $ pairs_arg
      $ Arg.(value & opt int 1_000_000 & info [ "b"; "bytes" ] ~docv:"BYTES" ~doc:"Bytes per pair.")
      $ per_conn_arg $ top_arg)

let setupstats_cmd =
  let module Sockets = Uln_core.Sockets in
  let module Registry = Uln_core.Registry in
  let module Protolib = Uln_core.Protolib in
  let module Tcp_params = Uln_proto.Tcp_params in
  let module Sched = Uln_engine.Sched in
  let module Time = Uln_engine.Time in
  let run network pairs conns sequential =
    let tcp_params =
      if sequential then Tcp_params.fast
      else
        { Tcp_params.fast with
          Tcp_params.overlap_setup = true;
          channel_pool = true;
          endpoint_lease = true;
          time_wait_wheel = true }
    in
    let w =
      World.create ~network ~org:Organization.User_library ~tcp_params
        ~num_hosts:(pairs + 1) ()
    in
    let sched = World.sched w in
    for i = 0 to pairs - 1 do
      let app = World.app w ~host:(1 + i) (Printf.sprintf "srv%d" i) in
      Sched.spawn sched ~name:(Printf.sprintf "srv%d" i) (fun () ->
          let l = app.Sockets.listen ~port:(9000 + i) in
          for _ = 1 to conns do
            let c = l.Sockets.accept () in
            c.Sockets.close ()
          done)
    done;
    let libs =
      List.init pairs (fun i ->
          match World.library w ~host:0 (Printf.sprintf "cli%d" i) with
          | Some l -> l
          | None -> assert false)
    in
    let lat = ref 0 in
    Sched.block_on sched (fun () ->
        let remaining = ref pairs in
        let wake = ref (fun () -> ()) in
        List.iteri
          (fun i lib ->
            let app = Protolib.app lib in
            Sched.spawn sched ~name:(Printf.sprintf "cli%d" i) (fun () ->
                for _ = 1 to conns do
                  let t0 = Sched.now sched in
                  match
                    app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w (1 + i))
                      ~dst_port:(9000 + i)
                  with
                  | Error e -> failwith ("setupstats connect: " ^ e)
                  | Ok c ->
                      lat := !lat + Time.diff (Sched.now sched) t0;
                      c.Sockets.close ()
                done;
                decr remaining;
                if !remaining = 0 then !wake ()))
          libs;
        Sched.suspend (fun k -> wake := k));
    let total = pairs * conns in
    Printf.printf "setupstats: userlib, %s, %d pair(s) x %d connections%s\n"
      (match network with World.Ethernet -> "ethernet" | World.An1 -> "an1" | World.Wan -> "wan")
      pairs conns
      (if sequential then ", sequential oracle (all switches off)" else "");
    Printf.printf "mean connect latency under load: %.2f ms\n" (Time.to_ms_f (!lat / total));
    match World.registry w 0 with
    | None -> ()
    | Some r ->
        let legs = Registry.setup_legs r in
        Printf.printf "\nregistry setup legs (host0, mean over %d registry-path connects):\n"
          legs.Registry.sl_samples;
        Printf.printf "  %-34s %8.2f ms\n" "dispatch + port allocation"
          (legs.Registry.sl_port_alloc_us /. 1000.);
        Printf.printf "  %-34s %8.2f ms\n" "SYN round trip (overlaps build)"
          (legs.Registry.sl_round_trip_us /. 1000.);
        Printf.printf "  %-34s %8.2f ms\n" "build join + activate + export"
          (legs.Registry.sl_finish_us /. 1000.);
        Printf.printf "  %-34s %8.2f ms\n" "total" (legs.Registry.sl_total_us /. 1000.);
        let p = Registry.pool_stats r in
        let denom = p.Registry.ps_hits + p.Registry.ps_misses in
        Printf.printf "\nchannel pool: %d hits / %d misses (%.0f%% hit rate), %d parked now\n"
          p.Registry.ps_hits p.Registry.ps_misses
          (if denom = 0 then 0.
           else 100. *. float_of_int p.Registry.ps_hits /. float_of_int denom)
          p.Registry.ps_parked;
        let ls = Registry.lease_stats r in
        let leased, fallbacks, free_ports, free_chans =
          List.fold_left
            (fun (a, b, c, d) lib ->
              let s = Protolib.leasestats lib in
              ( a + s.Protolib.lst_leased_connects,
                b + s.Protolib.lst_fallbacks,
                c + s.Protolib.lst_free_ports,
                d + s.Protolib.lst_free_channels ))
            (0, 0, 0, 0) libs
        in
        Printf.printf
          "leases: %d granted (%d active); %d leased connects (%.0f%% hit rate), %d fallbacks, \
           %d idle ports, %d idle channels\n"
          ls.Registry.ls_granted ls.Registry.ls_active leased
          (100. *. float_of_int leased /. float_of_int total)
          fallbacks free_ports free_chans;
        let tw = Registry.time_wait_stats r in
        Printf.printf
          "time-wait wheel: %d parked now / %d capacity, %d parked total, %d evicted\n"
          tw.Registry.tw_pending tw.Registry.tw_capacity tw.Registry.tw_parked_total
          tw.Registry.tw_evicted
  in
  let pairs_arg =
    Arg.(
      value & opt int 2
      & info [ "p"; "pairs" ] ~docv:"N" ~doc:"Concurrent client/server pairs.")
  in
  let conns_arg =
    Arg.(
      value & opt int 64
      & info [ "c"; "conns" ] ~docv:"N" ~doc:"Connections per pair (connect then close).")
  in
  let sequential_arg =
    Arg.(
      value & flag
      & info [ "sequential" ]
          ~doc:
            "Run the sequential oracle (overlap, pooling, leases and the TIME_WAIT wheel all \
             off) instead of the fast path.")
  in
  Cmd.v
    (Cmd.info "setupstats"
       ~doc:
         "Run a user-library connection churn and print the setup-plane accounting: per-leg \
          setup-latency breakdown, endpoint-lease hit rate, channel-pool occupancy, and \
          TIME_WAIT wheel population.")
    Term.(const run $ network_arg $ pairs_arg $ conns_arg $ sequential_arg)

let regstats_cmd =
  let module Sockets = Uln_core.Sockets in
  let module Registry = Uln_core.Registry in
  let module Protolib = Uln_core.Protolib in
  let module Tcp_params = Uln_proto.Tcp_params in
  let module Sched = Uln_engine.Sched in
  let run network tenants conns max_conns cpus flat =
    let tcp_params =
      { Tcp_params.fast with
        Tcp_params.shard_registry = not flat;
        hier_demux = not flat }
    in
    let quota =
      { Registry.q_max_conns = max_conns;
        q_max_mem_bytes = Registry.default_quota.Registry.q_max_mem_bytes }
    in
    let w =
      World.create ~network ~org:Organization.User_library ~tcp_params ~quota ~cpus ()
    in
    let sched = World.sched w in
    (* One server principal per tenant so each side's admission is
       independently visible; every pair holds its connections while the
       tables print, then the run exits. *)
    let succ = min conns max_conns in
    for k = 0 to tenants - 1 do
      let app = World.app w ~host:1 (Printf.sprintf "srv%d" k) in
      Sched.spawn sched ~name:(Printf.sprintf "srv%d" k) (fun () ->
          let l = app.Sockets.listen ~port:(6000 + k) in
          ignore (List.init succ (fun _ -> l.Sockets.accept ())))
    done;
    let libs =
      List.init tenants (fun k ->
          match World.library w ~host:0 (Printf.sprintf "tenant%d" k) with
          | Some l -> l
          | None -> assert false)
    in
    Sched.block_on sched (fun () ->
        let held =
          List.mapi
            (fun k lib ->
              List.filter_map
                (fun _ ->
                  match
                    Protolib.connect_q lib ~src_port:0 ~dst:(World.host_ip w 1)
                      ~dst_port:(6000 + k)
                  with
                  | Ok c -> Some c
                  | Error (Registry.Quota_exceeded _) -> None
                  | Error (Registry.Refused m) -> failwith ("regstats connect: " ^ m))
                (List.init conns Fun.id))
            libs
        in
        let reg0 = Option.get (World.registry w 0) in
        let reg1 = Option.get (World.registry w 1) in
        let lim = Registry.quota_limits reg0 in
        Printf.printf
          "regstats: userlib, %d tenant(s) x %d connect(s), quota %d conns / %d bytes per \
           principal\n"
          tenants conns lim.Registry.q_max_conns lim.Registry.q_max_mem_bytes;
        Printf.printf "registry: %s, %d shard(s)\n"
          (if Registry.sharded reg0 then "sharded" else "flat")
          (Registry.num_shards reg0);
        let tenant_table label = function
          | [] -> Printf.printf "\n%s: no principals admitted\n" label
          | stats ->
              Printf.printf "\n%s per-principal quota accounting:\n" label;
              Printf.printf "  %-24s %8s %8s %12s %8s\n" "principal" "active" "peak"
                "mem(bytes)" "denied";
              List.iter
                (fun (s : Registry.tenant_stats) ->
                  Printf.printf "  %-24s %8d %8d %12d %8d\n" s.Registry.ts_principal
                    s.Registry.ts_active s.Registry.ts_peak s.Registry.ts_mem_bytes
                    s.Registry.ts_denied)
                stats
        in
        (* The client side through the library surface, the server side
           straight off its registry. *)
        tenant_table "host0 (clients)" (Protolib.quotastats (List.hd libs));
        tenant_table "host1 (servers)" (Registry.tenant_stats reg1);
        let shard_table label reg =
          Printf.printf "\n%s shards:\n" label;
          Printf.printf "  %-6s %4s %6s %8s %8s %12s %10s\n" "shard" "cpu" "ports"
            "pending" "tw" "acquisitions" "contended";
          List.iter
            (fun (s : Registry.shard_stats) ->
              Printf.printf "  %-6d %4d %6d %8d %8d %12d %10d\n" s.Registry.ss_shard
                s.Registry.ss_cpu s.Registry.ss_ports s.Registry.ss_pending
                s.Registry.ss_tw_pending s.Registry.ss_lock_acquisitions
                s.Registry.ss_lock_contended)
            (Registry.shard_stats reg)
        in
        shard_table "host0" reg0;
        shard_table "host1" reg1;
        List.iter (List.iter (fun (c : Sockets.conn) -> c.Sockets.close ())) held)
  in
  let tenants_arg =
    Arg.(
      value & opt int 3
      & info [ "t"; "tenants" ] ~docv:"N" ~doc:"Client principals on host 0.")
  in
  let conns_arg =
    Arg.(
      value & opt int 8
      & info [ "c"; "conns" ] ~docv:"N"
          ~doc:"Connections each tenant attempts (held while the tables print).")
  in
  let max_conns_arg =
    Arg.(
      value & opt int 6
      & info [ "max-conns" ] ~docv:"N"
          ~doc:"Per-principal connection quota (below $(b,--conns) shows typed denials).")
  in
  let cpus_arg =
    Arg.(value & opt int 4 & info [ "cpus" ] ~docv:"N" ~doc:"Simulated CPUs per host.")
  in
  let flat_arg =
    Arg.(
      value & flag
      & info [ "flat" ]
          ~doc:
            "Run the flat-table oracle (sharded registry and hierarchical demux off) instead \
             of the sharded control plane.")
  in
  Cmd.v
    (Cmd.info "regstats"
       ~doc:
         "Run a multi-tenant connection workload and print the registry control-plane \
          accounting: per-principal quota consumption (active, peak, pinned memory, typed \
          denials) and per-shard table population and lock contention.")
    Term.(
      const run $ network_arg $ tenants_arg $ conns_arg $ max_conns_arg $ cpus_arg
      $ flat_arg)

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
    let spec_names =
      List.map (fun s -> s.Uln_workload.Bench_spec.name) (Uln_workload.Bench_spec.all_specs ())
    in
    let sources = Option.map (fun p -> (p, spec_names, root)) params_src in
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
          acyclicity, and ablation-switch oracle/bench coverage.  Exits non-zero on any \
          finding.")
    Term.(
      const run $ json_arg $ seed_unhandled_arg $ seed_cycle_arg $ params_arg $ root_arg)

let connstats_cmd =
  let module Sched = Uln_engine.Sched in
  let module Time = Uln_engine.Time in
  let module View = Uln_buf.View in
  let module Stack = Uln_proto.Stack in
  let module Tcp = Uln_proto.Tcp in
  let run network bytes preset delay_ms loss trace =
    let tcp_params =
      match preset with
      | "default" -> Uln_proto.Tcp_params.default
      | "fast" -> Uln_proto.Tcp_params.fast
      | "wan" -> Uln_proto.Tcp_params.wan
      | s -> failwith (Printf.sprintf "unknown preset %S (default|fast|wan)" s)
    in
    with_trace trace @@ fun () ->
    let w =
      World.create ~costs:Uln_host.Costs.zero ~tcp_params
        ~wan_delay:(Time.ms delay_ms) ~network ~org:Organization.In_kernel ()
    in
    let sched = World.sched w in
    if loss > 0. then
      Uln_net.Link.set_fault (World.link w)
        (Uln_net.Fault.create ~rng:(Uln_engine.Rng.create ~seed:11) ~drop:loss ());
    let stack i =
      match World.host_stack w i with Some s -> s | None -> assert false
    in
    let sink = (stack 1).Stack.tcp and source = (stack 0).Stack.tcp in
    let sink_conn = ref None in
    Sched.spawn sched ~name:"connstats.sink" (fun () ->
        let l = Tcp.listen sink ~port:5001 in
        let conn, _w = Tcp.accept l in
        sink_conn := Some conn;
        let rec drain () =
          match Tcp.read conn ~max:65536 with None -> () | Some _ -> drain ()
        in
        drain ();
        Tcp.close conn);
    let client_opts = ref None in
    Sched.block_on sched (fun () ->
        match
          Tcp.connect source ~src_port:4000 ~dst:(World.host_ip w 1) ~dst_port:5001
        with
        | Error e -> failwith ("connstats connect: " ^ e)
        | Ok (conn, _w) ->
            let chunk = View.create 16384 in
            View.fill chunk 'c';
            for _ = 1 to (bytes + 16383) / 16384 do
              Tcp.write conn chunk
            done;
            Tcp.await_drained conn;
            client_opts := Some (Tcp.conn_options conn);
            Tcp.close conn;
            Tcp.await_closed conn);
    let print_conn name (o : Tcp.conn_options) =
      Printf.printf "%s:\n" name;
      Printf.printf "  window scaling     snd_scale=%d rcv_scale=%d\n" o.Tcp.co_snd_scale
        o.Tcp.co_rcv_scale;
      Printf.printf "  sack               %b\n" o.Tcp.co_sack;
      Printf.printf "  timestamps         %b\n" o.Tcp.co_timestamps;
      Printf.printf "  congestion control %s\n" o.Tcp.co_cong;
      Printf.printf "  unknown options    %d\n" o.Tcp.co_unknown_opts;
      Printf.printf "  window clamps      %d\n" o.Tcp.co_wnd_clamps;
      Printf.printf "  retransmits        rto=%d fast=%d sack=%d\n" o.Tcp.co_rto_rexmits
        o.Tcp.co_fast_rexmits o.Tcp.co_sack_rexmits;
      Printf.printf "  recovery episodes  %d\n" (List.length o.Tcp.co_recovery_us)
    in
    (match !client_opts with
    | Some o -> print_conn "client (sender)" o
    | None -> ());
    (match !sink_conn with
    | Some c -> print_conn "server (receiver)" (Tcp.conn_options c)
    | None -> ());
    Printf.printf "engine (sender): segments_out=%d retransmissions=%d unknown_options=%d\n"
      (Tcp.segments_out source) (Tcp.retransmissions source)
      (Tcp.unknown_options source)
  in
  let preset_arg =
    Arg.(
      value & opt string "wan"
      & info [ "preset" ] ~docv:"PRESET"
          ~doc:"TCP parameter preset: default | fast | wan (RFC1323 + SACK + Cubic).")
  in
  let delay_arg =
    Arg.(
      value & opt int 20
      & info [ "delay" ] ~docv:"MS" ~doc:"One-way propagation delay on the wan network.")
  in
  let loss_arg =
    Arg.(
      value & opt float 0.
      & info [ "loss" ] ~docv:"P" ~doc:"Independent per-frame drop probability.")
  in
  Cmd.v
    (Cmd.info "connstats"
       ~doc:
         "Run one bulk transfer and print each side's negotiated TCP options (window \
          scale, SACK, timestamps, congestion control) and per-connection counters: \
          unknown option kinds seen, 16-bit window clamps, scoreboard retransmissions \
          and completed loss-recovery episodes.")
    Term.(
      const run $ network_arg
      $ Arg.(
          value & opt int 2_000_000
          & info [ "b"; "bytes" ] ~docv:"BYTES" ~doc:"Bytes to transfer.")
      $ preset_arg $ delay_arg $ loss_arg $ trace_arg)

let () =
  let doc = "user-level network protocol testbed (SIGCOMM '93 reproduction)" in
  let info = Cmd.info "netlab" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ throughput_cmd; latency_cmd; setup_cmd; orgs_cmd; table_cmd; snoop_cmd; rrp_cmd;
            bufstats_cmd; rxstats_cmd; txstats_cmd; cpustats_cmd; setupstats_cmd; regstats_cmd;
            connstats_cmd;
            filter_lint_cmd; proto_check_cmd ]))
