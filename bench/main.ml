(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (simulated measurements, printed against the paper's own
   numbers), plus Bechamel micro-benchmarks of the implementation's hot
   paths (real execution time) — one Bechamel test per table keyed to a
   representative cell, and ablation benches for the design choices
   DESIGN.md calls out.

   Usage: main.exe [--json] [all|table1|table2|table3|table4|table5|
                    figures|ablations|scale|smp|smoke|churn|wan|rpc|
                    overload|tx|switches|diffcheck|micro]

   With --json each table/scale run also writes its rows to
   BENCH_<target>.json in the working directory. *)

module Time = Uln_engine.Time
module View = Uln_buf.View
module E = Uln_workload.Experiments

let ppf = Format.std_formatter

let section title =
  Format.fprintf ppf "@.=== %s ===@." title

(* --- machine-readable output (hand-rolled JSON, no dependencies) ------- *)

let json_enabled = ref false

let jstr = Uln_workload.Jout.str
let jint = Uln_workload.Jout.int
let jfloat = Uln_workload.Jout.float
let jopt = Uln_workload.Jout.opt

let json_contents target (rows : (string * string) list list) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "{\n  \"target\": %s,\n  \"rows\": [" (jstr target));
  List.iteri
    (fun i row ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf "\n    { ";
      List.iteri
        (fun j (k, v) ->
          if j > 0 then Buffer.add_string buf ", ";
          Buffer.add_string buf (Printf.sprintf "%s: %s" (jstr k) v))
        row;
      Buffer.add_string buf " }")
    rows;
  Buffer.add_string buf "\n  ]\n}\n";
  let contents = Buffer.contents buf in
  (* Regression check: never commit a BENCH file that does not parse
     (the old NaN path serialised unparseable holes as "0.0"). *)
  (match Uln_workload.Jout.validate contents with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "BENCH_%s.json would be malformed: %s" target e));
  contents

let write_json target (rows : (string * string) list list) =
  if !json_enabled then begin
    let contents = json_contents target rows in
    let file = Printf.sprintf "BENCH_%s.json" target in
    let oc = open_out file in
    output_string oc contents;
    close_out oc;
    Format.fprintf ppf "  (wrote %s)@." file
  end

let t2_json (rows : E.t2_row list) =
  List.map
    (fun (r : E.t2_row) ->
      [ ("network", jstr r.E.t2_network);
        ("system", jstr r.E.t2_system);
        ("size", jint r.E.t2_size);
        ("mbps", jfloat r.E.t2_mbps);
        ("paper", jopt r.E.t2_paper) ])
    rows

let t3_json (rows : E.t3_row list) =
  List.map
    (fun (r : E.t3_row) ->
      [ ("network", jstr r.E.t3_network);
        ("system", jstr r.E.t3_system);
        ("size", jint r.E.t3_size);
        ("rtt_ms", jfloat r.E.t3_rtt_ms);
        ("p50_us", jfloat r.E.t3_rtt.Uln_workload.Percentile.p50);
        ("p99_us", jfloat r.E.t3_rtt.Uln_workload.Percentile.p99);
        ("p999_us", jfloat r.E.t3_rtt.Uln_workload.Percentile.p999);
        ("paper", jopt r.E.t3_paper) ])
    rows

let t4_json (rows : E.t4_row list) =
  List.map
    (fun (r : E.t4_row) ->
      [ ("network", jstr r.E.t4_network);
        ("system", jstr r.E.t4_system);
        ("setup_ms", jfloat r.E.t4_setup_ms);
        ("paper", jopt r.E.t4_paper) ])
    rows

(* Percentile summaries flattened into JSON fields ("<prefix>p50_us",
   "<prefix>p99_us", "<prefix>p999_us"). *)
let pfields prefix (s : Uln_workload.Percentile.summary) =
  List.map (fun (k, v) -> (prefix ^ k, v)) (Uln_workload.Percentile.summary_fields s)

let churn_row (r : Uln_workload.Churn.result) =
  [ ("system", jstr r.Uln_workload.Churn.r_system);
    ("config", jstr r.Uln_workload.Churn.r_config);
    ("pairs", jint r.Uln_workload.Churn.r_pairs);
    ("conns", jint r.Uln_workload.Churn.r_conns);
    ("conns_per_sec", jfloat r.Uln_workload.Churn.r_conns_per_sec);
    ("setup_ms", jfloat r.Uln_workload.Churn.r_setup_ms);
    ("churn_ms", jfloat r.Uln_workload.Churn.r_churn_ms);
    ("leg_port_alloc_ms", jfloat r.Uln_workload.Churn.r_leg_port_alloc_ms);
    ("leg_round_trip_ms", jfloat r.Uln_workload.Churn.r_leg_round_trip_ms);
    ("leg_finish_ms", jfloat r.Uln_workload.Churn.r_leg_finish_ms);
    ("pool_hit_rate", jfloat r.Uln_workload.Churn.r_pool_hit_rate);
    ("lease_hit_rate", jfloat r.Uln_workload.Churn.r_lease_hit_rate);
    ("tw_parked", jint r.Uln_workload.Churn.r_tw_parked) ]

let churn_json (rows : Uln_workload.Churn.result list) = List.map churn_row rows

(* Populated-server churn rows carry the background-filter population and
   the churn-phase latency percentiles on top of the flat fields. *)
let churn_sparse_json (rows : Uln_workload.Churn.result list) =
  List.map
    (fun (r : Uln_workload.Churn.result) ->
      churn_row r
      @ [ ("population", jint r.Uln_workload.Churn.r_population) ]
      @ pfields "churn_" r.Uln_workload.Churn.r_churn_p)
    rows

let scale_json (rows : E.scale_row list) =
  List.map
    (fun (r : E.scale_row) ->
      [ ("conns", jint r.E.sc_conns);
        ("scan_cycles", jfloat r.E.sc_scan_cycles);
        ("hit_cycles", jfloat r.E.sc_hit_cycles);
        ("hits", jint r.E.sc_hits);
        ("misses", jint r.E.sc_misses) ])
    rows

let sparse_json (rows : E.sparse_row list) =
  let module P = Uln_workload.Percentile in
  List.map
    (fun (r : E.sparse_row) ->
      [ ("bench", jstr "sparse-scale");
        ("conns", jint r.E.sp_conns);
        ("miss_p50_cycles", jfloat r.E.sp_miss_p.P.p50);
        ("miss_p99_cycles", jfloat r.E.sp_miss_p.P.p99);
        ("miss_p999_cycles", jfloat r.E.sp_miss_p.P.p999);
        ("linear_cycles", jfloat r.E.sp_linear_cycles) ]
      @ pfields "setup_" r.E.sp_setup_p
      @ pfields "delivery_" r.E.sp_delivery_p
      @ [ ("shards", jint r.E.sp_shards);
          ("lock_contended", jint r.E.sp_lock_contended) ])
    rows

let zc_json (rows : E.zc_row list) =
  List.map
    (fun (r : E.zc_row) ->
      [ ("ablation", jstr "zero-copy");
        ("network", jstr r.E.zc_network);
        ("size", jint r.E.zc_size);
        ("mbps_copy", jfloat r.E.zc_mbps_copy);
        ("mbps_zero_copy", jfloat r.E.zc_mbps_zero_copy);
        ("gain_pct", jfloat r.E.zc_gain_pct) ])
    rows

let smp_json (rows : Uln_workload.Smp.result list) =
  let module S = Uln_workload.Smp in
  List.map
    (fun (r : S.result) ->
      [ ("org", jstr r.S.r_org);
        ("locking", jstr r.S.r_locking);
        ("cpus", jint r.S.r_cpus);
        ("pairs", jint r.S.r_pairs);
        ("mbps", jfloat r.S.r_mbps);
        ("cpu0_util", jfloat r.S.r_cpu0_util);
        ("avg_util", jfloat r.S.r_avg_util);
        ("max_util", jfloat r.S.r_max_util);
        ("migrations", jint r.S.r_migrations);
        ("lock_acquisitions", jint r.S.r_lock_acquisitions);
        ("lock_contended", jint r.S.r_lock_contended);
        ("lock_wait_ms", jfloat (float_of_int r.S.r_lock_wait_ns /. 1e6)) ])
    rows

let print_smp_row r =
  let module S = Uln_workload.Smp in
  Format.fprintf ppf
    "  %-13s %-9s cpus=%d pairs=%d %8.2f Mb/s  cpu0 %3.0f%%  avg %3.0f%%  migr %6d  contended %6d (%.2f ms)@."
    r.S.r_org r.S.r_locking r.S.r_cpus r.S.r_pairs r.S.r_mbps
    (100. *. r.S.r_cpu0_util) (100. *. r.S.r_avg_util) r.S.r_migrations
    r.S.r_lock_contended
    (float_of_int r.S.r_lock_wait_ns /. 1e6)

let run_smp ?(cpu_counts = [ 1; 2; 4; 8 ]) ?(pair_counts = [ 1; 2; 4; 8 ])
    ?(bytes_per_pair = 1_000_000) () =
  section "SMP scaling (AN1, concurrent bulk pairs, per-CPU pinning)";
  let module S = Uln_workload.Smp in
  let configs =
    [ (Uln_core.Organization.User_library, `Big_lock);
      (Uln_core.Organization.Single_server `Mapped, `Big_lock);
      (Uln_core.Organization.In_kernel, `Big_lock);
      (Uln_core.Organization.In_kernel, `Per_conn) ]
  in
  let rows =
    List.concat_map
      (fun (org, locking) ->
        List.concat_map
          (fun cpus ->
            List.map
              (fun pairs ->
                let r = S.run ~bytes_per_pair ~locking ~org ~cpus ~pairs () in
                print_smp_row r;
                r)
              pair_counts)
          cpu_counts)
      configs
  in
  write_json "smp" (smp_json rows);
  Format.fprintf ppf
    "  (userlib and per-connection-locked kernels scale with CPUs; the@.";
  Format.fprintf ppf
    "   single-server organization is flat - one server serializes all pairs)@.";
  Format.fprintf ppf "@."

let run_table1 () =
  section "Table 1 (mechanism overhead, Ethernet)";
  let rows = E.table1 () in
  E.print_table1 ppf rows;
  write_json "table1"
    (List.map
       (fun (r : Uln_workload.Raw_xchg.row) ->
         [ ("user_packet", jint r.Uln_workload.Raw_xchg.user_packet);
           ("mbps", jfloat r.Uln_workload.Raw_xchg.mbps);
           ("saturation_mbps", jfloat r.Uln_workload.Raw_xchg.saturation_mbps);
           ("percent_of_raw", jfloat r.Uln_workload.Raw_xchg.percent_of_raw) ])
       rows);
  Format.fprintf ppf "@."

let run_table2 () =
  section "Table 2 (TCP throughput)";
  let rows = E.table2 () in
  E.print_table2 ppf rows;
  write_json "table2" (t2_json rows);
  Format.fprintf ppf "@."

let run_table3 () =
  section "Table 3 (round-trip latency)";
  let rows = E.table3 () in
  E.print_table3 ppf rows;
  write_json "table3" (t3_json rows);
  Format.fprintf ppf "@."

let run_table4 () =
  section "Table 4 (connection setup)";
  let rows = E.table4 () in
  E.print_table4 ppf rows;
  write_json "table4" (t4_json rows);
  Format.fprintf ppf "@.";
  E.print_breakdown ppf (E.setup_breakdown ());
  Format.fprintf ppf "@."

let run_table5 () =
  section "Table 5 (demultiplexing cost)";
  let rows = E.table5 () in
  E.print_table5 ppf rows;
  write_json "table5"
    (List.map
       (fun (r : E.t5_row) ->
         [ ("interface", jstr r.E.t5_interface);
           ("us_per_packet", jfloat r.E.t5_us);
           ("paper", jopt r.E.t5_paper) ])
       rows);
  Format.fprintf ppf "@."

let run_scale ?conns ?pops () =
  section "Connection scaling (flow-cache demux vs linear scan)";
  let rows = E.scale ?conns () in
  E.print_scale ppf rows;
  Format.fprintf ppf "@.";
  section "Zero-copy ablation (userlib bulk, write-size scaling)";
  let zrows = E.zero_copy_ablation () in
  E.print_zero_copy ppf zrows;
  Format.fprintf ppf "@.";
  section "Sparse sweep: 64k-1M-connection control plane (hierarchical demux)";
  let srows = E.scale_sparse ?pops () in
  E.print_sparse ppf srows;
  write_json "scale" (scale_json rows @ zc_json zrows @ sparse_json srows);
  Format.fprintf ppf "@."

(* Populated-server churn: every connect crosses a demux already loaded
   with [population] background connections, with the sharded registry
   and the hierarchical miss path on (their defaults are the flat/linear
   oracles the differential tests pin). *)
let sparse_params =
  { Uln_proto.Tcp_params.fast with
    Uln_proto.Tcp_params.hier_demux = true;
    shard_registry = true }

let sparse_churn_rows ?(pops = [ 65536; 262144; 1048576 ]) ?(tcp_params = sparse_params) () =
  List.map
    (fun population ->
      Uln_workload.Churn.run ~pairs:1 ~conns_per_pair:128 ~cpus:4 ~population ~tcp_params
        ~config:(Printf.sprintf "+shard@%dk" (population / 1024))
        ~network:Uln_core.World.Ethernet ~org:Uln_core.Organization.User_library ())
    pops

(* --- WAN: lossy high-BDP transfers ------------------------------------- *)

(* The four ablation ladders of the modern-TCP switches, plus the
   congestion-control comparison at the same operating point.  The
   baseline is the pre-RFC1323 engine at its 64 KB window ceiling; the
   others raise the buffers to 1 MB and turn the switches on one ladder
   step at a time. *)
let wan_configs =
  let open Uln_proto.Tcp_params in
  (* Every rung runs on the fine 1 ms timer wheel of the [wan] preset —
     the coarse 100 ms heartbeat turns a one-tick RTO into spurious
     retransmissions under a WAN round trip, which would swamp the
     window/SACK/congestion-control effects the ladder isolates.  The
     RTO floor likewise has to clear the longest RTT plus the peer's
     delayed ACK (here 80 + 20 ms), or every single-segment tail times
     out spuriously. *)
  let fast =
    { fast with
      timer_granularity = Time.ms 1;
      min_rto = Time.ms 200;
      initial_rto = Time.ms 400 }
  in
  let big p = { p with snd_buf = 1 lsl 20; rcv_buf = 1 lsl 20 } in
  [ ("wan-baseline", { fast with snd_buf = 65535; rcv_buf = 65535 });
    ("wan+wscale", big { fast with window_scale = true; timestamps = true });
    ( "wan+wscale+sack",
      big { fast with window_scale = true; timestamps = true; sack = true } );
    ( "wan+sack+newreno",
      big
        { fast with
          window_scale = true;
          timestamps = true;
          sack = true;
          cong_control = `Newreno } );
    ("wan+sack+cubic", wan) ]

(* Lossy cells average over several loss realizations: a 8 MB run at
   0.2% loss sees only ~20 drops, and which segments they land on
   swings goodput by +-20% — enough for one unlucky draw to invert the
   ranking of two statistically equal configurations (an earlier
   committed table had wan+wscale+sack "losing" to wan+wscale this
   way; re-running the same cell across seeds flips the order).  The
   recovery-time percentiles pool the samples of every realization.
   Zero-loss cells are deterministic and run once. *)
let wan_seeds = [ 7; 11; 23; 41; 97 ]

let wan_cell ?total_bytes ~delay_ms ~loss (label, prm) =
  let seeds = if loss = 0.0 then [ 7 ] else wan_seeds in
  let rs =
    List.map
      (fun seed ->
        Uln_workload.Wan.measure ?total_bytes ~seed ~delay:(Time.ms delay_ms) ~loss
          ~params:prm ())
      seeds
  in
  let n = float_of_int (List.length rs) in
  let mean f = List.fold_left (fun a r -> a +. f r) 0. rs /. n in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let goodput = mean (fun r -> r.Uln_workload.Wan.goodput_mbps) in
  let gmin, gmax =
    List.fold_left
      (fun (lo, hi) r ->
        let g = r.Uln_workload.Wan.goodput_mbps in
        (Stdlib.min lo g, Stdlib.max hi g))
      (infinity, neg_infinity) rs
  in
  let recovery =
    Array.concat (List.map (fun r -> r.Uln_workload.Wan.recovery_us) rs)
  in
  let s =
    if Array.length recovery = 0 then { Uln_workload.Percentile.p50 = 0.; p99 = 0.; p999 = 0. }
    else Uln_workload.Percentile.summarize recovery
  in
  let r0 = List.hd rs in
  Format.fprintf ppf
    "  %-17s %3dms %5.2f%%: %7.2f Mb/s (%4.2f..%4.2f/%d)  segs %6d  rexmt %5d (sack %5d)  \
     rec p50/p99 %6.1f/%6.1f ms@."
    label delay_ms (loss *. 100.) goodput gmin gmax (List.length seeds)
    (sum (fun r -> r.Uln_workload.Wan.segments_out))
    (sum (fun r -> r.Uln_workload.Wan.retransmissions))
    (sum (fun r -> r.Uln_workload.Wan.sack_rexmits))
    (s.Uln_workload.Percentile.p50 /. 1000.)
    (s.Uln_workload.Percentile.p99 /. 1000.);
  [ ("config", jstr label);
    ("delay_ms", jint delay_ms);
    ("loss", jfloat loss);
    ("goodput_mbps", jfloat goodput);
    ("goodput_min_mbps", jfloat gmin);
    ("goodput_max_mbps", jfloat gmax);
    ("seeds", jint (List.length seeds));
    ("bytes", jint (sum (fun r -> r.Uln_workload.Wan.bytes)));
    ("segments_out", jint (sum (fun r -> r.Uln_workload.Wan.segments_out)));
    ("retransmissions", jint (sum (fun r -> r.Uln_workload.Wan.retransmissions)));
    ("sack_rexmits", jint (sum (fun r -> r.Uln_workload.Wan.sack_rexmits)));
    ("snd_scale", jint r0.Uln_workload.Wan.snd_scale);
    ("cong", jstr r0.Uln_workload.Wan.cong);
    ("recovery_samples", jint (Array.length recovery)) ]
  @ pfields "recovery_" s

let run_wan () =
  section "WAN: lossy high-BDP transfer (delay x loss x modern-TCP switches)";
  let grid = [ (5, 0.0); (5, 0.01); (40, 0.0); (40, 0.002); (40, 0.01) ] in
  let rows =
    List.concat_map
      (fun (delay_ms, loss) -> List.map (wan_cell ~delay_ms ~loss) wan_configs)
      grid
  in
  write_json "wan" rows;
  Format.fprintf ppf "@."

(* --- Open-loop RPC, incast and overload -------------------------------- *)

(* The small-message fast path's two measurement configurations: the
   interrupt-per-packet baseline (the [fast] preset — every prior
   optimization on, coalescing off) against the [coalesced] preset
   (rx aggregation + burst ACKs + NAPI-style interrupt suppression).
   Both run with Nagle off, the normal setting for request/response
   traffic (send-side batching of sub-MSS replies would hide the
   receive-path costs under test behind the delayed-ACK clock). *)
let rpc_configs =
  let open Uln_proto.Tcp_params in
  [ ("per-packet", { fast with nagle = false });
    ("coalesced", { coalesced with nagle = false }) ]

(* The scenarios run on the 100 Mb/s AN1: on the 10 Mb/s Ethernet an
   8-way incast of 8 KB responses is link-bound (~19 rps ceiling), so
   the per-packet notification overhead the fast path removes never
   becomes the bottleneck. *)
let scenario_network = Uln_core.World.An1

let scenario_row ~scenario ~config (c : Uln_workload.Scenario.conf)
    (r : Uln_workload.Scenario.result) =
  let open Uln_workload.Scenario in
  Format.fprintf ppf
    "  %-14s %-10s offered %8.0f rps  delivered %8.0f rps  done %4d  expired %3d  p50/p99 \
     %7.0f/%8.0f us  drops %d@."
    scenario config r.offered_rps r.delivered_rps r.completed r.expired
    r.latency.Uln_workload.Percentile.p50 r.latency.Uln_workload.Percentile.p99
    (r.ring_drops + r.ring_overflows);
  [ ("scenario", jstr scenario);
    ("config", jstr config);
    ("servers", jint c.servers);
    ("requests", jint c.requests);
    ("offered_rps", jfloat r.offered_rps);
    ("delivered_rps", jfloat r.delivered_rps);
    ("completed", jint r.completed);
    ("expired", jint r.expired);
    ("ring_drops", jint r.ring_drops);
    ("ring_overflows", jint r.ring_overflows);
    ("interrupts", jint r.interrupts);
    ("polls", jint r.polls) ]
  @ pfields "" r.latency

(* Saturation probes ride on queue dynamics (which arrival lands on a
   full ring, which request expires at the deadline), so like the lossy
   WAN cells they average across seeds — one unlucky draw can move the
   knee by 10-20% and invert the ranking of two close configurations.
   The 70%-of-saturation measurement run keeps the conf's own seed so
   the latency percentiles stay comparable across revisions. *)
let sat_seeds = wan_seeds

let saturation_stats ~prm conf =
  let open Uln_workload.Scenario in
  let sats =
    List.map
      (fun seed -> saturation ~tcp_params:prm ~network:scenario_network { conf with seed })
      sat_seeds
  in
  let n = float_of_int (List.length sats) in
  let mean = List.fold_left ( +. ) 0. sats /. n in
  let lo = List.fold_left Stdlib.min infinity sats in
  let hi = List.fold_left Stdlib.max neg_infinity sats in
  (mean, lo, hi)

let sat_fields (mean, lo, hi) =
  [ ("saturation_rps", jfloat mean);
    ("saturation_min_rps", jfloat lo);
    ("saturation_max_rps", jfloat hi);
    ("saturation_seeds", jint (List.length sat_seeds)) ]

(* One scenario cell: probe this configuration's saturation rate
   (seed-averaged), then offer 70% of it open-loop — loaded but not
   drowning, so the latency percentiles measure the path rather than
   the queue. *)
let rpc_cell ~scenario ~requests conf (config, prm) =
  let open Uln_workload.Scenario in
  let conf = { conf with requests } in
  let ((sat, _, _) as stats) = saturation_stats ~prm conf in
  let r = measure ~tcp_params:prm ~network:scenario_network { conf with rate = 0.7 *. sat } in
  (sat, scenario_row ~scenario ~config conf r @ sat_fields stats)

let run_rpc ?(requests = 300) () =
  section "Open-loop RPC (request/response, fan-out, heavy tails, incast)";
  let open Uln_workload.Scenario in
  let scenarios =
    [ ("rpc/rr", default);
      ( "rpc/fanout",
        { default with
          servers = 4;
          resp = Mix { mice = 256; elephants = 8192; elephant_frac = 0.25 } } );
      ("rpc/heavytail", { default with arrival = Heavy_tail 1.5 });
      ("incast/8", incast ()) ]
  in
  let rows =
    List.concat_map
      (fun (scenario, conf) ->
        let cells = List.map (rpc_cell ~scenario ~requests conf) rpc_configs in
        (* Surface the headline acceptance ratio: coalesced vs
           per-packet saturation at 8-way incast. *)
        (match (scenario, cells) with
        | "incast/8", [ (base, _); (coal, _) ] when base > 0. ->
            Format.fprintf ppf "  %-14s coalesced/per-packet saturation: %.2fx@." scenario
              (coal /. base)
        | _ -> ());
        List.map snd cells)
      scenarios
  in
  write_json "rpc" rows;
  Format.fprintf ppf "@."

(* One overload configuration: its seed-averaged saturation rate, then
   one open-loop run per offered multiple of it. *)
let overload_cell ?(mults = [ 0.5; 1.0; 2.0; 4.0 ]) conf (config, prm) =
  let open Uln_workload.Scenario in
  let ((sat, _, _) as stats) = saturation_stats ~prm conf in
  List.map
    (fun mult ->
      let r = measure ~tcp_params:prm ~network:scenario_network { conf with rate = mult *. sat } in
      scenario_row ~scenario:"incast/overload" ~config conf r
      @ sat_fields stats
      @ [ ("multiplier", jfloat mult) ])
    mults

let run_overload ?(requests = 200) () =
  section "Incast overload (offered load vs delivered, open loop)";
  let conf = { (Uln_workload.Scenario.incast ()) with requests } in
  let rows = List.concat_map (overload_cell conf) rpc_configs in
  write_json "overload" rows;
  Format.fprintf ppf "@."

(* --- Transmit fast path (GSO, pacing) ---------------------------------- *)

(* The sender-side ladder.  [zc-base] is the zero-copy baseline the
   transmit path is measured against; [zc-deep] adds the deep buffers
   every later rung runs with (an offload episode can only be as large
   as the send queue — this rung shows depth alone moves nothing);
   [+gso] adds segmentation offload; [rx-coal] is the coalesced
   receive path WITHOUT the transmit switches, so the [tx_fast]
   headline decomposes into its receive-side and transmit-side
   contributions. *)
let tx_params =
  let open Uln_proto.Tcp_params in
  let zc = { fast with zero_copy = true } in
  let deep = { zc with snd_buf = 1 lsl 16; rcv_buf = 1 lsl 16 } in
  let rx_coal =
    { coalesced with
      zero_copy = true;
      snd_buf = 1 lsl 16;
      rcv_buf = 1 lsl 16;
      timer_granularity = Uln_engine.Time.ms 1 }
  in
  [ ("zc-base", zc);
    ("zc-deep", deep);
    ("+gso", { deep with tx_gso = true });
    ("rx-coal", rx_coal);
    ("nopace", { tx_fast with pacing = false });
    ("tx_fast", tx_fast) ]

(* Row labels are literal strings so the ablation-switch lint can pin
   each transmit switch to the bench row that exercises it. *)
let tx_bulk_rows =
  [ ("tx bulk an1/zc-base", Uln_core.World.An1, "zc-base");
    ("tx bulk an1/zc-deep", Uln_core.World.An1, "zc-deep");
    ("tx bulk an1/+gso", Uln_core.World.An1, "+gso");
    ("tx bulk an1/rx-coal", Uln_core.World.An1, "rx-coal");
    ("tx bulk an1/tx_fast", Uln_core.World.An1, "tx_fast");
    ("tx bulk ethernet/zc-base", Uln_core.World.Ethernet, "zc-base");
    ("tx bulk ethernet/rx-coal", Uln_core.World.Ethernet, "rx-coal");
    ("tx bulk ethernet/nopace", Uln_core.World.Ethernet, "nopace");
    ("tx bulk ethernet/tx_fast", Uln_core.World.Ethernet, "tx_fast") ]

(* One sender-limited bulk cell.  The world is built here (rather than
   through [Bulk.measure]) so the sender's CPU time and the NIC's
   transmit-queue counters can be read back after the run: per-byte
   transmit CPU is the number GSO exists to shrink, and the
   episode/frame counters prove the offload actually engaged rather
   than falling back per-segment. *)
let tx_bulk_cell ?(total_bytes = 4_000_000) ?prm (row, network, config) =
  let prm = match prm with Some p -> p | None -> List.assoc config tx_params in
  let w =
    Uln_core.World.create ~network ~org:Uln_core.Organization.User_library ~tcp_params:prm ()
  in
  let r = Uln_workload.Bulk.run ~total_bytes ~write_size:8192 w in
  let cpu = Uln_host.Machine.cpu_at (Uln_core.World.machine w 0) 0 in
  let tx_ns_per_byte =
    float_of_int (Uln_host.Cpu.busy_ns cpu)
    /. float_of_int (Stdlib.max 1 r.Uln_workload.Bulk.bytes)
  in
  let txq =
    match Uln_core.World.netio w 0 with
    | Some n -> Uln_core.Netio.txq_stats n
    | None -> assert false
  in
  Format.fprintf ppf
    "  %-24s %7.2f Mb/s  tx cpu %6.1f ns/B  gso %4d ep /%5d fr@." row
    r.Uln_workload.Bulk.mbps tx_ns_per_byte txq.Uln_net.Txq.gso_episodes
    txq.Uln_net.Txq.gso_frames;
  ( row,
    r.Uln_workload.Bulk.mbps,
    tx_ns_per_byte,
    [ ("row", jstr row);
      ("config", jstr config);
      ( "network",
        jstr
          (match network with
          | Uln_core.World.Ethernet -> "ethernet"
          | Uln_core.World.An1 -> "an1"
          | Uln_core.World.Wan -> "wan") );
      ("mbps", jfloat r.Uln_workload.Bulk.mbps);
      ("bytes", jint r.Uln_workload.Bulk.bytes);
      ("retransmissions", jint r.Uln_workload.Bulk.retransmissions);
      ("tx_cpu_ns_per_byte", jfloat tx_ns_per_byte);
      ("gso_episodes", jint txq.Uln_net.Txq.gso_episodes);
      ("gso_frames", jint txq.Uln_net.Txq.gso_frames) ] )

(* Pacing on request/response traffic: the coalesced receive-path
   configuration with the whole transmit path on top.  The pacer
   spreads each flow's bursts across its own cwnd/srtt budget; the
   check is that it holds the delivered-rate numbers of the unpaced
   configuration while smoothing the incast bursts. *)
let tx_paced =
  let open Uln_proto.Tcp_params in
  { coalesced with
    nagle = false;
    timer_granularity = Uln_engine.Time.ms 1;
    tx_gso = true;
    pacing = true }

let run_tx ?(requests = 200) () =
  section "Transmit fast path: sender-limited bulk (tx_gso / pacing)";
  let cells = List.map tx_bulk_cell tx_bulk_rows in
  let find label =
    let _, mbps, cpu, _ = List.find (fun (l, _, _, _) -> l = label) cells in
    (mbps, cpu)
  in
  let base_mbps, base_cpu = find "tx bulk an1/zc-base" in
  let fast_mbps, fast_cpu = find "tx bulk an1/tx_fast" in
  Format.fprintf ppf "  tx_fast vs zc-base (an1): %.2fx throughput, %.2fx tx cpu per byte@."
    (fast_mbps /. base_mbps) (fast_cpu /. base_cpu);
  section "Transmit fast path: pacing under elephants+mice and incast";
  let open Uln_workload.Scenario in
  let paced_configs =
    [ ("coalesced", List.assoc "coalesced" rpc_configs); ("pacing", tx_paced) ]
  in
  let mix =
    { default with
      servers = 4;
      resp = Mix { mice = 256; elephants = 8192; elephant_frac = 0.25 } }
  in
  let mix_cells = List.map (rpc_cell ~scenario:"tx mix" ~requests mix) paced_configs in
  let inc = incast () in
  let inc_cells = List.map (rpc_cell ~scenario:"tx incast" ~requests inc) paced_configs in
  (match (mix_cells, inc_cells) with
  | [ (mix_base, _); (mix_paced, _) ], [ (inc_base, _); (inc_paced, _) ]
    when mix_base > 0. && inc_base > 0. ->
      Format.fprintf ppf "  pacing/coalesced saturation: mix %.2fx, incast %.2fx@."
        (mix_paced /. mix_base) (inc_paced /. inc_base)
  | _ -> ());
  (* Tag the scenario rows the lint pins the pacing switch to. *)
  let tag row name = row @ [ ("row", jstr name) ] in
  let rows =
    List.map (fun (_, _, _, j) -> j) cells
    @ (match mix_cells with
      | [ (_, a); (_, b) ] -> [ tag a "tx mix/coalesced"; tag b "tx mix/pacing" ]
      | _ -> [])
    @
    match inc_cells with
    | [ (_, a); (_, b) ] -> [ tag a "tx incast/coalesced"; tag b "tx incast/pacing" ]
    | _ -> []
  in
  write_json "tx" rows;
  Format.fprintf ppf "@."

let run_churn () =
  section "Connection churn (setup fast-path ablation ladder)";
  let rows = Uln_workload.Churn.sweep () in
  Uln_workload.Churn.print ppf rows;
  Format.fprintf ppf "@.";
  section "Populated churn: sharded registry + hierarchical demux, 64k-1M background";
  let srows = sparse_churn_rows () in
  Uln_workload.Churn.print ppf srows;
  write_json "churn" (churn_json rows @ churn_sparse_json srows);
  Format.fprintf ppf "@."

(* --- Switch audit: leave-one-out contribution of every switch --------- *)

(* Each registered switch runs the bench row its registry entry names
   twice: once with that row's preset, once with only the switch's field
   reset to its [Tcp_params.default] value.  The two switches that are
   on by default run the default preset and are turned off instead.
   Every row runs at its smallest committed size. *)
let reset_switch field (p : Uln_proto.Tcp_params.t) =
  let open Uln_proto.Tcp_params in
  let d = default in
  match field with
  | "header_prediction" -> { p with header_prediction = false }
  | "fused_checksum" -> { p with fused_checksum = false }
  | "zero_copy" -> { p with zero_copy = d.zero_copy }
  | "overlap_setup" -> { p with overlap_setup = d.overlap_setup }
  | "channel_pool" -> { p with channel_pool = d.channel_pool }
  | "endpoint_lease" -> { p with endpoint_lease = d.endpoint_lease }
  | "time_wait_wheel" -> { p with time_wait_wheel = d.time_wait_wheel }
  | "smp_locking" -> { p with smp_locking = d.smp_locking }
  | "flow_cache" -> { p with flow_cache = d.flow_cache }
  | "hier_demux" -> { p with hier_demux = d.hier_demux }
  | "shard_registry" -> { p with shard_registry = d.shard_registry }
  | "window_scale" -> { p with window_scale = d.window_scale }
  | "timestamps" -> { p with timestamps = d.timestamps }
  | "sack" -> { p with sack = d.sack }
  | "cong_control" -> { p with cong_control = d.cong_control }
  | "ack_every" -> { p with ack_every = d.ack_every }
  | "rx_coalesce" -> { p with rx_coalesce = d.rx_coalesce }
  | "burst_ack" -> { p with burst_ack = d.burst_ack }
  | "int_suppress" -> { p with int_suppress = d.int_suppress }
  | "tx_gso" -> { p with tx_gso = d.tx_gso }
  | "pacing" -> { p with pacing = d.pacing }
  | f -> failwith ("switches: no leave-one-out reset for " ^ f)

let pick keys row = List.filter (fun (k, _) -> List.mem k keys) row

(* The cell behind each registered bench row: its preset, a note on the
   size it runs at, and the row's headline metrics as a function of the
   parameters. *)
let switch_rows () =
  let open Uln_proto.Tcp_params in
  let module Churn = Uln_workload.Churn in
  let bulk prm =
    let r =
      Uln_workload.Bulk.measure ~total_bytes:4_000_000 ~write_size:4096 ~tcp_params:prm
        ~network:Uln_core.World.Ethernet ~org:Uln_core.Organization.User_library ()
    in
    [ ("mbps", jfloat r.Uln_workload.Bulk.mbps) ]
  in
  let lease prm =
    let r =
      Churn.run ~pairs:6 ~conns_per_pair:64 ~tcp_params:prm ~config:"+lease"
        ~network:Uln_core.World.Ethernet ~org:Uln_core.Organization.User_library ()
    in
    pick [ "conns_per_sec"; "setup_ms"; "churn_ms" ] (churn_row r)
  in
  let smp prm =
    let r =
      Uln_workload.Smp.run ~locking:prm.smp_locking ~org:Uln_core.Organization.In_kernel
        ~cpus:2 ~pairs:2 ()
    in
    pick [ "mbps"; "avg_util"; "lock_contended" ] (smp_json [ r ] |> List.hd)
  in
  let scale prm =
    let r = List.hd (E.scale ~conns:[ 1 ] ()) in
    let cycles = if prm.flow_cache then r.E.sc_hit_cycles else r.E.sc_scan_cycles in
    [ ("dispatch_cycles", jfloat cycles) ]
  in
  let sparse prm =
    let setup, delivery, _, _ = E.sparse_live ~tcp_params:prm 4096 in
    pfields "setup_" setup @ pfields "delivery_" delivery
  in
  let sharded prm =
    let r = List.hd (sparse_churn_rows ~pops:[ 65536 ] ~tcp_params:prm ()) in
    pick
      [ "conns_per_sec"; "setup_ms"; "churn_p50_us"; "churn_p99_us" ]
      (List.hd (churn_sparse_json [ r ]))
  in
  (* The window-bound clean point and the loss-bound point of the
     40 ms column. *)
  let wan label prm =
    let prefix p = List.map (fun (k, v) -> (p ^ k, v)) in
    prefix "clean_" (pick [ "goodput_mbps" ] (wan_cell ~delay_ms:40 ~loss:0.0 (label, prm)))
    @ prefix "lossy_"
        (pick
           [ "goodput_mbps"; "goodput_min_mbps"; "goodput_max_mbps"; "retransmissions";
             "recovery_p50_us"; "recovery_p99_us" ]
           (wan_cell ~delay_ms:40 ~loss:0.002 (label, prm)))
  in
  let rpc ~scenario ~requests conf label prm =
    pick
      [ "saturation_rps"; "saturation_min_rps"; "saturation_max_rps"; "delivered_rps";
        "p50_us"; "p99_us" ]
      (snd (rpc_cell ~scenario ~requests conf (label, prm)))
  in
  let overload prm =
    let conf = { (Uln_workload.Scenario.incast ()) with Uln_workload.Scenario.requests = 200 } in
    pick
      [ "saturation_rps"; "saturation_min_rps"; "saturation_max_rps"; "delivered_rps";
        "p99_us"; "ring_drops" ]
      (List.hd (overload_cell ~mults:[ 4.0 ] conf ("coalesced", prm)))
  in
  let tx_bulk prm =
    let _, _, _, row = tx_bulk_cell ~prm ("tx bulk an1/+gso", Uln_core.World.An1, "+gso") in
    pick [ "mbps"; "tx_cpu_ns_per_byte"; "gso_episodes" ] row
  in
  let fanout =
    { Uln_workload.Scenario.default with
      Uln_workload.Scenario.servers = 4;
      resp = Uln_workload.Scenario.Mix { mice = 256; elephants = 8192; elephant_frac = 0.25 } }
  in
  let wan_row label =
    let size = "40 ms, 8 MB; 0% loss x 1 seed, 0.2% loss x 5 seeds" in
    (label, (label, List.assoc label wan_configs, size, wan label))
  in
  let bulk_size = "ethernet, 4 MB in 4096 B writes" in
  [ ("bulk userlib/ethernet/4096", ("default", default, bulk_size, bulk));
    ("bulk userlib-zc", ("default+zero_copy", { default with zero_copy = true }, bulk_size, bulk));
    ("+lease", ("+lease", List.assoc "+lease" Churn.configs, "6 pairs x 64 connections", lease));
    ( "smp",
      ( "in-kernel per_conn",
        { default with smp_locking = `Per_conn },
        "in-kernel, 2 CPUs x 2 pairs, 1 MB per pair",
        smp ) );
    ("scale", ("flow_cache", { default with flow_cache = true }, "1 connection", scale));
    ( "sparse-scale",
      ("hier+shard", sparse_params, "4096 background connections, 96 live", sparse) );
    ( "sharded registry",
      ("hier+shard", sparse_params, "65536 background connections, 128 live", sharded) );
    wan_row "wan+wscale";
    wan_row "wan+wscale+sack";
    wan_row "wan+sack+cubic";
    ( "rpc/fanout",
      ( "coalesced",
        List.assoc "coalesced" rpc_configs,
        "300 requests, saturation x 5 seeds",
        rpc ~scenario:"rpc/fanout" ~requests:300 fanout "coalesced" ) );
    ( "incast/overload",
      ("coalesced", List.assoc "coalesced" rpc_configs, "200 requests, 4x saturation", overload) );
    ( "tx bulk an1/+gso",
      ("+gso", List.assoc "+gso" tx_params, "an1, 4 MB in 8192 B writes", tx_bulk) );
    ( "tx incast/pacing",
      ( "pacing",
        tx_paced,
        "200 requests, saturation x 5 seeds",
        rpc ~scenario:"tx incast" ~requests:200 (Uln_workload.Scenario.incast ()) "pacing" ) ) ]

let run_switches () =
  section "Switch audit: every Tcp_params switch left out of its bench row";
  let rows = switch_rows () in
  (* Switches that share a row share its preset run. *)
  let on_cache = Hashtbl.create 16 in
  let json =
    List.map
      (fun (s : Uln_proto.Tcp_params.switch) ->
        let row = s.Uln_proto.Tcp_params.sw_bench_row in
        let field = s.Uln_proto.Tcp_params.sw_field in
        let preset_name, preset, size, cell =
          match List.assoc_opt row rows with
          | Some r -> r
          | None -> failwith ("switches: no cell for bench row " ^ row)
        in
        let off = reset_switch field preset in
        if off = preset then failwith ("switches: resetting " ^ field ^ " changes nothing");
        let on =
          match Hashtbl.find_opt on_cache row with
          | Some m -> m
          | None ->
              let m = cell preset in
              Hashtbl.replace on_cache row m;
              m
        in
        let without = cell off in
        List.iter2
          (fun (k, v_on) (_, v_off) ->
            Format.fprintf ppf "  %-18s %-26s %-20s %12s -> %12s@." field row k v_on v_off)
          on without;
        [ ("field", jstr field);
          ("row", jstr row);
          ("preset", jstr preset_name);
          ("size", jstr size) ]
        @ List.map (fun (k, v) -> ("on_" ^ k, v)) on
        @ List.map (fun (k, v) -> ("off_" ^ k, v)) without)
      Uln_proto.Tcp_params.switches
  in
  write_json "switches" json;
  Format.fprintf ppf "@."

(* Differential oracle: with every fast-path switch at its default
   (off), the sequential setup path must regenerate the committed
   tables byte-for-byte.  The sim is deterministic, so any drift means
   a switch leaked into the default path. *)
let run_diffcheck () =
  section "Differential check (fast-path switches off vs committed tables)";
  let read_file f =
    let ic = open_in_bin f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let failures = ref 0 in
  let check target contents =
    let file = Printf.sprintf "BENCH_%s.json" target in
    if not (Sys.file_exists file) then
      Format.fprintf ppf "  %-10s SKIP (no committed %s)@." target file
    else if read_file file = contents then
      Format.fprintf ppf "  %-10s unchanged@." target
    else begin
      incr failures;
      Format.fprintf ppf "  %-10s MISMATCH vs committed %s@." target file
    end
  in
  check "table2" (json_contents "table2" (t2_json (E.table2 ())));
  check "table3" (json_contents "table3" (t3_json (E.table3 ())));
  check "table4" (json_contents "table4" (t4_json (E.table4 ())));
  Format.fprintf ppf "@.";
  if !failures > 0 then exit 1

let run_figures () =
  section "Figures 1 and 2 (organization structure)";
  E.print_figures ppf ();
  Format.fprintf ppf "@."

let run_ablations () =
  section "Ablation: extended organizations (message driver, dedicated servers)";
  E.print_table2 ppf
    (List.filter
       (fun r -> r.E.t2_system = "mach-ux-msg" || r.E.t2_system = "dedicated")
       (E.table2 ~quick:true ~extended:true ()));
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
  fastpath_cell ~label:"baseline (prediction + fused checksum)" d;
  fastpath_cell ~label:"flow-cache demux on" { d with Uln_proto.Tcp_params.flow_cache = true };
  Format.fprintf ppf
    "  (the other fast-path switches are measured leave-one-out by the@.";
  Format.fprintf ppf "   switches target)@.";
  Format.fprintf ppf "@."

let run_contention () =
  section "Shared-segment scaling: aggregate goodput vs concurrent pairs (Ethernet)";
  let module World = Uln_core.World in
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let rows = ref [] in
  List.iter
    (fun pairs ->
      let w =
        World.create ~network:World.Ethernet ~org:Uln_core.Organization.In_kernel
          ~num_hosts:(2 * pairs) ()
      in
      let sched = World.sched w in
      let bytes = 400_000 in
      let finished = ref Time.zero in
      let remaining = ref pairs in
      for p = 0 to pairs - 1 do
        let sink = World.app w ~host:(2 * p) "sink" in
        let src = World.app w ~host:((2 * p) + 1) "src" in
        Sched.spawn sched ~name:"sink" (fun () ->
            let l = sink.Sockets.listen ~port:9000 in
            let conn = l.Sockets.accept () in
            let rec drain () =
              match conn.Sockets.recv ~max:65536 with Some _ -> drain () | None -> ()
            in
            drain ();
            conn.Sockets.close ();
            decr remaining;
            if !remaining = 0 then finished := Sched.now sched);
        Sched.spawn sched ~name:"src" (fun () ->
            match
              src.Sockets.connect ~src_port:0 ~dst:(World.host_ip w (2 * p)) ~dst_port:9000
            with
            | Error e -> failwith e
            | Ok conn ->
                conn.Sockets.send (View.create bytes);
                conn.Sockets.close ())
      done;
      Sched.run sched;
      let aggregate =
        float_of_int (pairs * bytes * 8)
        /. Uln_engine.Time.to_sec_f (Uln_engine.Time.to_ns !finished)
        /. 1e6
      in
      rows :=
        [ ("pairs", jint pairs);
          ("bytes_per_pair", jint bytes);
          ("aggregate_mbps", jfloat aggregate) ]
        :: !rows;
      Format.fprintf ppf "  %d pair(s): %6.2f Mb/s aggregate@." pairs aggregate)
    [ 1; 2; 3 ];
  write_json "contention" (List.rev !rows);
  Format.fprintf ppf
    "  (distinct sender/receiver pairs share the 10 Mb/s medium; aggregate@.";
  Format.fprintf ppf "   approaches the wire once CPU is no longer the bottleneck)@.";
  Format.fprintf ppf "@."

let run_motivation () =
  section "Motivation (SS1.1): request-response vs byte-stream protocols";
  let module World = Uln_core.World in
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let org = Uln_core.Organization.User_library in
  List.iter
    (fun (network, label) ->
      (* RRP: single-transaction latency (512 B each way). *)
      let w = World.create ~network ~org () in
      let server = World.app w ~host:1 "s" and client = World.app w ~host:0 "c" in
      let rrp_ms =
        Sched.block_on (World.sched w) (fun () ->
            let _svc = server.Sockets.rrp_serve ~port:300 (fun req -> req) in
            let cl = client.Sockets.rrp_client () in
            let payload = View.create 512 in
            ignore (cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 payload);
            let t0 = Sched.now (World.sched w) in
            let n = 20 in
            for _ = 1 to n do
              ignore (cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 payload)
            done;
            Time.to_ms_f (Time.diff (Sched.now (World.sched w)) t0) /. float_of_int n)
      in
      (* TCP: persistent-connection RTT and bulk throughput. *)
      let tcp_rtt =
        (Uln_workload.Pingpong.measure ~exchanges:20 ~size:512 ~network ~org ()).Uln_workload
        .Pingpong
          .avg_rtt
      in
      let tcp_tput =
        (Uln_workload.Bulk.measure ~total_bytes:2_000_000 ~write_size:4096 ~network ~org ())
          .Uln_workload.Bulk.mbps
      in
      (* RRP used for bulk: back-to-back 1400-byte transactions. *)
      let rrp_tput =
        let w = World.create ~network ~org () in
        let server = World.app w ~host:1 "s" and client = World.app w ~host:0 "c" in
        Sched.block_on (World.sched w) (fun () ->
            let _svc = server.Sockets.rrp_serve ~port:300 (fun _ -> View.create 1) in
            let cl = client.Sockets.rrp_client () in
            let payload = View.create 1400 in
            let n = 300 in
            let t0 = Sched.now (World.sched w) in
            for _ = 1 to n do
              ignore (cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 payload)
            done;
            let span = Time.diff (Sched.now (World.sched w)) t0 in
            float_of_int (n * 1400 * 8) /. Uln_engine.Time.to_sec_f span /. 1e6)
      in
      Format.fprintf ppf
        "  %-9s 512B exchange: RRP %5.2f ms vs TCP %5.2f ms | bulk: RRP %5.2f Mb/s vs TCP %5.2f Mb/s@."
        label rrp_ms (Time.to_ms_f tcp_rtt) rrp_tput tcp_tput)
    [ (World.Ethernet, "ethernet"); (World.An1, "an1") ];
  Format.fprintf ppf
    "  (specialized protocols achieve remarkably low latencies but do not@.";
  Format.fprintf ppf "   always deliver the highest throughput - both run as libraries)@.";
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

(* A minutes-to-seconds pass over every subsystem the full benches
   exercise: raw exchange, one TCP bulk cell (recorded as the table2
   row), the scaling experiment at small sizes, the filter-optimizer
   report, and one fast-path ablation point.  Wired into the runtest
   alias so the data path is driven end to end on every test run. *)
let run_smoke () =
  section "Bench smoke (reduced sizes)";
  ignore (Uln_workload.Raw_xchg.run ~total_bytes:100_000 ~user_packet:1460 ());
  let bulk =
    Uln_workload.Bulk.measure ~total_bytes:200_000 ~write_size:4096
      ~network:Uln_core.World.Ethernet ~org:Uln_core.Organization.User_library ()
  in
  Format.fprintf ppf "  bulk userlib/ethernet/4096 (200KB): %6.2f Mb/s@."
    bulk.Uln_workload.Bulk.mbps;
  (* The zero-copy data path, driven end to end on every test run. *)
  let bulk_zc =
    Uln_workload.Bulk.measure ~total_bytes:200_000 ~write_size:4096
      ~tcp_params:
        { Uln_proto.Tcp_params.default with Uln_proto.Tcp_params.zero_copy = true }
      ~network:Uln_core.World.Ethernet ~org:Uln_core.Organization.User_library ()
  in
  Format.fprintf ppf "  bulk userlib-zc (zero-copy path):   %6.2f Mb/s@."
    bulk_zc.Uln_workload.Bulk.mbps;
  write_json "table2"
    [ [ ("network", jstr "ethernet");
        ("system", jstr "userlib");
        ("size", jint 4096);
        ("mbps", jfloat bulk.Uln_workload.Bulk.mbps);
        ("paper", "null") ];
      [ ("network", jstr "ethernet");
        ("system", jstr "userlib-zc");
        ("size", jint 4096);
        ("mbps", jfloat bulk_zc.Uln_workload.Bulk.mbps);
        ("paper", "null") ] ];
  let w =
    Uln_core.World.create ~network:Uln_core.World.Ethernet
      ~org:Uln_core.Organization.User_library
      ~tcp_params:{ Uln_proto.Tcp_params.default with Uln_proto.Tcp_params.flow_cache = true }
      ()
  in
  let r = Uln_workload.Bulk.run ~total_bytes:200_000 ~write_size:4096 w in
  Format.fprintf ppf "  bulk with flow-cache demux on:      %6.2f Mb/s@."
    r.Uln_workload.Bulk.mbps;
  let rows = E.scale ~conns:[ 1; 4; 16; 64 ] () in
  E.print_scale ppf rows;
  let zrows = E.zero_copy_ablation ~quick:true ~sizes:[ 4096 ] () in
  E.print_zero_copy ppf zrows;
  (* The sparse control plane at 64k background connections: sharded
     registry + hierarchical demux driven end to end on every test run. *)
  let sprows = E.scale_sparse ~pops:[ 65536 ] () in
  E.print_sparse ppf sprows;
  write_json "scale" (scale_json rows @ zc_json zrows @ sparse_json sprows);
  (* The SMP model, driven end to end: two pinned pairs on a 2-CPU host. *)
  let smp_row =
    Uln_workload.Smp.run ~bytes_per_pair:200_000
      ~org:Uln_core.Organization.User_library ~cpus:2 ~pairs:2 ()
  in
  print_smp_row smp_row;
  write_json "smp" (smp_json [ smp_row ]);
  (* Connection churn, driven end to end: the sequential oracle and the
     fully-enabled fast path (2 pairs x 64 connections each). *)
  let churn_cell (config, prm) =
    Uln_workload.Churn.run ~pairs:2 ~conns_per_pair:64 ~tcp_params:prm ~config
      ~network:Uln_core.World.Ethernet ~org:Uln_core.Organization.User_library ()
  in
  let crows =
    List.map churn_cell
      (List.filter
         (fun (c, _) -> c = "baseline" || c = "+lease")
         Uln_workload.Churn.configs)
  in
  Uln_workload.Churn.print ppf crows;
  (* One populated-churn cell so the sharded/hierarchical connect path
     is exercised here too (small population — smoke stays fast). *)
  let scrows = sparse_churn_rows ~pops:[ 4096 ] () in
  Uln_workload.Churn.print ppf scrows;
  write_json "churn" (churn_json crows @ churn_sparse_json scrows);
  (* The modern-TCP WAN path — wscale + timestamps + SACK recovery over
     a lossy long-delay link — driven end to end on every test run. *)
  ignore
    (wan_cell ~total_bytes:1_000_000 ~delay_ms:5 ~loss:0.005
       ("wan+wscale+sack", List.assoc "wan+wscale+sack" wan_configs));
  (* The small-message fast path, driven end to end: one open-loop
     fan-out RPC cell and one incast overload cell on the coalesced
     configuration (rx aggregation + burst ACKs + NAPI). *)
  (let open Uln_workload.Scenario in
   let coalesced = List.assoc "coalesced" rpc_configs in
   let fanout =
     { default with
       servers = 4;
       requests = 60;
       resp = Mix { mice = 256; elephants = 8192; elephant_frac = 0.25 } }
   in
   let r = measure ~tcp_params:coalesced ~network:scenario_network fanout in
   write_json "rpc"
     (scenario_row ~scenario:"rpc/fanout" ~config:"coalesced" fanout r
     :: [] |> List.map (fun row -> row @ [ ("saturation_rps", jfloat 0.) ]));
   let inc = { (incast ()) with requests = 40 } in
   let sat = saturation ~tcp_params:coalesced ~network:scenario_network inc in
   let ovr =
     measure ~tcp_params:coalesced ~network:scenario_network { inc with rate = 4. *. sat }
   in
   write_json "overload"
     [ scenario_row ~scenario:"incast/overload" ~config:"coalesced" inc ovr
       @ [ ("saturation_rps", jfloat sat); ("multiplier", jfloat 4.) ] ]);
  (* The transmit fast path, driven end to end on every test run: a
     reduced GSO bulk cell, the full tx_fast cell, and one paced
     incast. *)
  let txrows =
    List.map
      (tx_bulk_cell ~total_bytes:400_000)
      [ ("tx bulk an1/+gso", Uln_core.World.An1, "+gso");
        ("tx bulk an1/tx_fast", Uln_core.World.An1, "tx_fast") ]
  in
  (let open Uln_workload.Scenario in
   let inc = { (incast ()) with requests = 40 } in
   let sat = saturation ~tcp_params:tx_paced ~network:scenario_network inc in
   let r = measure ~tcp_params:tx_paced ~network:scenario_network { inc with rate = 0.7 *. sat } in
   let prow =
     scenario_row ~scenario:"tx incast" ~config:"pacing" inc r
     @ [ ("saturation_rps", jfloat sat); ("row", jstr "tx incast/pacing") ]
   in
   write_json "tx" (List.map (fun (_, _, _, j) -> j) txrows @ [ prow ]));
  run_filteropt ();
  Format.fprintf ppf "@."

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let flags, targets = List.partition (fun a -> a = "--json") args in
  json_enabled := flags <> [];
  let what = match targets with [] -> "all" | t :: _ -> t in
  match what with
  | "table1" -> run_table1 ()
  | "table2" -> run_table2 ()
  | "table3" -> run_table3 ()
  | "table4" -> run_table4 ()
  | "table5" -> run_table5 ()
  | "figures" -> run_figures ()
  | "ablations" -> run_ablations ()
  | "motivation" -> run_motivation ()
  | "contention" -> run_contention ()
  | "filteropt" -> run_filteropt ()
  | "scale" -> run_scale ()
  | "smp" -> run_smp ()
  | "smoke" -> run_smoke ()
  | "micro" -> run_micro ()
  | "churn" -> run_churn ()
  | "wan" -> run_wan ()
  | "rpc" -> run_rpc ()
  | "overload" -> run_overload ()
  | "tx" -> run_tx ()
  | "switches" -> run_switches ()
  | "diffcheck" -> run_diffcheck ()
  | "all" ->
      run_table1 ();
      run_table2 ();
      run_table3 ();
      run_table4 ();
      run_table5 ();
      run_scale ();
      run_smp ();
      run_churn ();
      run_wan ();
      run_rpc ();
      run_overload ();
      run_tx ();
      run_switches ();
      run_figures ();
      run_ablations ();
      run_motivation ();
      run_contention ();
      run_filteropt ();
      run_micro ()
  | other ->
      Format.eprintf
        "unknown argument %s (expected [--json] \
         all|table1..table5|figures|ablations|motivation|contention|filteropt|scale|smp|smoke|\
         churn|wan|rpc|overload|tx|switches|diffcheck|micro)@."
        other;
      exit 1
