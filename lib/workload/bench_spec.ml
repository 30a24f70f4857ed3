(* The bench harness as data.  Every measured table is a target; a
   target is its row specs in run order; one generic runner prints,
   writes and re-derives them, and the switch audit runs any spec
   leave-one-out. *)

module Time = Uln_engine.Time
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Org = Uln_core.Organization
module E = Experiments

type row = (string * string) list

type spec = {
  name : string;
  preset_name : string;
  preset : Tcp_params.t;
  size : string;
  keys : string list;
  run : Tcp_params.t -> row list;
}

type target = {
  target : string;
  title : string;
  specs : spec list;
  leave_one_out : bool;
  diffcheck : bool;
  trailer : Format.formatter -> row list -> unit;
}

let spec ?(preset_name = "default") ?(preset = Tcp_params.default) ?(keys = []) ~size name run
    =
  { name; preset_name; preset; size; keys; run }

(* A spec whose rows do not depend on the parameters. *)
let fixed ?keys ~size name rows = spec ?keys ~size name (fun _ -> rows ())

let no_trailer _ _ = ()

let table ?(diffcheck = false) ?(leave_one_out = false) ?(trailer = no_trailer) target title
    specs =
  { target; title; specs; leave_one_out; diffcheck; trailer }

(* --- one converter per cell kind --------------------------------------- *)

let jstr = Jout.str
let jint = Jout.int
let jfloat = Jout.float

(* Percentile summaries flattened into "<prefix>p50_us"-style fields. *)
let pfields prefix s = List.map (fun (k, v) -> (prefix ^ k, v)) (Percentile.summary_fields s)

let raw_fields (r : Raw_xchg.row) =
  [ ("user_packet", jint r.Raw_xchg.user_packet);
    ("mbps", jfloat r.Raw_xchg.mbps);
    ("saturation_mbps", jfloat r.Raw_xchg.saturation_mbps);
    ("percent_of_raw", jfloat r.Raw_xchg.percent_of_raw) ]

let t2_fields (r : E.t2_row) =
  [ ("network", jstr r.E.t2_network);
    ("system", jstr r.E.t2_system);
    ("size", jint r.E.t2_size);
    ("mbps", jfloat r.E.t2_mbps);
    ("paper", Jout.opt r.E.t2_paper) ]

let t3_fields (r : E.t3_row) =
  [ ("network", jstr r.E.t3_network);
    ("system", jstr r.E.t3_system);
    ("size", jint r.E.t3_size);
    ("rtt_ms", jfloat r.E.t3_rtt_ms) ]
  @ pfields "" r.E.t3_rtt
  @ [ ("paper", Jout.opt r.E.t3_paper) ]

let t4_fields (r : E.t4_row) =
  [ ("network", jstr r.E.t4_network);
    ("system", jstr r.E.t4_system);
    ("setup_ms", jfloat r.E.t4_setup_ms);
    ("paper", Jout.opt r.E.t4_paper) ]

let t5_fields (r : E.t5_row) =
  [ ("interface", jstr r.E.t5_interface);
    ("us_per_packet", jfloat r.E.t5_us);
    ("paper", Jout.opt r.E.t5_paper) ]

let scale_fields (r : E.scale_row) =
  [ ("conns", jint r.E.sc_conns);
    ("scan_cycles", jfloat r.E.sc_scan_cycles);
    ("hit_cycles", jfloat r.E.sc_hit_cycles);
    ("hits", jint r.E.sc_hits);
    ("misses", jint r.E.sc_misses) ]

let zc_fields (r : E.zc_row) =
  [ ("ablation", jstr "zero-copy");
    ("network", jstr r.E.zc_network);
    ("size", jint r.E.zc_size);
    ("mbps_copy", jfloat r.E.zc_mbps_copy);
    ("mbps_zero_copy", jfloat r.E.zc_mbps_zero_copy);
    ("gain_pct", jfloat r.E.zc_gain_pct) ]

let sparse_fields (r : E.sparse_row) =
  [ ("bench", jstr "sparse-scale");
    ("conns", jint r.E.sp_conns);
    ("miss_p50_cycles", jfloat r.E.sp_miss_p.Percentile.p50);
    ("miss_p99_cycles", jfloat r.E.sp_miss_p.Percentile.p99);
    ("miss_p999_cycles", jfloat r.E.sp_miss_p.Percentile.p999);
    ("linear_cycles", jfloat r.E.sp_linear_cycles) ]
  @ pfields "setup_" r.E.sp_setup_p
  @ pfields "delivery_" r.E.sp_delivery_p
  @ [ ("shards", jint r.E.sp_shards); ("lock_contended", jint r.E.sp_lock_contended) ]

let smp_fields (r : Smp.result) =
  [ ("org", jstr r.Smp.r_org);
    ("locking", jstr r.Smp.r_locking);
    ("cpus", jint r.Smp.r_cpus);
    ("pairs", jint r.Smp.r_pairs);
    ("mbps", jfloat r.Smp.r_mbps);
    ("cpu0_util", jfloat r.Smp.r_cpu0_util);
    ("avg_util", jfloat r.Smp.r_avg_util);
    ("max_util", jfloat r.Smp.r_max_util);
    ("migrations", jint r.Smp.r_migrations);
    ("lock_acquisitions", jint r.Smp.r_lock_acquisitions);
    ("lock_contended", jint r.Smp.r_lock_contended);
    ("lock_wait_ms", jfloat (float_of_int r.Smp.r_lock_wait_ns /. 1e6)) ]

(* Populated-server rows carry the background population and the
   churn-phase latency percentiles on top of the flat fields. *)
let churn_fields (r : Churn.result) =
  [ ("system", jstr r.Churn.r_system);
    ("config", jstr r.Churn.r_config);
    ("pairs", jint r.Churn.r_pairs);
    ("conns", jint r.Churn.r_conns);
    ("conns_per_sec", jfloat r.Churn.r_conns_per_sec);
    ("setup_ms", jfloat r.Churn.r_setup_ms);
    ("churn_ms", jfloat r.Churn.r_churn_ms);
    ("leg_port_alloc_ms", jfloat r.Churn.r_leg_port_alloc_ms);
    ("leg_round_trip_ms", jfloat r.Churn.r_leg_round_trip_ms);
    ("leg_finish_ms", jfloat r.Churn.r_leg_finish_ms);
    ("pool_hit_rate", jfloat r.Churn.r_pool_hit_rate);
    ("lease_hit_rate", jfloat r.Churn.r_lease_hit_rate);
    ("tw_parked", jint r.Churn.r_tw_parked) ]
  @
  if r.Churn.r_population = 0 then []
  else ("population", jint r.Churn.r_population) :: pfields "churn_" r.Churn.r_churn_p

let scenario_fields ~scenario ~config (c : Scenario.conf) (r : Scenario.result) =
  [ ("scenario", jstr scenario);
    ("config", jstr config);
    ("servers", jint c.Scenario.servers);
    ("requests", jint c.Scenario.requests);
    ("offered_rps", jfloat r.Scenario.offered_rps);
    ("delivered_rps", jfloat r.Scenario.delivered_rps);
    ("completed", jint r.Scenario.completed);
    ("expired", jint r.Scenario.expired);
    ("ring_drops", jint r.Scenario.ring_drops);
    ("ring_overflows", jint r.Scenario.ring_overflows);
    ("interrupts", jint r.Scenario.interrupts);
    ("polls", jint r.Scenario.polls) ]
  @ pfields "" r.Scenario.latency

(* --- cells ------------------------------------------------------------- *)

(* One Table 2 cell on the user library over Ethernet. *)
let bulk_cell ?(total_bytes = 4_000_000) ~system prm =
  [ t2_fields
      (E.t2_cell ~total_bytes ~tcp_params:prm (World.Ethernet, system, Org.User_library) 4096) ]

let bulk_size = "ethernet, 4 MB in 4096 B writes"
let zc_preset = { Tcp_params.default with Tcp_params.zero_copy = true }

let smp_configs =
  [ (Org.User_library, `Big_lock);
    (Org.Single_server `Mapped, `Big_lock);
    (Org.In_kernel, `Big_lock);
    (Org.In_kernel, `Per_conn) ]

let locking_name = function `Big_lock -> "big_lock" | `Per_conn -> "per_conn"

let smp_cell ?(bytes_per_pair = 1_000_000) ~org ~cpus ~pairs (prm : Tcp_params.t) =
  smp_fields
    (Smp.run ~bytes_per_pair ~locking:prm.Tcp_params.smp_locking ~org ~cpus ~pairs ())

let churn_keys = [ "conns_per_sec"; "setup_ms"; "churn_ms" ]

let churn_cell ?(pairs = 6) ?(conns_per_pair = 64) ?(org = Org.User_library) ~config name preset =
  spec name ~preset_name:config ~preset ~keys:churn_keys
    ~size:(Printf.sprintf "%d pairs x %d connections" pairs conns_per_pair)
    (fun prm ->
      [ churn_fields
          (Churn.run ~pairs ~conns_per_pair ~tcp_params:prm ~config ~network:World.Ethernet ~org
             ()) ])

(* Populated-server churn: every connect crosses a demux already loaded
   with [population] background connections, with the sharded registry
   and the hierarchical miss path on (their defaults are the flat/linear
   oracles the differential tests pin). *)
let sparse_params =
  { Tcp_params.fast with Tcp_params.hier_demux = true; shard_registry = true }

let populated_cell ?(conns_per_pair = 128) ?name population =
  let config = Printf.sprintf "+shard@%dk" (population / 1024) in
  spec (Option.value name ~default:config) ~preset_name:"hier+shard" ~preset:sparse_params
    ~keys:[ "conns_per_sec"; "setup_ms"; "churn_p50_us"; "churn_p99_us" ]
    ~size:(Printf.sprintf "%d background connections, %d live" population conns_per_pair)
    (fun prm ->
      [ churn_fields
          (Churn.run ~pairs:1 ~conns_per_pair ~cpus:4 ~population ~tcp_params:prm ~config
             ~network:World.Ethernet ~org:Org.User_library ()) ])

(* The four ablation ladders of the modern-TCP switches, plus the
   congestion-control comparison at the same operating point.  The
   baseline is the pre-RFC1323 engine at its 64 KB window ceiling; the
   others raise the buffers to 1 MB and turn the switches on one ladder
   step at a time. *)
let wan_configs =
  let open Tcp_params in
  (* Every rung runs on the fine 1 ms timer wheel of the [wan] preset —
     the coarse 100 ms heartbeat turns a one-tick RTO into spurious
     retransmissions under a WAN round trip, which would swamp the
     window/SACK/congestion-control effects the ladder isolates.  The
     RTO floor likewise has to clear the longest RTT plus the peer's
     delayed ACK (here 80 + 20 ms), or every single-segment tail times
     out spuriously. *)
  let fast =
    { fast with timer_granularity = Time.ms 1; min_rto = Time.ms 200; initial_rto = Time.ms 400 }
  in
  let big p = { p with snd_buf = 1 lsl 20; rcv_buf = 1 lsl 20 } in
  [ ("wan-baseline", { fast with snd_buf = 65535; rcv_buf = 65535 });
    ("wan+wscale", big { fast with window_scale = true; timestamps = true });
    ("wan+wscale+sack", big { fast with window_scale = true; timestamps = true; sack = true });
    ( "wan+sack+newreno",
      big { fast with window_scale = true; timestamps = true; sack = true; cong_control = `Newreno }
    );
    ("wan+sack+cubic", wan) ]

(* Lossy cells average over several loss realizations: a 8 MB run at
   0.2% loss sees only ~20 drops, and which segments they land on
   swings goodput by +-20% — enough for one unlucky draw to invert the
   ranking of two statistically equal configurations.  The
   recovery-time percentiles pool the samples of every realization.
   Zero-loss cells are deterministic and run once. *)
let seeds = [ 7; 11; 23; 41; 97 ]

let wan_cell ?total_bytes ~delay_ms ~loss ~config prm =
  let seeds = if loss = 0.0 then [ 7 ] else seeds in
  let rs =
    List.map
      (fun seed -> Wan.measure ?total_bytes ~seed ~delay:(Time.ms delay_ms) ~loss ~params:prm ())
      seeds
  in
  let goodputs = List.map (fun r -> r.Wan.goodput_mbps) rs in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rs in
  let recovery = Array.concat (List.map (fun r -> r.Wan.recovery_us) rs) in
  let s =
    if Array.length recovery = 0 then { Percentile.p50 = 0.; p99 = 0.; p999 = 0. }
    else Percentile.summarize recovery
  in
  let r0 = List.hd rs in
  [ ("config", jstr config);
    ("delay_ms", jint delay_ms);
    ("loss", jfloat loss);
    ("goodput_mbps", jfloat (List.fold_left ( +. ) 0. goodputs /. float_of_int (List.length rs)));
    ("goodput_min_mbps", jfloat (List.fold_left Stdlib.min infinity goodputs));
    ("goodput_max_mbps", jfloat (List.fold_left Stdlib.max neg_infinity goodputs));
    ("seeds", jint (List.length seeds));
    ("bytes", jint (sum (fun r -> r.Wan.bytes)));
    ("segments_out", jint (sum (fun r -> r.Wan.segments_out)));
    ("retransmissions", jint (sum (fun r -> r.Wan.retransmissions)));
    ("sack_rexmits", jint (sum (fun r -> r.Wan.sack_rexmits)));
    ("snd_scale", jint r0.Wan.snd_scale);
    ("cong", jstr r0.Wan.cong);
    ("recovery_samples", jint (Array.length recovery)) ]
  @ pfields "recovery_" s

(* The small-message fast path's two measurement configurations: the
   interrupt-per-packet baseline (the [fast] preset — every prior
   optimization on, coalescing off) against the [coalesced] preset
   (rx aggregation + burst ACKs + NAPI-style interrupt suppression).
   Both run with Nagle off, the normal setting for request/response
   traffic (send-side batching of sub-MSS replies would hide the
   receive-path costs under test behind the delayed-ACK clock). *)
let rpc_configs =
  let open Tcp_params in
  [ ("per-packet", { fast with nagle = false }); ("coalesced", { coalesced with nagle = false }) ]

let coalesced = List.assoc "coalesced" rpc_configs

(* The scenarios run on the 100 Mb/s AN1: on the 10 Mb/s Ethernet an
   8-way incast of 8 KB responses is link-bound (~19 rps ceiling), so
   the per-packet notification overhead the fast path removes never
   becomes the bottleneck. *)
let scenario_network = World.An1

let fanout =
  { Scenario.default with
    Scenario.servers = 4;
    resp = Scenario.Mix { mice = 256; elephants = 8192; elephant_frac = 0.25 } }

(* Saturation probes ride on queue dynamics (which arrival lands on a
   full ring, which request expires at the deadline), so like the lossy
   WAN cells they average across seeds.  The measurement runs keep the
   conf's own seed so the latency percentiles stay comparable across
   revisions. *)
let saturation ?(seeds = seeds) ~prm conf =
  let sats =
    List.map
      (fun seed ->
        Scenario.saturation ~tcp_params:prm ~network:scenario_network
          { conf with Scenario.seed })
      seeds
  in
  let mean = List.fold_left ( +. ) 0. sats /. float_of_int (List.length sats) in
  ( mean,
    [ ("saturation_rps", jfloat mean);
      ("saturation_min_rps", jfloat (List.fold_left Stdlib.min infinity sats));
      ("saturation_max_rps", jfloat (List.fold_left Stdlib.max neg_infinity sats));
      ("saturation_seeds", jint (List.length seeds)) ] )

let measured ~scenario ~config ~prm ~sat:(sat, sat_fields) conf mult =
  let r =
    Scenario.measure ~tcp_params:prm ~network:scenario_network
      { conf with Scenario.rate = mult *. sat }
  in
  scenario_fields ~scenario ~config conf r @ sat_fields

let rpc_keys =
  [ "saturation_rps"; "saturation_min_rps"; "saturation_max_rps"; "delivered_rps"; "p50_us";
    "p99_us" ]

(* One scenario cell: probe this configuration's saturation rate
   (seed-averaged), then offer 70% of it open-loop — loaded but not
   drowning, so the latency percentiles measure the path rather than
   the queue.  [tag] adds the spec's name as the row's [row] field. *)
let rpc_cell ?(tag = false) ?(seeds = seeds) ~scenario ~requests ~config ?(preset = coalesced)
    conf name =
  spec name ~preset_name:config ~preset ~keys:rpc_keys
    ~size:(Printf.sprintf "%d requests, saturation x %d seeds" requests (List.length seeds))
    (fun prm ->
      let conf = { conf with Scenario.requests } in
      [ measured ~scenario ~config ~prm ~sat:(saturation ~seeds ~prm conf) conf 0.7
        @ if tag then [ ("row", jstr name) ] else [] ])

(* One overload configuration: its seed-averaged saturation rate,
   probed once, then one open-loop run per offered multiple of it. *)
let overload_cell ?(mults = [ 0.5; 1.0; 2.0; 4.0 ]) ?(requests = 200) ?seeds ~config ~preset name =
  let conf = Scenario.incast ~requests () in
  spec name ~preset_name:config ~preset
    ~keys:
      [ "saturation_rps"; "saturation_min_rps"; "saturation_max_rps"; "delivered_rps"; "p99_us";
        "ring_drops" ]
    ~size:
      (Printf.sprintf "%d requests, %s saturation" requests
         (String.concat "/" (List.map (Printf.sprintf "%gx") mults)))
    (fun prm ->
      let sat = saturation ?seeds ~prm conf in
      List.map
        (fun mult ->
          measured ~scenario:"incast/overload" ~config ~prm ~sat conf mult
          @ [ ("multiplier", jfloat mult) ])
        mults)

(* The sender-side ladder.  [zc-base] is the zero-copy baseline the
   transmit path is measured against; [zc-deep] adds the deep buffers
   every later rung runs with (an offload episode can only be as large
   as the send queue — this rung shows depth alone moves nothing);
   [+gso] adds segmentation offload; [rx-coal] is the coalesced
   receive path WITHOUT the transmit switches, so the [tx_fast]
   headline decomposes into its receive-side and transmit-side
   contributions. *)
let tx_params =
  let open Tcp_params in
  let zc = { fast with zero_copy = true } in
  let deep = { zc with snd_buf = 1 lsl 16; rcv_buf = 1 lsl 16 } in
  [ ("zc-base", zc);
    ("zc-deep", deep);
    ("+gso", { deep with tx_gso = true });
    ( "rx-coal",
      { coalesced with
        zero_copy = true;
        snd_buf = 1 lsl 16;
        rcv_buf = 1 lsl 16;
        timer_granularity = Time.ms 1 } );
    ("nopace", { tx_fast with pacing = false });
    ("tx_fast", tx_fast) ]

(* One sender-limited bulk cell.  The world is built here (rather than
   through [Bulk.measure]) so the sender's CPU time and the NIC's
   transmit-queue counters can be read back after the run: per-byte
   transmit CPU is the number GSO exists to shrink, and the
   episode/frame counters prove the offload actually engaged rather
   than falling back per-segment. *)
let tx_bulk_cell ?(total_bytes = 4_000_000) network config =
  let name = Printf.sprintf "tx bulk %s/%s" (World.network_name network) config in
  spec name ~preset_name:config ~preset:(List.assoc config tx_params)
    ~keys:[ "mbps"; "tx_cpu_ns_per_byte"; "gso_episodes" ]
    ~size:
      (Printf.sprintf "%s, %d MB in 8192 B writes" (World.network_name network)
         (total_bytes / 1_000_000))
    (fun prm ->
      let w = World.create ~network ~org:Org.User_library ~tcp_params:prm () in
      let r = Bulk.run ~total_bytes ~write_size:8192 w in
      let cpu = Uln_host.Machine.cpu_at (World.machine w 0) 0 in
      let txq = Uln_core.Netio.txq_stats (Option.get (World.netio w 0)) in
      [ [ ("row", jstr name);
          ("config", jstr config);
          ("network", jstr (World.network_name network));
          ("mbps", jfloat r.Bulk.mbps);
          ("bytes", jint r.Bulk.bytes);
          ("retransmissions", jint r.Bulk.retransmissions);
          ( "tx_cpu_ns_per_byte",
            jfloat
              (float_of_int (Uln_host.Cpu.busy_ns cpu)
              /. float_of_int (Stdlib.max 1 r.Bulk.bytes)) );
          ("gso_episodes", jint txq.Uln_net.Txq.gso_episodes);
          ("gso_frames", jint txq.Uln_net.Txq.gso_frames) ] ])

(* Pacing on request/response traffic: the coalesced receive-path
   configuration with the whole transmit path on top.  The pacer
   spreads each flow's bursts across its own cwnd/srtt budget; the
   check is that it holds the delivered-rate numbers of the unpaced
   configuration while smoothing the incast bursts. *)
let tx_paced =
  { coalesced with
    Tcp_params.timer_granularity = Time.ms 1;
    tx_gso = true;
    pacing = true }

(* Aggregate goodput of [pairs] in-kernel bulk pairs sharing one
   Ethernet segment. *)
let contention_cell pairs prm =
  let module Sockets = Uln_core.Sockets in
  let module Sched = Uln_engine.Sched in
  let w =
    World.create ~network:World.Ethernet ~org:Org.In_kernel ~num_hosts:(2 * pairs)
      ~tcp_params:prm ()
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
        match src.Sockets.connect ~src_port:0 ~dst:(World.host_ip w (2 * p)) ~dst_port:9000 with
        | Error e -> failwith e
        | Ok conn ->
            conn.Sockets.send (Uln_buf.View.create bytes);
            conn.Sockets.close ())
  done;
  Sched.run sched;
  [ [ ("pairs", jint pairs);
      ("bytes_per_pair", jint bytes);
      ( "aggregate_mbps",
        jfloat (float_of_int (pairs * bytes * 8) /. Time.to_sec_f (Time.to_ns !finished) /. 1e6)
      ) ] ]

(* The intro's protocol-multiplicity claim (paper SS1.1), both
   transports as user libraries: 20 timed 512 B exchanges (after one
   warm-up RRP call) and bulk as 300 back-to-back 1400 B RRP calls
   against a 2 MB TCP transfer. *)
let motivation_cell network =
  let org = Org.User_library in
  fixed
    (Printf.sprintf "motivation %s" (World.network_name network))
    ~keys:[ "rrp_exchange_ms"; "tcp_exchange_ms"; "rrp_mbps"; "tcp_mbps" ]
    ~size:"20 x 512 B exchanges; 300 x 1400 B RRP calls vs 2 MB of TCP"
    (fun () ->
      let rrp_ms =
        Time.to_ms_f
          (E.rrp_calls ~warmup:1 ~calls:20 ~size:512 ~reply:Fun.id ~network ~org ())
        /. 20.
      in
      let tcp_rtt = (Pingpong.measure ~exchanges:20 ~size:512 ~network ~org ()).Pingpong.avg_rtt in
      let tcp_mbps =
        (Bulk.measure ~total_bytes:2_000_000 ~write_size:4096 ~network ~org ()).Bulk.mbps
      in
      let rrp_span =
        E.rrp_calls ~calls:300 ~size:1400
          ~reply:(fun _ -> Uln_buf.View.create 1)
          ~network ~org ()
      in
      [ [ ("network", jstr (World.network_name network));
          ("rrp_exchange_ms", jfloat rrp_ms);
          ("tcp_exchange_ms", jfloat (Time.to_ms_f tcp_rtt));
          ("rrp_mbps", jfloat (float_of_int (300 * 1400 * 8) /. Time.to_sec_f rrp_span /. 1e6));
          ("tcp_mbps", jfloat tcp_mbps) ] ])

(* --- printing ---------------------------------------------------------- *)

let section ppf title = Format.fprintf ppf "@.=== %s ===@." title

let unquote v =
  let n = String.length v in
  if n >= 2 && v.[0] = '"' then String.sub v 1 (n - 2) else v

(* One column printer for every row shape: consecutive rows with the
   same fields share a header; strings align left, numbers right. *)
let rec print_rows ppf = function
  | [] -> ()
  | first :: _ as rows ->
      let keys = List.map fst first in
      let rec split acc = function
        | r :: rest when List.map fst r = keys -> split (List.map snd r :: acc) rest
        | rest -> (List.rev acc, rest)
      in
      let cells, rest = split [] rows in
      let left = List.map (fun (_, v) -> v <> "" && v.[0] = '"') first in
      let cells = List.map (List.map unquote) cells in
      let widths =
        List.mapi
          (fun i k ->
            List.fold_left
              (fun w c -> Stdlib.max w (String.length (List.nth c i)))
              (String.length k) cells)
          keys
      in
      let line cs =
        let pad w l c = if l then Printf.sprintf "%-*s" w c else Printf.sprintf "%*s" w c in
        Format.fprintf ppf "  %s@."
          (String.concat " " (List.map2 (fun (w, l) c -> pad w l c) (List.combine widths left) cs))
      in
      line keys;
      List.iter line cells;
      print_rows ppf rest

(* A field of the first row matching every [(key, string value)]; nan
   when absent. *)
let value rows matches key =
  match
    List.find_opt
      (fun r -> List.for_all (fun (k, v) -> List.assoc_opt k r = Some (jstr v)) matches)
      rows
  with
  | Some r -> Option.value (float_of_string_opt (List.assoc key r)) ~default:nan
  | None -> nan

let notes lines ppf _ = List.iter (Format.fprintf ppf "  %s@.") lines

(* --- the targets, in [all] order ---------------------------------------- *)

let series_spec ~table ~sizes ~keys cell (network, system, org, preset) =
  spec
    (Printf.sprintf "%s %s/%s" table (World.network_name network) system)
    ~preset_name:(if preset = Tcp_params.default then "default" else "default+zero_copy")
    ~preset ~keys ~size:(String.concat "/" (List.map string_of_int sizes) ^ " B")
    (fun prm -> List.map (cell ~tcp_params:prm (network, system, org)) sizes)

let targets =
  [ table ~diffcheck:true "table1" "Table 1 (mechanism overhead, Ethernet)"
      [ fixed "table1" ~size:"4 MB per user packet size" ~keys:[ "mbps"; "percent_of_raw" ]
          (fun () -> List.map raw_fields (E.table1 ())) ];
    table ~diffcheck:true "table2" "Table 2 (TCP throughput)"
      (List.map
         (series_spec ~table:"table2" ~sizes:E.t2_sizes ~keys:[ "mbps" ] (fun ~tcp_params c s ->
              t2_fields (E.t2_cell ~tcp_params c s)))
         (E.series ()));
    table ~diffcheck:true "table3" "Table 3 (round-trip latency)"
      (List.map
         (series_spec ~table:"table3" ~sizes:E.t3_sizes ~keys:[ "rtt_ms"; "p99_us" ]
            (fun ~tcp_params c s -> t3_fields (E.t3_cell ~tcp_params c s)))
         (E.series ()));
    table ~diffcheck:true "table4" "Table 4 (connection setup)"
      ~trailer:(fun ppf _ ->
        Format.fprintf ppf "@.%a@." E.print_breakdown (E.setup_breakdown ()))
      [ fixed "table4" ~size:"10 connects per system" ~keys:[ "setup_ms" ] (fun () ->
            List.map t4_fields (E.table4 ())) ];
    table ~diffcheck:true "table5" "Table 5 (demultiplexing cost)"
      [ fixed "table5" ~size:"400 KB in 1460 B writes" ~keys:[ "us_per_packet" ] (fun () ->
            List.map t5_fields (E.table5 ())) ];
    (* The organizations the paper describes but does not measure,
       pinned at the reduced sizes the ablations report prints. *)
    table ~diffcheck:true "orgs" "Extended organizations (message driver, dedicated servers)"
      (let series =
         List.concat_map
           (fun network ->
             List.map
               (fun org -> (network, E.sys_name org, org, Tcp_params.default))
               [ Org.Single_server `Message; Org.Dedicated_servers ])
           [ World.Ethernet; World.An1 ]
       in
       List.map
         (series_spec ~table:"orgs table2" ~sizes:E.t2_sizes ~keys:[ "mbps" ]
            (fun ~tcp_params c s -> t2_fields (E.t2_cell ~total_bytes:1_500_000 ~tcp_params c s)))
         series
       @ List.map
           (series_spec ~table:"orgs table3" ~sizes:E.t3_sizes ~keys:[ "rtt_ms"; "p99_us" ]
              (fun ~tcp_params c s -> t3_fields (E.t3_cell ~exchanges:10 ~tcp_params c s)))
           series);
    table ~diffcheck:true "scale"
      "Connection scaling: flow-cache demux, zero-copy ablation, 64k-1M sparse sweep"
      [ fixed "flow-cache scaling" ~size:"1-1024 connections" ~keys:[ "scan_cycles"; "hit_cycles" ]
          (fun () -> List.map scale_fields (E.scale ()));
        fixed "zero-copy ablation" ~size:"4 MB per write size" ~keys:[ "gain_pct" ] (fun () ->
            List.map zc_fields (E.zero_copy_ablation ()));
        fixed "sparse sweep" ~size:"64k-1M background connections"
          ~keys:[ "miss_p99_cycles"; "setup_p99_us" ] (fun () ->
            List.map sparse_fields (E.scale_sparse ())) ];
    table ~diffcheck:true "smp" "SMP scaling (AN1, concurrent bulk pairs, per-CPU pinning)"
      ~trailer:
        (notes
           [ "(userlib and per-connection-locked kernels scale with CPUs; the";
             " single-server organization is flat - one server serializes all pairs)" ])
      (List.map
         (fun (org, locking) ->
           spec
             (Printf.sprintf "smp %s/%s" (E.sys_name org) (locking_name locking))
             ~preset_name:(locking_name locking) ~preset:(Smp.params locking)
             ~keys:[ "mbps"; "avg_util"; "lock_contended" ]
             ~size:"1 MB per pair, 1-8 CPUs x 1-8 pairs"
             (fun prm ->
               List.concat_map
                 (fun cpus -> List.map (fun pairs -> smp_cell ~org ~cpus ~pairs prm) [ 1; 2; 4; 8 ])
                 [ 1; 2; 4; 8 ]))
         smp_configs);
    (* Six concurrent pairs saturate the shared client host, so the
       ladder measures the CPU cost per connection of each
       configuration; the reference organizations run [fast] too. *)
    table ~diffcheck:true "churn"
      "Connection churn: setup fast-path ladder, then 64k-1M populated servers"
      (List.map (fun (config, prm) -> churn_cell ~config config prm) Churn.configs
      @ List.map
          (fun org ->
            churn_cell ~org ~config:"baseline" (E.sys_name org ^ " baseline") Tcp_params.fast)
          [ Org.Single_server `Mapped; Org.In_kernel ]
      @ List.map populated_cell [ 65536; 262144; 1048576 ]);
    table "wan" "WAN: lossy high-BDP transfer (delay x loss x modern-TCP switches)"
      (List.concat_map
         (fun (delay_ms, loss) ->
           List.map
             (fun (config, preset) ->
               spec
                 (Printf.sprintf "%s@%dms/%g%%" config delay_ms (loss *. 100.))
                 ~preset_name:config ~preset
                 ~keys:[ "goodput_mbps"; "goodput_min_mbps"; "goodput_max_mbps"; "retransmissions" ]
                 ~size:"8 MB in 64 KB writes"
                 (fun prm -> [ wan_cell ~delay_ms ~loss ~config prm ]))
             wan_configs)
         [ (5, 0.0); (5, 0.01); (40, 0.0); (40, 0.002); (40, 0.01) ]);
    table "rpc" "Open-loop RPC (request/response, fan-out, heavy tails, incast)"
      ~trailer:(fun ppf rows ->
        let sat config = value rows [ ("scenario", "incast/8"); ("config", config) ] "saturation_rps" in
        Format.fprintf ppf "  incast/8 coalesced/per-packet saturation: %.2fx@."
          (sat "coalesced" /. sat "per-packet"))
      (List.concat_map
         (fun (scenario, conf) ->
           List.map
             (fun (config, preset) ->
               rpc_cell ~scenario ~requests:300 ~config ~preset conf (scenario ^ " " ^ config))
             rpc_configs)
         [ ("rpc/rr", Scenario.default);
           ("rpc/fanout", fanout);
           ("rpc/heavytail", { Scenario.default with Scenario.arrival = Scenario.Heavy_tail 1.5 });
           ("incast/8", Scenario.incast ()) ]);
    table "overload" "Incast overload (offered load vs delivered, open loop)"
      (List.map
         (fun (config, preset) -> overload_cell ~config ~preset ("overload " ^ config))
         rpc_configs);
    table "tx" "Transmit fast path: sender-limited bulk (tx_gso / pacing), pacing under load"
      ~trailer:(fun ppf rows ->
        let v row key = value rows [ ("row", row) ] key in
        let ratio key = v "tx bulk an1/tx_fast" key /. v "tx bulk an1/zc-base" key in
        let sat s = v (s ^ "/pacing") "saturation_rps" /. v (s ^ "/coalesced") "saturation_rps" in
        Format.fprintf ppf
          "  tx_fast vs zc-base (an1): %.2fx throughput, %.2fx tx cpu per byte@.\
          \  pacing/coalesced saturation: mix %.2fx, incast %.2fx@."
          (ratio "mbps") (ratio "tx_cpu_ns_per_byte") (sat "tx mix") (sat "tx incast"))
      (List.map (tx_bulk_cell World.An1) [ "zc-base"; "zc-deep"; "+gso"; "rx-coal"; "tx_fast" ]
      @ List.map (tx_bulk_cell World.Ethernet) [ "zc-base"; "rx-coal"; "nopace"; "tx_fast" ]
      @ List.concat_map
          (fun (scenario, conf) ->
            [ rpc_cell ~tag:true ~scenario ~requests:200 ~config:"coalesced" conf
                (scenario ^ "/coalesced");
              rpc_cell ~tag:true ~scenario ~requests:200 ~config:"pacing" ~preset:tx_paced conf
                (scenario ^ "/pacing") ])
          [ ("tx mix", fanout); ("tx incast", Scenario.incast ()) ]);
    (* The switch audit's own cells: registry rows no other target
       measures at this size (the others resolve to the cells above). *)
    table ~leave_one_out:true "switches"
      "Switch audit: every Tcp_params switch left out of its bench row"
      ([ spec "bulk userlib/ethernet/4096" ~keys:[ "mbps" ] ~size:bulk_size
           (bulk_cell ~system:"userlib");
         spec "bulk userlib-zc" ~preset_name:"default+zero_copy" ~preset:zc_preset ~keys:[ "mbps" ]
           ~size:bulk_size (bulk_cell ~system:"userlib-zc");
         spec "smp" ~preset_name:"in-kernel per_conn" ~preset:(Smp.params `Per_conn)
           ~keys:[ "mbps"; "avg_util"; "lock_contended" ]
           ~size:"in-kernel, 2 CPUs x 2 pairs, 1 MB per pair"
           (fun prm -> [ smp_cell ~org:Org.In_kernel ~cpus:2 ~pairs:2 prm ]);
         spec "scale" ~preset_name:"flow_cache"
           ~preset:{ Tcp_params.default with Tcp_params.flow_cache = true }
           ~keys:[ "dispatch_cycles" ] ~size:"1 connection"
           (fun prm ->
             let r = List.hd (E.scale ~conns:[ 1 ] ()) in
             [ [ ( "dispatch_cycles",
                   jfloat
                     (if prm.Tcp_params.flow_cache then r.E.sc_hit_cycles else r.E.sc_scan_cycles)
                 ) ] ]);
         spec "sparse-scale" ~preset_name:"hier+shard" ~preset:sparse_params
           ~keys:
             [ "setup_p50_us"; "setup_p99_us"; "setup_p999_us"; "delivery_p50_us";
               "delivery_p99_us"; "delivery_p999_us" ]
           ~size:"4096 background connections, 96 live"
           (fun prm ->
             let setup, delivery, _, _ = E.sparse_live ~tcp_params:prm 4096 in
             [ pfields "setup_" setup @ pfields "delivery_" delivery ]);
         populated_cell ~name:"sharded registry" 65536 ]
      (* The window-bound clean point and the loss-bound point of the
         40 ms column. *)
      @ List.map
          (fun config ->
            let prefix p = List.map (fun (k, v) -> (p ^ k, v)) in
            spec config ~preset_name:config ~preset:(List.assoc config wan_configs)
              ~keys:
                [ "clean_goodput_mbps"; "lossy_goodput_mbps"; "lossy_goodput_min_mbps";
                  "lossy_goodput_max_mbps"; "lossy_retransmissions"; "lossy_recovery_p50_us";
                  "lossy_recovery_p99_us" ]
              ~size:"40 ms, 8 MB; 0% loss x 1 seed, 0.2% loss x 5 seeds"
              (fun prm ->
                [ prefix "clean_" (wan_cell ~delay_ms:40 ~loss:0.0 ~config prm)
                  @ prefix "lossy_" (wan_cell ~delay_ms:40 ~loss:0.002 ~config prm) ]))
          [ "wan+wscale"; "wan+wscale+sack"; "wan+sack+cubic" ]
      @ [ rpc_cell ~scenario:"rpc/fanout" ~requests:300 ~config:"coalesced" fanout "rpc/fanout";
          overload_cell ~mults:[ 4.0 ] ~config:"coalesced" ~preset:coalesced "incast/overload" ]);
    table ~diffcheck:true "motivation"
      "Motivation (SS1.1): request-response vs byte-stream protocols"
      ~trailer:
        (notes
           [ "(specialized protocols achieve remarkably low latencies but do not";
             " always deliver the highest throughput - both run as libraries)" ])
      (List.map motivation_cell [ World.Ethernet; World.An1 ]);
    table ~diffcheck:true "contention"
      "Shared-segment scaling: aggregate goodput vs concurrent pairs (Ethernet)"
      ~trailer:
        (notes
           [ "(distinct sender/receiver pairs share the 10 Mb/s medium; aggregate";
             " approaches the wire once CPU is no longer the bottleneck)" ])
      (List.map
         (fun pairs ->
           spec
             (Printf.sprintf "contention %d pairs" pairs)
             ~keys:[ "aggregate_mbps" ] ~size:"400 KB per pair" (contention_cell pairs))
         [ 1; 2; 3 ]) ]

let all_specs () = List.concat_map (fun t -> t.specs) targets
let find_spec name = List.find_opt (fun s -> s.name = name) (all_specs ())

let find name =
  match List.find_opt (fun t -> t.target = name) targets with
  | Some t -> t
  | None -> invalid_arg ("Bench_spec.find: no target " ^ name)

(* --- running ----------------------------------------------------------- *)

let headline s prm =
  List.concat_map (List.filter (fun (k, _) -> List.mem k s.keys)) (s.run prm)

(* Each registered switch runs the spec its registry entry names twice:
   at the spec's preset, and with only that switch left out
   ([sw_off]).  Switches that share a spec share its preset run. *)
let switch_rows () =
  let on_cache = Hashtbl.create 16 in
  List.map
    (fun (sw : Tcp_params.switch) ->
      let field = sw.Tcp_params.sw_field in
      let s =
        match find_spec sw.Tcp_params.sw_bench_row with
        | Some s -> s
        | None -> failwith ("switches: no spec for bench row " ^ sw.Tcp_params.sw_bench_row)
      in
      let off = sw.Tcp_params.sw_off s.preset in
      if off = s.preset then failwith ("switches: leaving out " ^ field ^ " changes nothing");
      let on =
        match Hashtbl.find_opt on_cache s.name with
        | Some m -> m
        | None ->
            let m = headline s s.preset in
            Hashtbl.replace on_cache s.name m;
            m
      in
      [ ("field", jstr field); ("row", jstr s.name); ("preset", jstr s.preset_name);
        ("size", jstr s.size) ]
      @ List.map (fun (k, v) -> ("on_" ^ k, v)) on
      @ List.map (fun (k, v) -> ("off_" ^ k, v)) (headline s off))
    Tcp_params.switches

let rows t =
  if t.leave_one_out then switch_rows ()
  else List.concat_map (fun s -> s.run s.preset) t.specs

let json_contents target rows =
  let row r =
    "    { " ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) r) ^ " }"
  in
  let contents =
    Printf.sprintf "{\n  \"target\": %s,\n  \"rows\": [%s\n  ]\n}\n" (jstr target)
      (String.concat "," (List.map (fun r -> "\n" ^ row r) rows))
  in
  (* Never commit a BENCH file that does not parse. *)
  match Jout.validate contents with
  | Ok () -> contents
  | Error e -> failwith (Printf.sprintf "BENCH_%s.json would be malformed: %s" target e)

let run ?(json = false) ppf t =
  section ppf t.title;
  let rows = rows t in
  print_rows ppf rows;
  t.trailer ppf rows;
  if json then begin
    let file = Printf.sprintf "BENCH_%s.json" t.target in
    Out_channel.with_open_bin file (fun oc ->
        Out_channel.output_string oc (json_contents t.target rows));
    Format.fprintf ppf "  (wrote %s)@." file
  end;
  Format.fprintf ppf "@."

(* Re-derive every diffcheck target and compare it byte for byte with
   its committed BENCH file.  The simulation is deterministic, so any
   drift means a code change moved a paper number. *)
let diffcheck ppf =
  section ppf "Differential check (paper tables vs committed BENCH files)";
  let ok t =
    let file = Printf.sprintf "BENCH_%s.json" t.target in
    let same =
      Sys.file_exists file
      && In_channel.with_open_bin file In_channel.input_all = json_contents t.target (rows t)
    in
    Format.fprintf ppf "  %-10s %s@." t.target (if same then "unchanged" else "MISMATCH vs " ^ file);
    same
  in
  List.for_all Fun.id (List.map ok (List.filter (fun t -> t.diffcheck) targets))

(* Every subsystem the full targets drive, at reduced size. *)
let smoke =
  table "smoke" "Bench smoke (reduced sizes)"
    [ fixed "smoke table1" ~size:"400 KB per user packet size" (fun () ->
          List.map raw_fields (E.table1 ~quick:true ()));
      spec "smoke bulk" ~size:"200 KB" (bulk_cell ~total_bytes:200_000 ~system:"userlib");
      spec "smoke bulk zero-copy" ~preset:zc_preset ~size:"200 KB"
        (bulk_cell ~total_bytes:200_000 ~system:"userlib-zc");
      spec "smoke bulk flow-cache"
        ~preset:{ Tcp_params.default with Tcp_params.flow_cache = true }
        ~size:"200 KB" (bulk_cell ~total_bytes:200_000 ~system:"userlib");
      fixed "smoke scale" ~size:"1-64 connections" (fun () ->
          List.map scale_fields (E.scale ~conns:[ 1; 4; 16; 64 ] ()));
      fixed "smoke zero-copy" ~size:"400 KB" (fun () ->
          List.map zc_fields (E.zero_copy_ablation ~quick:true ~sizes:[ 4096 ] ()));
      fixed "smoke sparse" ~size:"64k background connections" (fun () ->
          List.map sparse_fields (E.scale_sparse ~pops:[ 65536 ] ()));
      spec "smoke smp" ~size:"2 CPUs x 2 pairs, 200 KB" (fun prm ->
          [ smp_cell ~bytes_per_pair:200_000 ~org:Org.User_library ~cpus:2 ~pairs:2 prm ]);
      churn_cell ~pairs:2 ~config:"baseline" "smoke churn baseline"
        (List.assoc "baseline" Churn.configs);
      churn_cell ~pairs:2 ~config:"+lease" "smoke churn +lease" (List.assoc "+lease" Churn.configs);
      populated_cell ~name:"smoke populated churn" 4096;
      spec "smoke wan" ~preset:(List.assoc "wan+wscale+sack" wan_configs) ~size:"1 MB" (fun prm ->
          [ wan_cell ~total_bytes:1_000_000 ~delay_ms:5 ~loss:0.005 ~config:"wan+wscale+sack" prm ]);
      rpc_cell ~seeds:[ 7 ] ~scenario:"rpc/fanout" ~requests:60 ~config:"coalesced" fanout
        "smoke rpc";
      overload_cell ~mults:[ 4.0 ] ~requests:40 ~seeds:[ 7 ] ~config:"coalesced"
        ~preset:coalesced "smoke overload";
      tx_bulk_cell ~total_bytes:400_000 World.An1 "+gso";
      tx_bulk_cell ~total_bytes:400_000 World.An1 "tx_fast";
      rpc_cell ~seeds:[ 7 ] ~scenario:"tx incast" ~requests:40 ~config:"pacing" ~preset:tx_paced
        (Scenario.incast ()) "smoke tx incast" ]
