module Time = Uln_engine.Time

type t = {
  snd_buf : int;
  rcv_buf : int;
  nagle : bool;
  ack_every : int;
  delack : Time.span;
  initial_rto : Time.span;
  min_rto : Time.span;
  max_rto : Time.span;
  timer_granularity : Time.span;
  msl : Time.span;
  initial_cwnd_segments : int;
  keepalive : Time.span option;
  keepalive_interval : Time.span;
  keepalive_probes : int;
  fused_checksum : bool;
  zero_copy : bool;
  channel_pool : bool;
  endpoint_lease : bool;
  time_wait_wheel : bool;
  smp_locking : [ `Big_lock | `Per_conn ];
  flow_cache : bool;
  hier_demux : bool;
  shard_registry : bool;
  window_scale : bool;
  timestamps : bool;
  sack : bool;
  cong_control : [ `Reno | `Newreno | `Cubic ];
  rx_coalesce : bool;
  burst_ack : bool;
  int_suppress : bool;
  tx_gso : bool;
  pacing : bool;
}

let default =
  { snd_buf = 16384;
    rcv_buf = 16384;
    nagle = true;
    ack_every = 2;
    delack = Time.ms 200;
    initial_rto = Time.sec 1;
    min_rto = Time.ms 500;
    max_rto = Time.sec 64;
    timer_granularity = Time.ms 100;
    msl = Time.sec 30;
    initial_cwnd_segments = 1;
    keepalive = None;
    keepalive_interval = Time.sec 75;
    keepalive_probes = 9;
    fused_checksum = true;
    zero_copy = false;
    channel_pool = false;
    endpoint_lease = false;
    time_wait_wheel = false;
    smp_locking = `Big_lock;
    flow_cache = false;
    hier_demux = false;
    shard_registry = false;
    window_scale = false;
    timestamps = false;
    sack = false;
    cong_control = `Reno;
    rx_coalesce = false;
    burst_ack = false;
    int_suppress = false;
    tx_gso = false;
    pacing = false }

let fast =
  { default with
    delack = Time.ms 20;
    initial_rto = Time.ms 200;
    min_rto = Time.ms 100;
    max_rto = Time.sec 4;
    msl = Time.ms 500 }

let wan =
  { fast with
    snd_buf = 1 lsl 20;
    rcv_buf = 1 lsl 20;
    timer_granularity = Time.ms 1;
    min_rto = Time.ms 200;
    initial_rto = Time.ms 400;
    window_scale = true;
    timestamps = true;
    sack = true;
    cong_control = `Cubic }

(* The small-message fast path: rx burst aggregation with GRO-style
   in-order merge, burst-aware ACKs, and NAPI-style interrupt
   suppression at the NIC — the three coalescing ablations together.
   The ACK cadence is stretched to match: with whole merge runs
   counted at once, one ACK answering eight segments is the receive
   side's contribution to keeping the fan-in's ACK traffic off both
   CPUs (each pure ACK costs a transmit on one host and a full demux
   and input pass on the other). *)
let coalesced =
  { fast with rx_coalesce = true; burst_ack = true; int_suppress = true; ack_every = 8 }

(* The transmit-side fast path: one oversized logical segment per send
   episode (the NIC cuts wire frames — tx_gso) and a cwnd/srtt software
   pacer that spreads the resulting line-rate bursts (pacing).  Composed over the
   zero-copy data path — the sender baseline whose remaining
   per-segment costs GSO amortizes — and the [coalesced] receive path,
   whose stretched ACKs open multi-MSS windows in one step: without
   them transmission stays ACK-clocked in 1-2 MSS quanta and an
   offload episode never has more than two frames to merge.  Buffers
   are deepened to match (an offload episode can only be as large as
   the send queue), and the timer wheel runs at 1 ms so pacer release
   times are not quantized to the coarse RTO tick. *)
let tx_fast =
  { coalesced with
    zero_copy = true;
    snd_buf = 1 lsl 16;
    rcv_buf = 1 lsl 16;
    timer_granularity = Time.ms 1;
    tx_gso = true;
    pacing = true }

(* --- the ablation-switch registry (proto-check switch lint) ----------- *)

type switch = {
  sw_field : string;
  sw_oracle : string;
  sw_bench_row : string;
  sw_off : t -> t;
}

let switches =
  [ { sw_field = "fused_checksum";
      sw_oracle = "test/test_fastpath.ml:prop_fused_checksum_survives_corruption";
      sw_bench_row = "bulk userlib/ethernet/4096";
      sw_off = (fun p -> { p with fused_checksum = false }) };
    { sw_field = "zero_copy";
      sw_oracle = "test/test_fastpath.ml:prop_zero_copy_differential";
      sw_bench_row = "bulk userlib-zc";
      sw_off = (fun p -> { p with zero_copy = default.zero_copy }) };
    { sw_field = "channel_pool";
      sw_oracle = "test/test_churn.ml:prop_fastpath_equivalent_under_faults";
      sw_bench_row = "+lease";
      sw_off = (fun p -> { p with channel_pool = default.channel_pool }) };
    { sw_field = "endpoint_lease";
      sw_oracle = "test/test_churn.ml:prop_fastpath_equivalent_under_faults";
      sw_bench_row = "+lease";
      sw_off = (fun p -> { p with endpoint_lease = default.endpoint_lease }) };
    { sw_field = "time_wait_wheel";
      sw_oracle = "test/test_churn.ml:test_wheel_differential";
      sw_bench_row = "+lease";
      sw_off = (fun p -> { p with time_wait_wheel = default.time_wait_wheel }) };
    { sw_field = "smp_locking";
      sw_oracle = "test/test_smp.ml:prop_smp_payload_identical_under_faults";
      sw_bench_row = "smp";
      sw_off = (fun p -> { p with smp_locking = default.smp_locking }) };
    { sw_field = "flow_cache";
      sw_oracle = "test/test_fastpath.ml:prop_cache_matches_scan";
      sw_bench_row = "scale";
      sw_off = (fun p -> { p with flow_cache = default.flow_cache }) };
    { sw_field = "hier_demux";
      sw_oracle = "test/test_scale_ctl.ml:prop_hier_demux_differential";
      sw_bench_row = "sparse-scale";
      sw_off = (fun p -> { p with hier_demux = default.hier_demux }) };
    { sw_field = "shard_registry";
      sw_oracle = "test/test_scale_ctl.ml:prop_shard_flat_differential";
      sw_bench_row = "sharded registry";
      sw_off = (fun p -> { p with shard_registry = default.shard_registry }) };
    { sw_field = "window_scale";
      sw_oracle = "test/test_wan.ml:prop_wscale_differential";
      sw_bench_row = "wan+wscale";
      sw_off = (fun p -> { p with window_scale = default.window_scale }) };
    { sw_field = "timestamps";
      sw_oracle = "test/test_wan.ml:prop_timestamps_differential";
      sw_bench_row = "wan+wscale";
      sw_off = (fun p -> { p with timestamps = default.timestamps }) };
    { sw_field = "sack";
      sw_oracle = "test/test_wan.ml:prop_sack_differential";
      sw_bench_row = "wan+wscale+sack";
      sw_off = (fun p -> { p with sack = default.sack }) };
    { sw_field = "cong_control";
      sw_oracle = "test/test_wan.ml:prop_cong_control_differential";
      sw_bench_row = "wan+sack+cubic";
      sw_off = (fun p -> { p with cong_control = default.cong_control }) };
    { sw_field = "ack_every";
      sw_oracle = "test/test_coalesce.ml:prop_ack_every_differential";
      sw_bench_row = "rpc/fanout";
      sw_off = (fun p -> { p with ack_every = default.ack_every }) };
    { sw_field = "rx_coalesce";
      sw_oracle = "test/test_coalesce.ml:prop_rx_coalesce_differential";
      sw_bench_row = "rpc/fanout";
      sw_off = (fun p -> { p with rx_coalesce = default.rx_coalesce }) };
    { sw_field = "burst_ack";
      sw_oracle = "test/test_coalesce.ml:prop_burst_ack_differential";
      sw_bench_row = "rpc/fanout";
      sw_off = (fun p -> { p with burst_ack = default.burst_ack }) };
    { sw_field = "int_suppress";
      sw_oracle = "test/test_coalesce.ml:prop_int_suppress_differential";
      sw_bench_row = "incast/overload";
      sw_off = (fun p -> { p with int_suppress = default.int_suppress }) };
    { sw_field = "tx_gso";
      sw_oracle = "test/test_txpath.ml:prop_gso_differential";
      sw_bench_row = "tx bulk an1/+gso";
      sw_off = (fun p -> { p with tx_gso = default.tx_gso }) };
    { sw_field = "pacing";
      sw_oracle = "test/test_txpath.ml:prop_pacing_order_and_rate";
      sw_bench_row = "tx incast/pacing";
      sw_off = (fun p -> { p with pacing = default.pacing }) } ]

let policy_fields =
  [ ("nagle", "congestion policy, not an implementation ablation: both settings are \
               correct TCP and produce different wire traffic by design") ]
