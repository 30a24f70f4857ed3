(* Every committed BENCH_*.json must parse: the bench harness validates
   before writing, and this guards the files actually in the tree (a
   hand edit, merge damage, or an emitter regression fails the build).
   The scale and churn files additionally must carry the sparse-sweep
   percentile fields — a regenerated file that silently dropped the
   64k-1M rows would otherwise still parse — and each [netlab stats]
   snapshot a counter of every surface. *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Emitted field names the sparse rows must carry, keyed by file. *)
let required_fields = function
  | "BENCH_scale.json" ->
      [ "sparse-scale";
        "miss_p50_cycles"; "miss_p99_cycles"; "miss_p999_cycles";
        "linear_cycles";
        "setup_p50_us"; "setup_p99_us"; "setup_p999_us";
        "delivery_p50_us"; "delivery_p99_us"; "delivery_p999_us" ]
  | "BENCH_churn.json" ->
      [ "population"; "churn_p50_us"; "churn_p99_us"; "churn_p999_us" ]
  | "BENCH_wan.json" ->
      [ "config"; "delay_ms"; "loss"; "goodput_mbps";
        "segments_out"; "retransmissions"; "sack_rexmits"; "snd_scale"; "cong";
        "recovery_samples"; "recovery_p50_us"; "recovery_p99_us"; "recovery_p999_us";
        "wan-baseline"; "wan+wscale"; "wan+wscale+sack"; "wan+sack+newreno"; "wan+sack+cubic" ]
  | "BENCH_table3.json" -> [ "rtt_ms"; "p50_us"; "p99_us"; "p999_us" ]
  | "BENCH_motivation.json" ->
      [ "ethernet"; "an1"; "rrp_exchange_ms"; "tcp_exchange_ms"; "rrp_mbps"; "tcp_mbps" ]
  | "BENCH_rpc.json" ->
      [ "scenario"; "config"; "servers"; "requests";
        "offered_rps"; "delivered_rps"; "completed"; "expired";
        "ring_drops"; "ring_overflows"; "interrupts"; "polls";
        "p50_us"; "p99_us"; "p999_us"; "saturation_rps";
        "per-packet"; "coalesced" ]
  | "BENCH_overload.json" ->
      [ "scenario"; "config"; "servers"; "requests"; "multiplier";
        "offered_rps"; "delivered_rps"; "completed"; "expired";
        "ring_drops"; "ring_overflows"; "interrupts"; "polls";
        "p50_us"; "p99_us"; "p999_us"; "saturation_rps";
        "per-packet"; "coalesced" ]
  | "stats.json" ->
      [ "host1.cpu1.busy_ns"; "host1.netio.rx_wakeups"; "host0.registry.legs.samples";
        "host0.lib.cli0.tx.gso_sends"; "host1.lib.srv1.conn0.rexmit.rto";
        "host1.lib.srv1.conn0.buf.loaned_bytes"; "locks.named"; "rx_sem.contended";
        "run.delivered_bytes" ]
  | "stats-inkernel.json" ->
      [ "host0.stack0.segments_out"; "host0.stack0.conn0.cong"; "host1.stack0.conn0.rexmit.sack";
        "run.mbps" ]
  | _ -> []

let () =
  let files = List.tl (Array.to_list Sys.argv) in
  assert (files <> []);
  List.iter
    (fun path ->
      let ic = open_in_bin path in
      let s = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (match Uln_workload.Jout.validate s with
      | Ok () -> ()
      | Error e ->
          Printf.eprintf "%s: malformed JSON: %s\n" path e;
          exit 1);
      let base = Filename.basename path in
      List.iter
        (fun field ->
          if not (contains s field) then begin
            Printf.eprintf "%s: missing required field %S\n" path field;
            exit 1
          end)
        (required_fields base);
      Printf.printf "%s: ok\n" base)
    files
