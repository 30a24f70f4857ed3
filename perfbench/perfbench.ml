(* The repository benchmark: three workloads driven through the public
   APIs of [Uln_core.World]/[Sockets] and [Uln_engine.Sched], measured
   on both clocks.  The simulated clock is what the modelled stack
   delivers; the real clock is what this process spends producing it.

     perfbench --workload bulk|incast|churn --seed N --seconds S --trace 0|1

   The last line of standard output is one JSON object with the keys
   [correct], [attempted], [failed] and [metrics].  With [--trace 0]
   the metrics are the end-to-end set, with [--trace 1] the per-layer
   set (README.md lists both).  Any failed correctness check makes the
   exit code 1.

     perfbench repro-shard-lease

   re-runs the known [endpoint_lease] + [time_wait_wheel] +
   [shard_registry] defect and reports whether it still raises. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Rng = Uln_engine.Rng
module Mailbox = Uln_engine.Mailbox
module Semaphore = Uln_engine.Semaphore
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Pool = Uln_buf.Pool
module Ip = Uln_addr.Ip
module Cpu = Uln_host.Cpu
module Machine = Uln_host.Machine
module Link = Uln_net.Link
module Frame = Uln_net.Frame
module Txq = Uln_net.Txq
module Napi = Uln_net.Napi
module Demux = Uln_filter.Demux
module Program = Uln_filter.Program
module Tcp_params = Uln_proto.Tcp_params
module Tcp_wire = Uln_proto.Tcp_wire
module Tcp_seq = Uln_proto.Tcp_seq
module Checksum = Uln_proto.Checksum
module World = Uln_core.World
module Sockets = Uln_core.Sockets
module Protolib = Uln_core.Protolib
module Registry = Uln_core.Registry
module Netio = Uln_core.Netio
module Calibration = Uln_core.Calibration
module Organization = Uln_core.Organization
module Percentile = Uln_workload.Percentile
module Experiments = Uln_workload.Experiments
module Churn = Uln_workload.Churn

let wall () = Unix.gettimeofday ()

let median xs =
  match xs with
  | [] -> 0.
  | _ -> Percentile.percentile 0.5 (Array.of_list xs)

let sim_ms sched = Time.to_ns (Sched.now sched) |> float_of_int |> fun ns -> ns /. 1e6

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* ---------------------------------------------------------------------- *)
(* Correctness ledger: every operation attempted, every one that failed.  *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []

(* [ok] operations succeeded and [bad] failed, for the reason [what]. *)
let tally ~ok ~bad what =
  attempted := !attempted + ok + bad;
  if bad > 0 then begin
    failed := !failed + bad;
    if List.length !failures < 20 then failures := what :: !failures
  end

let check ok what = if ok then tally ~ok:1 ~bad:0 what else tally ~ok:0 ~bad:1 what

(* ---------------------------------------------------------------------- *)
(* Spans, recorded only in the traced run.  Each span has a clock, a
   parent (0 for roots) and a key shared by every span of one request,
   write or connection.  They stay in memory and are written out as
   Chrome trace-event JSON when the run ends. *)

module Spans = struct
  type clock = Sim | Real

  type t = {
    sid : int;
    parent : int;
    key : int;
    name : string;
    clock : clock;
    t0 : float; (* ms on its clock *)
    mutable t1 : float;
  }

  let on = ref false
  let all : t list ref = ref []
  let next = ref 0
  let none = { sid = 0; parent = 0; key = 0; name = ""; clock = Sim; t0 = 0.; t1 = 0. }

  let start ?(parent = none) ?(key = 0) clock name t0 =
    if not !on then none
    else begin
      incr next;
      let s = { sid = !next; parent = parent.sid; key; name; clock; t0; t1 = t0 } in
      all := s :: !all;
      s
    end

  let finish s t1 = if s != none then s.t1 <- t1

  (* A complete span in one call, for intervals known after the fact. *)
  let record ?parent ?key clock name t0 t1 = finish (start ?parent ?key clock name t0) t1

  let real_ms () = wall () *. 1000.

  let durations name =
    List.filter_map (fun s -> if s.name = name then Some (s.t1 -. s.t0) else None) !all

  (* Self time per span name: each span's duration minus the part of
     its interval that its children cover. *)
  let self_times () =
    let children = Hashtbl.create 1024 in
    List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent s) !all;
    let by_name = Hashtbl.create 16 in
    List.iter
      (fun s ->
        let kids =
          Hashtbl.find_all children s.sid
          |> List.map (fun c -> (Float.max s.t0 c.t0, Float.min s.t1 c.t1))
          |> List.filter (fun (a, b) -> b > a)
          |> List.sort compare
        in
        let covered, _ =
          List.fold_left
            (fun (acc, edge) (a, b) ->
              let a = Float.max a edge in
              if b > a then (acc +. (b -. a), b) else (acc, edge))
            (0., s.t0) kids
        in
        let n, tot, self =
          Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0., 0.)
        in
        Hashtbl.replace by_name s.name
          (n + 1, tot +. (s.t1 -. s.t0), self +. (s.t1 -. s.t0 -. covered)))
      !all;
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name [] |> List.sort compare

  let write path =
    let oc = open_out path in
    output_string oc "{\"traceEvents\":[";
    List.iteri
      (fun i s ->
        if i > 0 then output_string oc ",\n";
        Printf.fprintf oc
          "{\"name\":%S,\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}"
          s.name
          (match s.clock with Sim -> 1 | Real -> 2)
          s.key (s.t0 *. 1000.)
          ((s.t1 -. s.t0) *. 1000.)
          s.sid s.parent)
      (List.rev !all);
    output_string oc "],\"selfTime\":{";
    List.iteri
      (fun i (name, (n, tot, self)) ->
        if i > 0 then output_string oc ",";
        Printf.fprintf oc "%S:{\"count\":%d,\"total_ms\":%.6f,\"self_ms\":%.6f}" name n tot self)
      (self_times ());
    output_string oc "}}\n";
    close_out oc
end

(* ---------------------------------------------------------------------- *)
(* Wire tap (traced run only): every frame the link serializes, decoded
   far enough to count frames, wire bytes and busy time, TCP
   retransmissions (data below a flow's highest sequence seen, a flow
   being one incarnation of a 4-tuple),
   checksum failures, and the share of segments a header predictor can
   take (in-order, ACK/PSH-only). *)

type tap = {
  mutable frames : int;
  mutable bytes : int;
  mutable busy_ms : float;
  mutable segs : int;
  mutable retx : int;
  mutable bad_csum : int;
  mutable predictable : int;
  high : (int * int * int, Tcp_seq.t) Hashtbl.t;
}

let new_tap () =
  { frames = 0; bytes = 0; busy_ms = 0.; segs = 0; retx = 0; bad_csum = 0; predictable = 0;
    high = Hashtbl.create 64 }

(* Set once the GC event ring is open: drained from the tap, since one
   long iteration can otherwise overrun the ring. *)
let gc_poll = ref ignore

let tap_frame tap link (f : Frame.t) =
  let len = Frame.payload_length f in
  tap.frames <- tap.frames + 1;
  if tap.frames land 7 = 0 then !gc_poll ();
  tap.bytes <- tap.bytes + len;
  tap.busy_ms <- tap.busy_ms +. Time.to_ms_f (Link.frame_time link len);
  if f.Frame.ethertype = Frame.ethertype_ip && len >= 40 then begin
    let v = Mbuf.flatten f.Frame.payload in
    let ihl = (View.get_uint8 v 0 land 0xf) * 4 in
    let total = View.get_uint16 v 2 in
    if View.get_uint8 v 9 = 6 && total <= View.length v && total >= ihl + 20 then begin
      let src = Ip.of_int32 (View.get_uint32 v 12) and dst = Ip.of_int32 (View.get_uint32 v 16) in
      let seg = View.sub v ihl (total - ihl) in
      tap.segs <- tap.segs + 1;
      match Tcp_wire.decode ~src_ip:src ~dst_ip:dst (Mbuf.of_view seg) with
      | None -> tap.bad_csum <- tap.bad_csum + 1
      | Some s ->
          let flow = (Int32.to_int (View.get_uint32 v 12), s.Tcp_wire.src_port, s.Tcp_wire.dst_port) in
          let seq = s.Tcp_wire.seq in
          let fl = s.Tcp_wire.flags in
          let plain = fl.Tcp_wire.ack && not (fl.syn || fl.fin || fl.rst) in
          let len = Tcp_wire.seg_len s in
          let fin = Tcp_seq.add seq len in
          (match Hashtbl.find_opt tap.high flow with
          | None -> Hashtbl.replace tap.high flow fin
          | Some hi when fl.syn && Tcp_seq.diff fin hi <> 0 ->
              (* a new connection reusing the 4-tuple *)
              Hashtbl.replace tap.high flow fin
          | Some hi ->
              if len > 0 && Tcp_seq.le fin hi then tap.retx <- tap.retx + 1
              else if Tcp_seq.gt fin hi then Hashtbl.replace tap.high flow fin;
              if plain && Tcp_seq.diff seq hi = 0 then tap.predictable <- tap.predictable + 1)
    end
  end

(* ---------------------------------------------------------------------- *)
(* GC pause time from the runtime's own event ring (traced run only). *)

module Gc_pause = struct
  let total_ns = ref 0L
  let began = ref 0L
  let lost = ref 0
  let cursor = ref None

  let callbacks =
    let phase = function
      | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR_SLICE -> true
      | _ -> false
    in
    Runtime_events.Callbacks.create
      ~runtime_begin:(fun _ ts p -> if phase p then began := Runtime_events.Timestamp.to_int64 ts)
      ~runtime_end:(fun _ ts p ->
        if phase p then
          total_ns := Int64.add !total_ns (Int64.sub (Runtime_events.Timestamp.to_int64 ts) !began))
      ~lost_events:(fun _ n -> lost := !lost + n)
      ()

  let poll () =
    match !cursor with
    | Some c -> ignore (Runtime_events.read_poll c callbacks None)
    | None -> ()

  let start () =
    Runtime_events.start ();
    cursor := Some (Runtime_events.create_cursor None);
    gc_poll := poll

  let ms () =
    poll ();
    Int64.to_float !total_ns /. 1e6
end

(* ---------------------------------------------------------------------- *)
(* Per-iteration record.  [layers] are read from the iteration's world
   (traced iterations only). *)

type iter = {
  run_s : float;
  ops : float; (* simulated operations completed per simulated second *)
  lat_ms : float list; (* per-operation latency samples, simulated ms *)
  cpu_ns : float; (* busy ns of every host CPU during the measured phase *)
  nops : int;
  layers : (string * float) list;
}

let sum f xs = List.fold_left (fun a x -> a + f x) 0 xs
let hosts w = List.init (World.num_hosts w) Fun.id
let netios w = List.filter_map (World.netio w) (hosts w)
let registries w = List.filter_map (World.registry w) (hosts w)

(* [f] summed over the CPUs of host [h]. *)
let host_sum w h f =
  let m = World.machine w h in
  sum (fun c -> f (Machine.cpu_at m c)) (List.init (Machine.num_cpus m) Fun.id)

let host_busy w h = host_sum w h Cpu.busy_ns
let all_sum w f = sum (fun h -> host_sum w h f) (hosts w)
let busy_all w = all_sum w Cpu.busy_ns
let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* Counters every workload reads from its world after the measured
   phase; [rx]/[tx] are protolib snapshots taken while the connections
   were still open (their GRO/GSO counters vanish at close). *)
let world_layers w ~libs ~rx ~tx ~bufs ~tap ~goodput_bytes ~elapsed_ms ~busy0 =
  let nio = netios w and regs = registries w in
  let napi f = sum (fun n -> f (Netio.napi_stats n)) nio in
  let txq f = sum (fun n -> f (Netio.txq_stats n)) nio in
  let busy_ms h = float_of_int (host_busy w h - busy0.(h)) /. 1e6 in
  let client = busy_ms 0 in
  let server = List.fold_left (fun a h -> if h = 0 then a else a +. busy_ms h) 0. (hosts w) in
  let per_byte n = if goodput_bytes = 0 then 0. else float_of_int n /. float_of_int goodput_bytes in
  let rxs f = sum f rx and txs f = sum f tx in
  let legs = List.map Registry.setup_legs regs in
  let leg f =
    let n = sum (fun l -> l.Registry.sl_samples) legs in
    if n = 0 then 0.
    else
      List.fold_left (fun a l -> a +. (f l *. float_of_int l.Registry.sl_samples)) 0. legs
      /. float_of_int n /. 1000.
  in
  let leased = sum (fun l -> (Protolib.leasestats l).Protolib.lst_leased_connects) libs in
  let fallbacks = sum (fun l -> (Protolib.leasestats l).Protolib.lst_fallbacks) libs in
  let pool_hits = sum (fun r -> (Registry.pool_stats r).Registry.ps_hits) regs in
  let pool_misses = sum (fun r -> (Registry.pool_stats r).Registry.ps_misses) regs in
  [ ("host.client.busy_ms", client);
    ("host.server.busy_ms", server);
    ("host.client.util", if elapsed_ms > 0. then client /. elapsed_ms else 0.);
    ("host.copy_ns_per_byte", per_byte (all_sum w Cpu.copy_ns));
    ("host.checksum_ns_per_byte", per_byte (all_sum w Cpu.checksum_ns));
    ("host.copy_checksum_ns_per_byte", per_byte (all_sum w Cpu.copy_checksum_ns));
    ("net.gso_frames_per_episode", ratio (txq (fun s -> s.Txq.gso_frames)) (txq (fun s -> s.Txq.gso_episodes)));
    ("net.txc_descs_per_event", ratio (txq (fun s -> s.Txq.descs)) (txq (fun s -> s.Txq.events)));
    ("net.wire_frames", float_of_int tap.frames);
    ("net.wire_bytes_per_goodput_byte", per_byte tap.bytes);
    ("net.wire_busy_frac",
      if elapsed_ms > 0. then tap.busy_ms /. elapsed_ms else 0.);
    ("net.interrupts", float_of_int (napi (fun s -> s.Napi.interrupts)));
    ("net.polls", float_of_int (napi (fun s -> s.Napi.polls)));
    ("net.ring_drops", float_of_int (napi (fun s -> s.Napi.ring_drops)));
    ("net.ring_overflows", float_of_int (sum Netio.ring_overflows nio));
    ("proto.retransmissions", float_of_int tap.retx);
    ("proto.checksum_failures", float_of_int tap.bad_csum);
    ("proto.header_prediction_ratio", ratio tap.predictable tap.segs);
    ("protolib.frames_per_wakeup", ratio (rxs (fun r -> r.Protolib.rs_frames)) (rxs (fun r -> r.Protolib.rs_wakeups)));
    ("protolib.gro_merged", float_of_int (rxs (fun r -> r.Protolib.rs_gro_merged)));
    ("protolib.acks_elided", float_of_int (rxs (fun r -> r.Protolib.rs_acks_elided)));
    ("protolib.gso_fallback_ratio",
      ratio (txs (fun t -> t.Protolib.ts_gso_fallbacks))
        (txs (fun t -> t.Protolib.ts_gso_fallbacks + t.Protolib.ts_gso_sends)));
    ("protolib.pacer_wait_ms",
      List.fold_left (fun a t -> a +. t.Protolib.ts_pacer_wait_us) 0. tx /. 1000.);
    ("protolib.tx_pool_exhausted", float_of_int (sum (fun b -> b.Protolib.bs_pool_exhausted) bufs));
    ("protolib.lease_hit_ratio", ratio leased (leased + fallbacks + sum (fun l -> l.Registry.sl_samples) legs));
    ("registry.pool_hit_ratio", ratio pool_hits (pool_hits + pool_misses));
    ("registry.leg_port_alloc_ms", leg (fun l -> l.Registry.sl_port_alloc_us));
    ("registry.leg_round_trip_ms", leg (fun l -> l.Registry.sl_round_trip_us));
    ("registry.leg_finish_ms", leg (fun l -> l.Registry.sl_finish_us));
    ("registry.tw_parked", float_of_int (sum (fun r -> (Registry.time_wait_stats r).Registry.tw_parked_total) regs));
    ("netio.rx_frames", float_of_int (sum Netio.rx_frames nio));
    ("netio.unmatched_drops", float_of_int (sum Netio.unmatched_drops nio)) ]

let attach_tap w =
  let tap = new_tap () in
  if !Spans.on then begin
    let link = World.link w in
    Link.set_monitor link (fun _ f -> tap_frame tap link f)
  end;
  tap

(* Let timers (TIME_WAIT, delayed ACKs, lease expiry) run out after the
   measured phase, check that no connection outlived it, and record
   what is still queued. *)
let settle w libs =
  let sched = World.sched w in
  Sched.run_until sched (Time.add (Sched.now sched) (Time.sec 5));
  let live = sum Protolib.live_connections libs in
  check (live = 0) "live connections after teardown";
  [ ("engine.pending_events_at_end", float_of_int (Sched.pending_events sched));
    ("protolib.live_connections_at_end", float_of_int live) ]

(* Build a world the way each workload does, under a set-up span that
   [make] hangs its own steps under. *)
let build make =
  let sp = Spans.start Spans.Real "world_create" (Spans.real_ms ()) in
  let w = make sp in
  Spans.finish sp (Spans.real_ms ());
  w

let lib w host name =
  match World.library w ~host name with
  | Some l -> l
  | None -> failwith "perfbench: the user-library organization is required"

(* ---------------------------------------------------------------------- *)
(* bulk: one sender-limited transfer over AN1 on [tx_fast].  Write sizes
   are drawn from the seed (uniform 4-12 KB, mean 8 KB).  Every byte of
   the stream is a function of its offset: byte [p] is [p mod
   pattern_period] of a seeded random pattern.  The receiver compares
   every byte it reads against it, so a lost, duplicated or reordered
   block anywhere in the stream fails the check unless it moved by a
   multiple of the period (about 1 MB, far beyond any window). *)

let bulk_world seed _ =
  World.create ~seed ~network:World.An1 ~org:Organization.User_library
    ~tcp_params:Tcp_params.tx_fast ()

let pattern_period = (1 lsl 20) + 7
let max_chunk = 65536

(* The pattern, with its first [max_chunk] bytes repeated at the end so
   any chunk of up to [max_chunk] bytes is one contiguous slice. *)
let stream_pattern seed =
  let rng = Rng.create ~seed:(seed lxor 0x5eed) in
  let b = Bytes.create (pattern_period + max_chunk) in
  for i = 0 to pattern_period - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Rng.int rng 256))
  done;
  Bytes.blit b 0 b pattern_period max_chunk;
  b

(* Whether the [n] bytes of [v] are those of the stream at offset [pos]. *)
let matches_stream pattern pos (v : View.t) =
  let n = View.length v in
  if n > max_chunk then invalid_arg "matches_stream";
  let base = pos mod pattern_period in
  let ok = ref true and j = ref 0 in
  while !ok && !j + 8 <= n do
    if not (Int64.equal (Bytes.get_int64_ne v.View.buffer (v.View.off + !j))
              (Bytes.get_int64_ne pattern (base + !j)))
    then ok := false;
    j := !j + 8
  done;
  while !ok && !j < n do
    if Bytes.get v.View.buffer (v.View.off + !j) <> Bytes.get pattern (base + !j) then ok := false;
    incr j
  done;
  !ok

let bulk_iter ~seed ~bytes =
  let w = build (bulk_world seed) in
  let pattern = stream_pattern seed in
  let t1 = wall () in
  let sp_run = Spans.start Spans.Real "run" (Spans.real_ms ()) in
  let sched = World.sched w in
  let rng = Rng.create ~seed in
  let sizes =
    let acc = ref [] and tot = ref 0 in
    while !tot < bytes do
      let n = 4096 + Rng.int rng 8193 in
      acc := n :: !acc;
      tot := !tot + n
    done;
    Array.of_list (List.rev !acc)
  in
  let nw = Array.length sizes in
  (* Application think time before each write, 0-20 us from the seed:
     without it write timings fall on a lattice of cost constants and
     the latency median reads the same for every seed. *)
  let gaps = Array.init nw (fun _ -> Rng.int rng 20_000) in
  let total = Array.fold_left ( + ) 0 sizes in
  let issued = Array.make nw 0. in
  let lat = Array.make nw 0. in
  let tap = attach_tap w in
  let src = lib w 0 "bulk-src" and dst = lib w 1 "bulk-sink" in
  let busy0 = Array.init 2 (host_busy w) in
  let busy_start = busy_all w in
  let rx_snap = ref [] and tx_snap = ref [] and buf_snap = ref [] in
  let received = ref 0 and bad_chunks = ref 0 in
  let first_byte = ref 0. and last_byte = ref 0. in
  let recv_wait = ref 0. and send_blocked = ref 0. in
  Sched.spawn sched ~name:"bulk-sink" (fun () ->
      let l = (Protolib.app dst).Sockets.listen ~port:5001 in
      let conn = l.Sockets.accept () in
      (* [wi] is the first write not yet fully read; it ends at [wend]. *)
      let wi = ref 0 and wend = ref sizes.(0) in
      let rec drain () =
        let r0 = sim_ms sched in
        match conn.Sockets.recv_loan ~max:max_chunk with
        | None -> ()
        | Some v ->
            let now = sim_ms sched in
            recv_wait := !recv_wait +. (now -. r0);
            if !received = 0 then first_byte := now;
            last_byte := now;
            let off = !received in
            if not (matches_stream pattern off v) then incr bad_chunks;
            received := off + View.length v;
            while !wi < nw && !wend <= !received do
              lat.(!wi) <- now -. issued.(!wi);
              incr wi;
              if !wi < nw then wend := !wend + sizes.(!wi)
            done;
            conn.Sockets.return_loan v;
            drain ()
      in
      drain ();
      rx_snap := [ Protolib.rxstats dst ];
      conn.Sockets.close ());
  let connected = ref true in
  Sched.block_on sched (fun () ->
      match (Protolib.app src).Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:5001 with
      | Error _ -> connected := false
      | Ok conn ->
          let sent = ref 0 in
          let fill v =
            View.blit (View.of_bytes pattern) (!sent mod pattern_period) v 0 (View.length v);
            sent := !sent + View.length v
          in
          for i = 0 to nw - 1 do
            let n = sizes.(i) in
            Sched.sleep sched (Time.ns gaps.(i));
            let t = sim_ms sched in
            issued.(i) <- t;
            let sp = Spans.start ~key:i Spans.Sim "bulk.write" t in
            (match conn.Sockets.alloc_tx n with
            | Some owned ->
                let owned = View.sub owned 0 n in
                fill owned;
                conn.Sockets.send_owned owned
            | None ->
                let v = View.create n in
                fill v;
                conn.Sockets.send v);
            let t' = sim_ms sched in
            send_blocked := !send_blocked +. (t' -. t);
            Spans.finish sp t'
          done;
          tx_snap := [ Protolib.txstats src ];
          buf_snap := Protolib.bufstats src;
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  let cpu = float_of_int (busy_all w - busy_start) in
  check !connected "bulk connect";
  check (!received = total) (Printf.sprintf "bulk received %d of %d bytes" !received total);
  check (!bad_chunks = 0)
    (Printf.sprintf "bulk: %d received chunks differ from the bytes sent at their offset" !bad_chunks);
  let dur_ms = !last_byte -. !first_byte in
  let run_s = wall () -. t1 in
  let layers =
    if not !Spans.on then []
    else
      world_layers w ~libs:[ src; dst ] ~rx:!rx_snap ~tx:!tx_snap ~bufs:!buf_snap ~tap
        ~goodput_bytes:total ~elapsed_ms:dur_ms ~busy0
      @ [ ("span.bulk.send_blocked_frac", !send_blocked /. dur_ms);
          ("span.bulk.recv_wait_frac", !recv_wait /. dur_ms) ]
  in
  let layers = layers @ settle w [ src; dst ] in
  (* One world at a time: dropped as churn drops its own (below). *)
  Semaphore.reset_registered ~sched ();
  Spans.finish sp_run (Spans.real_ms ());
  let goodput_mbps = float_of_int total *. 8. /. (dur_ms *. 1000.) in
  ( { run_s; ops = float_of_int nw /. (dur_ms /. 1000.); lat_ms = Array.to_list lat; cpu_ns = cpu;
      nops = nw; layers },
    (goodput_mbps, cpu /. float_of_int total) )

(* ---------------------------------------------------------------------- *)
(* incast: 8 servers answer every request (64 B) with 256 B, over AN1 on
   [coalesced] with Nagle off.  Open-loop Poisson arrivals; latency runs
   from the instant a request was due to the last byte of its eighth
   response.  Each request names its response size and its id; the
   server echoes the id so the client checks every response it reads. *)

let incast_servers = 8
let all_answered = (1 lsl incast_servers) - 1
let incast_params = { Tcp_params.coalesced with Tcp_params.nagle = false }
let req_size = 64
let resp_size = 256
let rpc_port = 9

type rpc = {
  rid : int;
  due : float;
  mutable pending : int;
  mutable answered : int; (* bit [i] set once server [i]'s response is read *)
  mutable sent : int;
  mutable all_sent : float;
  mutable first_byte : float;
  mutable first_done : float;
  mutable last_done : float;
}

type incast_out = { it : iter; completed : int; expired : int }

(* Read exactly [length buf] bytes into [buf]; false at end of stream. *)
let read_exactly conn buf on_first =
  let n = View.length buf in
  let got = ref 0 in
  (try
     while !got < n do
       match conn.Sockets.recv ~max:(n - !got) with
       | None -> raise Exit
       | Some v ->
           if !got = 0 then on_first ();
           View.blit v 0 buf !got (View.length v);
           got := !got + View.length v
     done
   with Exit -> ());
  !got = n

(* A response: the request id, then filler. *)
let fill_response v rid =
  View.fill v 'r';
  View.set_uint32 v 0 (Int32.of_int rid)

let is_response v rid =
  Int32.to_int (View.get_uint32 v 0) = rid
  &&
  let ok = ref true in
  for i = 4 to View.length v - 1 do
    if View.get_uint8 v i <> Char.code 'r' then ok := false
  done;
  !ok

let incast_world seed _ =
  World.create ~seed ~num_hosts:(incast_servers + 1) ~network:World.An1
    ~org:Organization.User_library ~tcp_params:incast_params ()

let incast_iter ~seed ~rate ~requests =
  let w = build (incast_world seed) in
  let t1 = wall () in
  let sp_run = Spans.start Spans.Real "run" (Spans.real_ms ()) in
  let sched = World.sched w in
  let rng = Rng.create ~seed in
  let tap = attach_tap w in
  let servers = Array.init incast_servers (fun i -> lib w (i + 1) (Printf.sprintf "rpc-srv%d" i)) in
  let client = lib w 0 "rpc-client" in
  let busy0 = Array.init (incast_servers + 1) (host_busy w) in
  let bad_reply = ref 0 in
  Array.iter
    (fun srv ->
      Sched.spawn sched ~name:"rpc-server" (fun () ->
          let l = (Protolib.app srv).Sockets.listen ~port:rpc_port in
          let conn = l.Sockets.accept () in
          let buf = View.create req_size in
          let rec serve () =
            let got = ref 0 and eof = ref false in
            while (not !eof) && !got < req_size do
              match conn.Sockets.recv ~max:(req_size - !got) with
              | None -> eof := true
              | Some v ->
                  View.blit v 0 buf !got (View.length v);
                  got := !got + View.length v
            done;
            if !eof then conn.Sockets.close ()
            else begin
              let n = Int32.to_int (View.get_uint32 buf 0) in
              let reply = View.create n in
              fill_response reply (Int32.to_int (View.get_uint32 buf 4));
              conn.Sockets.send reply;
              serve ()
            end
          in
          try serve () with _ -> ( try conn.Sockets.close () with _ -> ())))
    servers;
  let reqs = Array.make requests None in
  (* Kept by the readers as they go, and checked against the requests'
     own state once the phase ends. *)
  let completed = ref 0 and responses = ref 0 and duplicates = ref 0 in
  let rx_snap = ref [] in
  let busy_start = ref 0 in
  let t_start = ref 0. and t_gen = ref 0. in
  let connect_failed = ref 0 in
  Sched.block_on sched (fun () ->
      let app = Protolib.app client in
      let chans =
        Array.init incast_servers (fun i ->
            match app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w (i + 1)) ~dst_port:rpc_port with
            | Error _ ->
                incr connect_failed;
                None
            | Ok conn ->
                let mb : rpc option Mailbox.t = Mailbox.create () in
                let fifo : rpc Queue.t = Queue.create () in
                let sem = Semaphore.create ~sched () in
                Sched.spawn sched ~name:"rpc-send" (fun () ->
                    let rec loop () =
                      match Mailbox.recv mb with
                      | None -> conn.Sockets.close ()
                      | Some r ->
                          let v = View.create req_size in
                          View.fill v 'q';
                          View.set_uint32 v 0 (Int32.of_int resp_size);
                          View.set_uint32 v 4 (Int32.of_int r.rid);
                          Queue.push r fifo;
                          Semaphore.signal sem;
                          conn.Sockets.send v;
                          r.sent <- r.sent + 1;
                          if r.sent = incast_servers then r.all_sent <- sim_ms sched;
                          loop ()
                    in
                    try loop () with _ -> ( try conn.Sockets.close () with _ -> ()));
                let buf = View.create resp_size in
                let bit = 1 lsl i in
                Sched.spawn sched ~name:"rpc-read" (fun () ->
                    let rec loop () =
                      Semaphore.wait sem;
                      match Queue.pop fifo with
                      | exception Queue.Empty -> ()
                      | r ->
                          let ok =
                            read_exactly conn buf (fun () ->
                                let now = sim_ms sched in
                                if r.first_byte = 0. || now < r.first_byte then r.first_byte <- now)
                          in
                          if ok then begin
                            if not (is_response buf r.rid) then incr bad_reply;
                            incr responses;
                            if r.answered land bit <> 0 then incr duplicates;
                            r.answered <- r.answered lor bit;
                            let now = sim_ms sched in
                            if r.pending = incast_servers then r.first_done <- now;
                            r.pending <- r.pending - 1;
                            if r.answered = all_answered then begin
                              r.last_done <- now;
                              incr completed
                            end;
                            loop ()
                          end
                          else incr bad_reply
                    in
                    try loop () with _ -> ());
                Some mb)
      in
      busy_start := busy_all w;
      t_start := sim_ms sched;
      for i = 0 to requests - 1 do
        let r =
          { rid = i; due = sim_ms sched; pending = incast_servers; answered = 0; sent = 0; all_sent = 0.;
            first_byte = 0.; first_done = 0.; last_done = 0. }
        in
        reqs.(i) <- Some r;
        Array.iter (function Some mb -> Mailbox.send mb (Some r) | None -> ()) chans;
        let u = Float.max 1e-12 (Rng.float rng 1.0) in
        Sched.sleep sched (Time.ns (int_of_float (-.log u /. rate *. 1e9)))
      done;
      t_gen := sim_ms sched;
      let deadline = !t_gen +. 2000. in
      while !completed < requests && sim_ms sched < deadline do
        Sched.sleep sched (Time.ms 1)
      done;
      rx_snap := [ Protolib.rxstats client ] @ Array.to_list (Array.map Protolib.rxstats servers);
      Array.iter (function Some mb -> Mailbox.send mb None | None -> ()) chans);
  let elapsed_ms = sim_ms sched -. !t_start in
  let cpu = float_of_int (busy_all w - !busy_start) in
  let expired = ref 0 and done_ = ref 0 and answers = ref 0 and inconsistent = ref 0 in
  let lat = ref [] in
  let popcount x =
    let rec go x n = if x = 0 then n else go (x land (x - 1)) (n + 1) in
    go x 0
  in
  Array.iter
    (function
      | None -> incr inconsistent
      | Some r ->
          let got = popcount r.answered in
          answers := !answers + got;
          if r.pending <> incast_servers - got || r.pending < 0 then incr inconsistent;
          if r.answered <> all_answered then incr expired
          else begin
            incr done_;
            lat := (r.last_done -. r.due) :: !lat;
            if !Spans.on then begin
              let root = Spans.start ~key:r.rid Spans.Sim "rpc" r.due in
              Spans.finish root r.last_done;
              let first = Float.max r.all_sent r.first_byte in
              Spans.record ~parent:root ~key:r.rid Spans.Sim "rpc.queue" r.due r.all_sent;
              Spans.record ~parent:root ~key:r.rid Spans.Sim "rpc.wait" r.all_sent first;
              Spans.record ~parent:root ~key:r.rid Spans.Sim "rpc.drain" first r.first_done;
              Spans.record ~parent:root ~key:r.rid Spans.Sim "rpc.straggler" r.first_done r.last_done
            end
          end)
    reqs;
  check (!connect_failed = 0) "incast connect";
  check (!bad_reply = 0) (Printf.sprintf "incast: %d short or mismatched responses" !bad_reply);
  check (!duplicates = 0) (Printf.sprintf "incast: %d responses read twice" !duplicates);
  check (!inconsistent = 0) (Printf.sprintf "incast: %d requests with inconsistent state" !inconsistent);
  check (!responses = !answers)
    (Printf.sprintf "incast: %d responses read, %d credited to requests" !responses !answers);
  check (!completed = !done_)
    (Printf.sprintf "incast: readers completed %d requests, %d have every response" !completed !done_);
  check (!done_ + !expired = requests) "incast: completed + expired = offered";
  let run_s = wall () -. t1 in
  let layers =
    if not !Spans.on then []
    else
      world_layers w ~libs:(client :: Array.to_list servers) ~rx:!rx_snap ~tx:[] ~bufs:[] ~tap
        ~goodput_bytes:(!completed * incast_servers * (req_size + resp_size))
        ~elapsed_ms ~busy0
  in
  let layers = layers @ settle w (client :: Array.to_list servers) in
  Spans.finish sp_run (Spans.real_ms ());
  let gen_s = (!t_gen -. !t_start) /. 1000. in
  { it =
      { run_s; ops = float_of_int !completed /. Float.max 1e-9 gen_s; lat_ms = !lat;
        cpu_ns = cpu; nops = !completed; layers };
    completed = !completed;
    expired = !expired }

(* The highest offered rate whose p99 stays within [slo_ms], an expired
   request counting as a miss.  The limit sits well below the knee: at
   185 rps, within 5% of saturation, p99 over 20000 requests ranged
   177-206 ms across five seeds, while at 140 rps it ranged 97-104 ms.
   p99 grows about exponentially in the rate here, so the crossing is
   found on log p99: a secant through two fixed rates, then one Newton
   step from a probe at the secant's estimate, with the secant's slope.
   Every probe pools [slo_worlds_per_probe] independent worlds, the
   same seeds at every rate (the same arrival sequences, scaled).

   When that does not apply (a probe has more than 1% of its requests
   expired, so its p99 is infinite; p99 does not grow with the rate; or
   no probe meets the limit) the search falls back to brackets: it
   halves the lowest rate probed until one meets the limit, or grows
   the highest until one fails, then bisects between the highest rate
   that met it and the lowest above that failed, and reports the
   former.  No rate down to [slo_floor_rps] meeting the limit fails a
   check.  Returns the rate and the number of probes made. *)
let slo_ms = 100.
let slo_rates = (120., 160.)
let slo_worlds_per_probe = 4
let slo_requests = 6000
let slo_floor_rps = 30.
let slo_bisections = 3

let slo_search ~seed =
  let target = log slo_ms in
  let probes = ref [] in
  let probe rate =
    let y =
      List.init slo_worlds_per_probe (fun k ->
          let o = incast_iter ~seed:(seed + (7919 * k)) ~rate ~requests:slo_requests in
          Array.append (Array.of_list o.it.lat_ms) (Array.make o.expired infinity))
      |> Array.concat |> Percentile.percentile 0.99 |> log
    in
    probes := (rate, y) :: !probes;
    y
  in
  let meets (_, y) = y <= target in
  let r0, r1 = slo_rates in
  let y0 = probe r0 and y1 = probe r1 in
  let slope = (y1 -. y0) /. (r1 -. r0) in
  let newton =
    if not (Float.is_finite y1 && slope > 0.) then None
    else begin
      let x1 = Float.min (2. *. r1) (Float.max (r0 /. 2.) (r0 +. ((target -. y0) /. slope))) in
      let y = probe x1 in
      let x = x1 +. ((target -. y) /. slope) in
      if Float.is_finite y && x > 0. && List.exists meets !probes then Some x else None
    end
  in
  let rates f = List.filter_map (fun ((r, _) as p) -> if f p then Some r else None) !probes in
  let lowest f = List.fold_left Float.min infinity (rates f) in
  let highest f = List.fold_left Float.max neg_infinity (rates f) in
  let lo () = highest meets in
  let hi () = lowest (fun ((r, _) as p) -> (not (meets p)) && r > lo ()) in
  let rate =
    match newton with
    | Some x -> x
    | None ->
        while lo () = neg_infinity && lowest (fun _ -> true) /. 2. >= slo_floor_rps do
          ignore (probe (lowest (fun _ -> true) /. 2.))
        done;
        let ups = ref 0 in
        while lo () > neg_infinity && hi () = infinity && !ups < 3 do
          incr ups;
          ignore (probe (highest (fun _ -> true) *. 1.5))
        done;
        if lo () > neg_infinity && hi () < infinity then
          for _ = 1 to slo_bisections do
            ignore (probe ((lo () +. hi ()) /. 2.))
          done;
        let found = lo () > neg_infinity in
        check found
          (Printf.sprintf "incast: no rate down to %.0f rps meets p99 <= %.0f ms" slo_floor_rps slo_ms);
        if found then lo () else lowest (fun _ -> true)
  in
  (rate, List.length !probes)

(* ---------------------------------------------------------------------- *)
(* churn: closed-loop connect-then-close by 4 clients on host 0 against
   one server host carrying 64k background filters, on the [+lease]
   ladder preset with hierarchical demux.  Think times come from the
   seed.  The registry is deliberately unsharded: with endpoint leases
   and the TIME_WAIT wheel on, [shard_registry] raises
   [Effect.Unhandled] ([repro-shard-lease] below). *)

let churn_clients = 4
let churn_population = 65536
let churn_think_ms = 2.

let churn_params =
  let p = { (List.assoc "+lease" Churn.configs) with Tcp_params.hier_demux = true } in
  assert (not p.Tcp_params.shard_registry);
  p

let churn_world seed parent =
  let w =
    World.create ~seed ~num_hosts:2 ~network:World.Ethernet ~org:Organization.User_library
      ~tcp_params:churn_params ()
  in
  let sp = Spans.start ~parent Spans.Real "populate" (Spans.real_ms ()) in
  Experiments.populate_background w ~host:1 churn_population;
  Spans.finish sp (Spans.real_ms ());
  w

let churn_iter ~seed ~conns =
  let w = build (churn_world seed) in
  let t1 = wall () in
  let sp_run = Spans.start Spans.Real "run" (Spans.real_ms ()) in
  let sched = World.sched w in
  let tap = attach_tap w in
  let base_port = 9000 in
  let srv = lib w 1 "churn-srv" in
  let clients = List.init churn_clients (fun i -> lib w 0 (Printf.sprintf "churn-cli%d" i)) in
  let busy0 = Array.init 2 (host_busy w) in
  let busy_start = busy_all w in
  for i = 0 to churn_clients - 1 do
    Sched.spawn sched ~name:"churn-srv" (fun () ->
        let l = (Protolib.app srv).Sockets.listen ~port:(base_port + i) in
        for _ = 1 to conns do
          let c = l.Sockets.accept () in
          (match c.Sockets.recv ~max:16 with Some _ -> () | None -> ());
          c.Sockets.close ()
        done)
  done;
  let lat = ref [] and errors = ref 0 and done_ = ref 0 in
  let t_start = ref 0. and t_end = ref 0. in
  Sched.block_on sched (fun () ->
      t_start := sim_ms sched;
      let finished = ref 0 and wake = ref (fun () -> ()) in
      List.iteri
        (fun i cl ->
          let rng = Rng.create ~seed:((seed * 7919) + i) in
          let app = Protolib.app cl in
          Sched.spawn sched ~name:"churn-loop" (fun () ->
              for k = 1 to conns do
                let u = Float.max 1e-12 (Rng.float rng 1.0) in
                Sched.sleep sched (Time.of_ms_f (-.log u *. churn_think_ms));
                let key = (i * conns) + k in
                let c0 = sim_ms sched in
                let root = Spans.start ~key Spans.Sim "churn.conn" c0 in
                let sp = Spans.start ~parent:root ~key Spans.Sim "churn.connect" c0 in
                match
                  app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:(base_port + i)
                with
                | Error _ ->
                    Spans.finish sp (sim_ms sched);
                    Spans.finish root (sim_ms sched);
                    incr errors
                | Ok c ->
                    let c1 = sim_ms sched in
                    Spans.finish sp c1;
                    lat := (c1 -. c0) :: !lat;
                    incr done_;
                    let sc = Spans.start ~parent:root ~key Spans.Sim "churn.close" c1 in
                    c.Sockets.close ();
                    Spans.finish sc (sim_ms sched);
                    Spans.finish root (sim_ms sched)
              done;
              incr finished;
              if !finished = churn_clients then begin
                t_end := sim_ms sched;
                !wake ()
              end))
        clients;
      Sched.suspend (fun k -> wake := k));
  let cpu = float_of_int (busy_all w - busy_start) in
  tally ~ok:!done_ ~bad:!errors "churn connect returned Error";
  let elapsed_ms = !t_end -. !t_start in
  let run_s = wall () -. t1 in
  let layers =
    if not !Spans.on then []
    else
      world_layers w ~libs:(srv :: clients) ~rx:[] ~tx:[] ~bufs:[] ~tap ~goodput_bytes:0
        ~elapsed_ms ~busy0
  in
  let layers = layers @ settle w (srv :: clients) in
  (* Named semaphores stay in a global registry, which keeps the whole
     world reachable (about 0.1 MB per connection); a churn world is
     dropped the way the SMP workload drops its own, so the heap shows
     the population rather than the connections' retained state. *)
  Semaphore.reset_registered ~sched ();
  Spans.finish sp_run (Spans.real_ms ());
  { run_s; ops = float_of_int !done_ /. (elapsed_ms /. 1000.); lat_ms = !lat; cpu_ns = cpu;
    nops = !done_; layers }

let repro_shard_lease () =
  let prm = { (List.assoc "+lease" Churn.configs) with Tcp_params.shard_registry = true } in
  match
    Churn.run ~pairs:2 ~conns_per_pair:64 ~tcp_params:prm ~config:"+lease" ~network:World.Ethernet
      ~org:Organization.User_library ()
  with
  | _ ->
      print_endline "repro-shard-lease: runs cleanly (the defect is fixed)";
      0
  | exception e ->
      Printf.printf "repro-shard-lease: still raises %s\n" (Printexc.to_string e);
      1

(* ---------------------------------------------------------------------- *)
(* Real-clock probes of single layers, each timed over enough calls to
   rise well above the clock's resolution. *)

let time_per ~n f =
  let t0 = wall () in
  for i = 0 to n - 1 do
    f i
  done;
  (wall () -. t0) *. 1e9 /. float_of_int n

let probe_sched () =
  let n = 200_000 in
  let s = Sched.create () in
  let rng = Rng.create ~seed:7 in
  let fired = ref 0 in
  let t0 = wall () in
  for _ = 1 to n do
    Sched.after s (Time.us (Rng.int rng 10_000)) (fun () -> incr fired)
  done;
  Sched.run s;
  let ns = (wall () -. t0) *. 1e9 /. float_of_int n in
  check (!fired = n) "sched probe";
  ns

(* Dispatch and install cost on a table shaped like the workload's:
   [population] stamped connection filters behind one template, with
   the workload's demux mode. *)
let probe_demux ~population ~hier =
  let src_ip = Ip.make 10 77 0 1 and dst_ip = Ip.make 10 0 0 1 in
  let d = Demux.create ~mode:Demux.Interpreted ~hier () in
  let tkey = Demux.install_exn d (Program.tcp_conn ~src_ip ~dst_ip ~src_port:9999 ~dst_port:80) (-1) in
  let cons i = [ (28, (i lsr 16) land 0xff); (29, 2); (34, (i lsr 8) land 0xff); (35, i land 0xff) ] in
  let population = max population 1 in
  let install_ns =
    time_per ~n:population (fun i ->
        match Demux.install_stamped d ~template:tkey ~constraints:(cons i) ~min_len:54 i with
        | Ok _ -> ()
        | Error e -> failwith e)
  in
  let pkt i =
    let v = View.create 54 in
    View.set_uint16 v 12 0x0800;
    View.set_uint8 v 14 0x45;
    View.set_uint8 v 23 6;
    View.set_uint8 v 26 10;
    View.set_uint8 v 27 77;
    View.set_uint8 v 28 ((i lsr 16) land 0xff);
    View.set_uint8 v 29 2;
    View.set_uint16 v 34 (i land 0xffff);
    View.set_uint16 v 36 80;
    v
  in
  let pkts = Array.init 1024 (fun k -> pkt (k * max 1 (population / 1024) mod population)) in
  let cycles = ref 0 and hits = ref 0 in
  let n = if hier || population < 64 then 200_000 else 2_000 in
  let dispatch_ns =
    time_per ~n (fun k ->
        let e, c = Demux.dispatch d pkts.(k land 1023) in
        cycles := !cycles + c;
        if e <> None then incr hits)
  in
  check (!hits = n) "demux probe: every probe packet matched its flow";
  (dispatch_ns, float_of_int !cycles /. float_of_int n, install_ns)

let probe_wire size =
  let src_ip = Ip.make 10 0 0 1 and dst_ip = Ip.make 10 0 0 2 in
  let payload = View.create size in
  View.fill payload 'p';
  let seg =
    { Tcp_wire.src_port = 5001; dst_port = 80; seq = Tcp_seq.of_int32 1000l; ack = Tcp_seq.of_int32 2000l;
      flags = { Tcp_wire.no_flags with Tcp_wire.ack = true; psh = true }; wnd = 65535;
      opts = Tcp_wire.no_opts; payload = Mbuf.of_view payload }
  in
  let n = 100_000 in
  let enc = ref Mbuf.empty in
  let encode_ns = time_per ~n (fun _ -> enc := Tcp_wire.encode ~src_ip ~dst_ip seg) in
  let ok = ref 0 in
  let decode_ns =
    time_per ~n (fun _ ->
        match Tcp_wire.decode ~src_ip ~dst_ip !enc with Some _ -> incr ok | None -> ())
  in
  check (!ok = n) "wire probe: decode round trip";
  let acc = ref 0 in
  let checksum_ns = time_per ~n (fun _ -> acc := !acc lxor Checksum.of_view payload) in
  (encode_ns, decode_ns, checksum_ns)

let probe_pool () =
  let p = Pool.create ~count:Calibration.tx_pool_slots ~size:Calibration.tx_pool_buffer_size in
  let held = Array.make Calibration.tx_pool_slots None in
  let rounds = 20_000 in
  let ns =
    time_per ~n:rounds (fun _ ->
        for i = 0 to Calibration.tx_pool_slots - 1 do
          held.(i) <- Pool.alloc p
        done;
        Array.iteri (fun i v -> Option.iter (Pool.free p) v; held.(i) <- None) held)
  in
  ns /. float_of_int Calibration.tx_pool_slots


(* ---------------------------------------------------------------------- *)
(* Runs and reporting. *)

type workload = Bulk | Incast | Churn

let workload_of_string = function
  | "bulk" -> Bulk
  | "incast" -> Incast
  | "churn" -> Churn
  | s -> raise (Arg.Bad ("unknown workload " ^ s))

let workload_name = function Bulk -> "bulk" | Incast -> "incast" | Churn -> "churn"

(* Real-clock normalization.  On a shared machine the same iteration's
   real time moves by 10-20% from one minute to the next, in CPU time
   as much as in wall time.  A fixed loop of stdlib-only work (small
   maps built and folded, all garbage dying young, so the simulator's
   heap does not slow it) is timed right after each timed step, and a
   step's time is reported scaled to a machine on which that loop
   takes [ref_nominal_s] (about 90 ms on a quiet 2-core x86-64
   container).  A faster simulator moves the result; a busier machine
   moves it by about 5% where raw times drift by 20%. *)
module Int_map = Map.Make (Int)

let ref_nominal_s = 0.1

let reference () =
  let t0 = wall () in
  let acc = ref 0 in
  for r = 1 to 700 do
    let m = ref Int_map.empty in
    for i = 0 to 999 do
      m := Int_map.add (((i + r) * 7919) land 0xffff) i !m
    done;
    acc := Int_map.fold (fun k v a -> a + k + v) !m !acc
  done;
  ignore (Sys.opaque_identity !acc);
  wall () -. t0

let normalized ~ref_s t = t *. ref_nominal_s /. ref_s

(* Work per run is fixed by [--seconds] alone, never by how fast the
   machine is, so two commits always measure the same operations.  The
   [unit_s] constants are the real cost of one iteration on a 2-core
   x86-64 container, so a run takes about [--seconds]. *)
let iterations ~seconds ~unit_s ~min = max min (int_of_float (Float.round (seconds /. unit_s)))

let bulk_bytes = 64 lsl 20
let incast_requests = 2500
let incast_rate = 100.
let churn_conns = 512

(* [setup_s] is timed on worlds built only for it, before the measured
   phase, in blocks: [per_block] worlds built back to back in one timed
   span, then the reference loop, so each block is normalized by a
   reading taken next to it.  A bulk world takes about 75 us to build
   and an incast world about 2 ms, too short to time one at a time; a
   churn world, with its population, about 0.2 s.  [setup_s] is the
   median over blocks of the normalized time per world. *)
let setup_blocks = 9

let setup_plan = function
  | Bulk -> (200, bulk_world)
  | Incast -> (20, incast_world)
  | Churn -> (1, churn_world)

let setup_samples workload ~seed =
  let per_block, make = setup_plan workload in
  List.init setup_blocks (fun b ->
      let t0 = wall () in
      let ws = List.init per_block (fun i -> build (make (seed + (b * per_block) + i))) in
      let t = (wall () -. t0) /. float_of_int per_block in
      let ref_s = reference () in
      (* Named semaphores would keep these worlds reachable. *)
      List.iter (fun w -> Semaphore.reset_registered ~sched:(World.sched w) ()) ws;
      normalized ~ref_s t)

let layer_units =
  [ ("engine.pending_events_at_end", "count"); ("host.client.busy_ms", "ms");
    ("host.server.busy_ms", "ms"); ("host.client.util", "frac");
    ("host.copy_ns_per_byte", "ns/B"); ("host.checksum_ns_per_byte", "ns/B");
    ("host.copy_checksum_ns_per_byte", "ns/B"); ("net.gso_frames_per_episode", "frames");
    ("net.txc_descs_per_event", "descs"); ("net.wire_frames", "count");
    ("net.wire_bytes_per_goodput_byte", "B/B"); ("net.wire_busy_frac", "frac");
    ("net.interrupts", "count"); ("net.polls", "count"); ("net.ring_drops", "count");
    ("net.ring_overflows", "count"); ("proto.retransmissions", "count");
    ("proto.checksum_failures", "count"); ("proto.header_prediction_ratio", "frac");
    ("protolib.frames_per_wakeup", "frames"); ("protolib.gro_merged", "count");
    ("protolib.acks_elided", "count"); ("protolib.gso_fallback_ratio", "frac");
    ("protolib.pacer_wait_ms", "ms"); ("protolib.tx_pool_exhausted", "count");
    ("protolib.lease_hit_ratio", "frac"); ("protolib.live_connections_at_end", "count");
    ("registry.pool_hit_ratio", "frac"); ("registry.leg_port_alloc_ms", "ms");
    ("registry.leg_round_trip_ms", "ms"); ("registry.leg_finish_ms", "ms");
    ("registry.tw_parked", "count"); ("netio.rx_frames", "count");
    ("netio.unmatched_drops", "count"); ("span.bulk.send_blocked_frac", "frac");
    ("span.bulk.recv_wait_frac", "frac"); ("gc.minor_mwords", "Mwords");
    ("gc.promoted_mwords", "Mwords"); ("gc.major_collections", "count"); ("gc.pause_ms", "ms") ]

let fmt_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let emit ~correct metrics =
  let body =
    List.map
      (fun (name, value, unit_) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (fmt_float value) unit_)
      metrics
    |> String.concat ", "
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    (max 1 !attempted) !failed body

let pct q xs = if xs = [] then 0. else Percentile.percentile q (Array.of_list xs)

let run ~workload ~seed ~seconds ~trace ~trace_file =
  if trace then Gc_pause.start ();
  let name = workload_name workload in
  let say fmt = Printf.ksprintf (fun s -> Printf.printf "%s %s\n%!" name s) fmt in
  let live0 =
    if trace then begin
      Gc.full_major ();
      (Gc.stat ()).Gc.live_words
    end
    else 0
  in
  let worlds = ref 0 in
  let setups = setup_samples workload ~seed in
  let raw_run = ref [] in
  (* The traced run makes the same iterations as the untraced one,
     alternating untraced and traced; the untraced ones price the
     tracing. *)
  let plain = ref [] and traced = ref [] and lost_traced = ref 0 in
  let one ~tr f =
    Spans.on := tr;
    let g0 = Gc.quick_stat () and p0 = if tr then Gc_pause.ms () else 0. in
    let lost0 = !Gc_pause.lost in
    let it = f () in
    let ref_s = reference () in
    raw_run := it.run_s :: !raw_run;
    let it =
      { it with run_s = normalized ~ref_s it.run_s }
    in
    incr worlds;
    let g1 = Gc.quick_stat () in
    Spans.on := false;
    if tr then begin
      let gc =
        [ ("gc.minor_mwords", (g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6);
          ("gc.promoted_mwords", (g1.Gc.promoted_words -. g0.Gc.promoted_words) /. 1e6);
          ("gc.major_collections", float_of_int (g1.Gc.major_collections - g0.Gc.major_collections));
          ("gc.pause_ms", Gc_pause.ms () -. p0) ]
      in
      lost_traced := !lost_traced + !Gc_pause.lost - lost0;
      traced := { it with layers = it.layers @ gc } :: !traced
    end
    else plain := it :: !plain
  in
  let iterate n f =
    for i = 0 to n - 1 do
      one ~tr:(trace && i mod 2 = 1) (fun () -> f ((seed * 1009) + i))
    done
  in
  let slo = ref 0. in
  (match workload with
  | Bulk ->
      let n = iterations ~seconds ~unit_s:1.07 ~min:3 in
      let gp = ref [] and cpb = ref [] in
      iterate n (fun seed ->
          let it, (g, c) = bulk_iter ~seed ~bytes:bulk_bytes in
          gp := g :: !gp;
          cpb := c :: !cpb;
          it);
      say "goodput_mbps %.4f Mb/s (median of %d transfers of %d MB)" (median !gp) (List.length !gp)
        (bulk_bytes lsr 20);
      say "cpu_ns_per_byte %.4f ns/B (busy ns of both hosts per goodput byte)" (median !cpb)
  | Incast ->
      let n = iterations ~seconds:(seconds -. 15.) ~unit_s:0.65 ~min:4 in
      iterate n (fun seed ->
          let o = incast_iter ~seed ~rate:incast_rate ~requests:incast_requests in
          tally ~ok:o.completed ~bad:o.expired "incast request expired at the fixed rate";
          o.it);
      if not trace then begin
        let s, probes = slo_search ~seed in
        worlds := !worlds + (probes * slo_worlds_per_probe);
        slo := s;
        say "slo_rps %.4f rps (p99 <= %.0f ms, expired = missed; %d probes of %d worlds x %d requests)"
          s slo_ms probes slo_worlds_per_probe slo_requests
      end
  | Churn ->
      let n = iterations ~seconds ~unit_s:2.5 ~min:3 in
      iterate n (fun seed -> churn_iter ~seed ~conns:churn_conns));
  let its = if trace then !traced else !plain in
  let lat = List.concat_map (fun it -> it.lat_ms) its in
  let nlat = List.length lat in
  let p50 = pct 0.5 lat and p99 = pct 0.99 lat in
  check (nlat >= 1000) (Printf.sprintf "latency samples: %d < 1000, p99 needs 10 beyond it" nlat);
  let ops = match workload with Incast -> !slo | Bulk | Churn -> median (List.map (fun it -> it.ops) its) in
  let cpu_us = median (List.map (fun it -> it.cpu_ns /. 1000. /. float_of_int (max 1 it.nops)) its) in
  let wall_s = median (List.map (fun it -> it.run_s) its) in
  let setup_s = median setups in
  let peak_mb = mb_of_words (Gc.quick_stat ()).Gc.top_heap_words in
  (match workload with
  | Bulk -> say "write_p50_ms %.4f ms, write_p99_ms %.4f ms (n=%d writes)" p50 p99 nlat
  | Incast ->
      say "rpc_p50_ms %.4f ms, rpc_p99_ms %.4f ms (n=%d requests at %.0f rps)" p50 p99 nlat incast_rate
  | Churn ->
      say "conns_per_sec %.4f conns/s" ops;
      say "connect_p50_ms %.4f ms, connect_p99_ms %.4f ms (n=%d connects)" p50 p99 nlat);
  let metrics =
    if not trace then
      [ ("ops_per_s", ops, "1/s"); ("op_p50_ms", p50, "ms"); ("op_p99_ms", p99, "ms");
        ("cpu_us_per_op", cpu_us, "us"); ("wall_s", wall_s, "s"); ("setup_s", setup_s, "s");
        ("peak_heap_mb", peak_mb, "MB") ]
    else begin
      let layer key = median (List.filter_map (fun it -> List.assoc_opt key it.layers) its) in
      Gc.full_major ();
      let retained =
        mb_of_words ((Gc.stat ()).Gc.live_words - live0) /. float_of_int (max 1 !worlds)
      in
      let population, hier =
        match workload with Churn -> (churn_population, true) | Bulk | Incast -> (4, false)
      in
      let d_ns, d_cyc, i_ns = probe_demux ~population ~hier in
      let e1, d1, c1 = probe_wire 1460 and e2, d2, c2 = probe_wire 256 in
      let span name = median (Spans.durations name) in
      let untraced = median (List.map (fun it -> it.run_s) !plain) in
      let overhead = if untraced > 0. then (wall_s /. untraced) -. 1. else 0. in
      say "tracing overhead on wall_s: %+.2f%% (%d traced vs %d untraced iterations)"
        (100. *. overhead) (List.length !traced) (List.length !plain);
      say "gc event ring: %d events lost in traced iterations" !lost_traced;
      [ ("engine.sched_ns_per_event", probe_sched (), "ns") ]
      @ List.map (fun (n, u) -> (n, layer n, u)) layer_units
      @ [ ("gc.retained_mb_per_world", retained, "MB");
          ("pktfilter.dispatch_ns", d_ns, "ns");
          ("pktfilter.dispatch_cycles", d_cyc, "cycles");
          ("pktfilter.install_ns", i_ns, "ns");
          ("proto.encode_ns_1460", e1, "ns"); ("proto.encode_ns_256", e2, "ns");
          ("proto.decode_ns_1460", d1, "ns"); ("proto.decode_ns_256", d2, "ns");
          ("proto.checksum_ns_1460", c1, "ns"); ("proto.checksum_ns_256", c2, "ns");
          ("buf.pool_alloc_free_ns", probe_pool (), "ns");
          ("span.rpc.queue_ms", span "rpc.queue", "ms");
          ("span.rpc.wait_ms", span "rpc.wait", "ms");
          ("span.rpc.drain_ms", span "rpc.drain", "ms");
          ("span.rpc.straggler_ms", span "rpc.straggler", "ms");
          ("span.churn.connect_ms", span "churn.connect", "ms");
          ("span.churn.close_ms", span "churn.close", "ms");
          ("span.world_create_ms", span "world_create", "ms");
          ("span.populate_s", span "populate" /. 1000., "s");
          ("span.run_s", span "run" /. 1000., "s");
          ("trace.overhead_frac", overhead, "frac");
          ("failed_frac", ratio !failed (max 1 !attempted), "frac") ]
    end
  in
  say "failed_frac %.6f (%d of %d)" (ratio !failed (max 1 !attempted)) !failed (max 1 !attempted);
  say "wall_s %.4f s, setup_s %.6f s (normalized; raw wall median %.4f s), peak_heap_mb %.2f MB"
    wall_s setup_s (median !raw_run) peak_mb;
  if trace then begin
    Spans.write trace_file;
    say "spans: %d written to %s" (List.length !Spans.all) trace_file;
    List.iter
      (fun (span, (n, total, self)) ->
        say "span %-14s n=%-6d total_ms=%.3f self_ms=%.3f" span n total self)
      (Spans.self_times ())
  end;
  List.iter (fun f -> say "FAILED: %s" f) (List.rev !failures);
  let correct = !failed = 0 in
  emit ~correct metrics;
  if correct then 0 else 1

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let trace_file = ref "perfbench-trace.json" and repro = ref false in
  let spec =
    [ ("--workload", Arg.Set_string workload, "bulk|incast|churn");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  nominal length of the measured phase");
      ("--trace", Arg.Set_int trace, "0|1  the per-layer traced run");
      ("--trace-file", Arg.Set_string trace_file, "PATH  where the traced run writes its spans") ]
  in
  Arg.parse spec
    (function "repro-shard-lease" -> repro := true | a -> raise (Arg.Bad ("unexpected " ^ a)))
    "perfbench --workload W --seed N --seconds S --trace 0|1 | perfbench repro-shard-lease";
  if !repro then exit (repro_shard_lease ());
  let workload =
    try workload_of_string !workload
    with Arg.Bad m ->
      prerr_endline m;
      exit 2
  in
  exit
    (run ~workload ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:(!trace = 1)
       ~trace_file:!trace_file)
