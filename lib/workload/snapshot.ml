(* One world snapshot under hierarchical names, read through the
   existing accessors, and the one scenario driver [netlab stats] takes
   it on. *)

module Time = Uln_engine.Time
module Sched = Uln_engine.Sched
module Semaphore = Uln_engine.Semaphore
module View = Uln_buf.View
module Cpu = Uln_host.Cpu
module Tcp = Uln_proto.Tcp
module Stack = Uln_proto.Stack
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Netio = Uln_core.Netio
module Registry = Uln_core.Registry
module Protolib = Uln_core.Protolib
module Sockets = Uln_core.Sockets
module Organization = Uln_core.Organization

(* --- the snapshot ------------------------------------------------------- *)

let i k v = (k, Jout.int v)
let f k v = (k, Jout.float v)
let b k v = (k, string_of_bool v)
let under p = List.map (fun (k, v) -> (p ^ "." ^ k, v))
let hist k = List.map (fun (x, n) -> i (Printf.sprintf "%s.%d" k x) n)

(* [name0.*], [name1.*], ... in list order. *)
let each name rows xs =
  List.concat (List.mapi (fun k x -> under (Printf.sprintf "%s%d" name k) (rows x)) xs)

let cpu now c =
  [ i "busy_ns" (Cpu.busy_ns c); f "util" (Cpu.utilization c now);
    i "migrations" (Cpu.migrations c); i "migrate_ns" (Cpu.migrate_ns c);
    i "copy_ns" (Cpu.copy_ns c); i "checksum_ns" (Cpu.checksum_ns c);
    i "copy_checksum_ns" (Cpu.copy_checksum_ns c) ]

let netio n =
  let { Uln_net.Napi.interrupts; polls; polled_frames; ring_drops } = Netio.napi_stats n in
  let { Uln_net.Txq.gso_episodes; gso_frames; events; descs } = Netio.txq_stats n in
  [ i "rx_wakeups" (Netio.rx_wakeups n); i "rx_frames" (Netio.rx_frames n);
    i "migrations" (Netio.migrations n); i "ring_overflows" (Netio.ring_overflows n);
    i "unmatched_drops" (Netio.unmatched_drops n); i "sends_rejected" (Netio.sends_rejected n);
    i "hw_demuxed" (Netio.hw_demuxed n); i "sw_demuxed" (Netio.sw_demuxed n);
    i "napi.interrupts" interrupts; i "napi.polls" polls; i "napi.polled_frames" polled_frames;
    i "napi.ring_drops" ring_drops; i "txq.gso_episodes" gso_episodes;
    i "txq.gso_frames" gso_frames; i "txq.events" events; i "txq.descs" descs ]
  @ hist "rx_burst" (Netio.rx_burst_histogram n)

let registry r =
  let open Registry in
  let l = setup_legs r and p = pool_stats r and ls = lease_stats r in
  let tw = time_wait_stats r and q = quota_limits r in
  [ i "ports_in_use" (ports_in_use r); i "handshakes_completed" (handshakes_completed r);
    i "inherited_connections" (inherited_connections r); b "sharded" (sharded r);
    i "shards" (num_shards r); i "quota.max_conns" q.q_max_conns;
    i "quota.max_mem_bytes" q.q_max_mem_bytes; i "legs.samples" l.sl_samples;
    f "legs.port_alloc_us" l.sl_port_alloc_us; f "legs.round_trip_us" l.sl_round_trip_us;
    f "legs.finish_us" l.sl_finish_us; f "legs.total_us" l.sl_total_us;
    i "pool.hits" p.ps_hits; i "pool.misses" p.ps_misses; i "pool.parked" p.ps_parked;
    i "lease.granted" ls.ls_granted; i "lease.active" ls.ls_active;
    i "tw.pending" tw.tw_pending; i "tw.parked_total" tw.tw_parked_total;
    i "tw.evicted" tw.tw_evicted; i "tw.capacity" tw.tw_capacity ]
  @ List.concat_map
      (fun s ->
        under ("tenant." ^ s.ts_principal)
          [ i "active" s.ts_active; i "peak" s.ts_peak; i "mem_bytes" s.ts_mem_bytes;
            i "denied" s.ts_denied ])
      (tenant_stats r)
  @ List.concat_map
      (fun s ->
        under
          (Printf.sprintf "shard%d" s.ss_shard)
          [ i "cpu" s.ss_cpu; i "ports" s.ss_ports; i "pending" s.ss_pending;
            i "tw_pending" s.ss_tw_pending; i "lock_acquisitions" s.ss_lock_acquisitions;
            i "lock_contended" s.ss_lock_contended ])
      (shard_stats r)

let engine t =
  [ i "segments_in" (Tcp.segments_in t); i "segments_out" (Tcp.segments_out t);
    i "retransmissions" (Tcp.retransmissions t); i "rsts_out" (Tcp.rsts_out t);
    i "checksum_failures" (Tcp.checksum_failures t); i "unknown_options" (Tcp.unknown_options t);
    i "gro_merged" (Tcp.gro_merged t); i "gro_flushes" (Tcp.gro_flushes t);
    i "acks_elided" (Tcp.acks_elided t); i "gso_sends" (Tcp.gso_sends t);
    i "gso_fallbacks" (Tcp.gso_fallbacks t); i "pacer_waits" (Tcp.pacer_waits t);
    f "pacer_wait_us" (Tcp.pacer_wait_us t) ]
  @ hist "pacer_hist" (Tcp.pacer_hist t)

(* Negotiated options and retransmits by cause. *)
let conn c =
  let o = Tcp.conn_options c in
  [ i "local_port" (Tcp.local_port c); i "remote_port" (snd (Tcp.remote_addr c));
    ("state", Jout.str (Uln_proto.Tcp_state.to_string (Tcp.state c)));
    i "snd_scale" o.Tcp.co_snd_scale; i "rcv_scale" o.co_rcv_scale; b "sack" o.co_sack;
    b "timestamps" o.co_timestamps; ("cong", Jout.str o.co_cong);
    i "unknown_opts" o.co_unknown_opts; i "wnd_clamps" o.co_wnd_clamps;
    i "rexmit.rto" o.co_rto_rexmits; i "rexmit.fast" o.co_fast_rexmits;
    i "rexmit.sack" o.co_sack_rexmits; i "recovery_episodes" (List.length o.co_recovery_us) ]

let buf (s : Protolib.bufstats) =
  [ i "pool_capacity" s.bs_pool_capacity; i "pool_available" s.bs_pool_available;
    i "pool_in_use" s.bs_pool_in_use; i "pool_exhausted" s.bs_pool_exhausted;
    i "loaned_bytes" s.bs_loaned_bytes; i "tx_doorbells" s.bs_tx_doorbells;
    i "tx_batches" s.bs_tx_batches; i "tx_sync_fallbacks" s.bs_tx_sync_fallbacks ]
  @ hist "tx_batch_hist" s.bs_tx_batch_hist

(* The per-library sums of its connections' engines; the module-wide
   receive and NIC counters are the host's [netio] rows. *)
let library l =
  let rx = Protolib.rxstats l and tx = Protolib.txstats l and ls = Protolib.leasestats l in
  [ i "live_connections" (Protolib.live_connections l); i "rx.gro_merged" rx.rs_gro_merged;
    i "rx.gro_flushes" rx.rs_gro_flushes; i "rx.acks_elided" rx.rs_acks_elided;
    i "tx.gso_sends" tx.ts_gso_sends; i "tx.gso_fallbacks" tx.ts_gso_fallbacks;
    i "tx.pacer_waits" tx.ts_pacer_waits; f "tx.pacer_wait_us" tx.ts_pacer_wait_us ]
  @ hist "tx.pacer_hist" tx.ts_pacer_hist
  @ [ i "lease.leased_connects" ls.lst_leased_connects; i "lease.fallbacks" ls.lst_fallbacks;
      i "lease.free_ports" ls.lst_free_ports; i "lease.free_channels" ls.lst_free_channels ]
  @ each "conn"
      (fun ((tcp, c), s) -> conn c @ under "buf" (buf s) @ under "engine" (engine tcp))
      (List.combine (Protolib.conns l) (Protolib.bufstats l))

let stack s = engine s.Stack.tcp @ each "conn" conn (Tcp.conns s.Stack.tcp)

(* Every named lock is counted; the contended ones are listed. *)
let locks sched =
  let all = Semaphore.registered ~sched in
  i "locks.named" (List.length all)
  :: List.concat_map
       (fun (s : Semaphore.stats) ->
         if s.s_contended = 0 then []
         else
           under ("locks." ^ s.s_name)
             [ ("kind", Jout.str s.s_kind); i "acquisitions" s.s_acquisitions;
               i "contended" s.s_contended; i "wait_ns" s.s_total_wait_ns;
               i "max_wait_ns" s.s_max_wait_ns ])
       all

let fields w =
  let now = Sched.now (World.sched w) in
  let host h =
    let opt name rows = Option.fold ~none:[] ~some:(fun x -> under name (rows x)) in
    under (Printf.sprintf "host%d" h)
      (each "cpu" (cpu now) (Array.to_list (World.machine w h).Uln_host.Machine.cpus)
      @ opt "netio" netio (World.netio w h)
      @ opt "registry" registry (World.registry w h)
      @ List.concat_map (fun (name, l) -> under ("lib." ^ name) (library l)) (World.libraries w h)
      @ each "stack" stack (World.host_stacks w h))
  in
  List.concat (List.init (World.num_hosts w) host) @ locks (World.sched w)

let to_rows prefixes fields =
  List.filter_map
    (fun (k, v) ->
      if prefixes = [] || List.exists (fun prefix -> String.starts_with ~prefix k) prefixes then
        Some [ ("name", Jout.str k); ("value", v) ]
      else None)
    fields

(* --- the scenario driver ------------------------------------------------ *)

type conf = {
  org : Organization.t;
  network : World.network;
  cpus : int;
  pairs : int;
  servers : int;
  conns : int;
  bytes : int;
  size : int;
  tcp_params : Tcp_params.t;
  hold : bool;
  max_conns : int option;
  delay_ms : int;
  loss : float;
}

let default =
  { org = Organization.User_library;
    network = World.Ethernet;
    cpus = 1;
    pairs = 1;
    servers = 1;
    conns = 1;
    bytes = 400_000;
    size = 4096;
    tcp_params = Tcp_params.default;
    hold = false;
    max_conns = None;
    delay_ms = 20;
    loss = 0. }

let preset name =
  let named =
    Tcp_params.
      [ ("default", default); ("fast", fast); ("wan", wan); ("coalesced", coalesced);
        ("tx_fast", tx_fast) ]
  in
  match List.assoc_opt name named with
  | Some p -> Some p
  | None ->
      List.find_map
        (fun (s : Bench_spec.spec) ->
          if s.name = name || s.preset_name = name then Some s.preset else None)
        (Bench_spec.all_specs ())

let run ?every ?(prefixes = []) c emit =
  let quota = Option.map (fun n -> { Registry.default_quota with q_max_conns = n }) c.max_conns in
  let w =
    World.create ~cpus:c.cpus ~tcp_params:c.tcp_params ?quota ~num_hosts:(1 + c.servers)
      ~wan_delay:(Time.ms c.delay_ms) ~network:c.network ~org:c.org ()
  in
  let sched = World.sched w in
  if c.loss > 0. then
    Uln_net.Link.set_fault (World.link w)
      (Uln_net.Fault.create ~rng:(Uln_engine.Rng.create ~seed:11) ~drop:c.loss ());
  let writes = (c.bytes + c.size - 1) / c.size in
  let delivered = ref 0 and connects = ref 0 and refused = ref 0 and connect_ns = ref 0 in
  let first_conn = ref None and finished = ref false in
  let clients_done = Semaphore.create () and arrived = Semaphore.create () in
  let parked = ref [] and held = ref [] in
  let snapshot () =
    let now = Sched.now sched in
    let secs = Option.fold ~none:0. ~some:(fun t -> Time.to_sec_f (Time.diff now t)) !first_conn in
    emit w
      (to_rows prefixes
         (fields w
         @ [ f "run.t_ms" (Time.to_ms_f (Time.diff now Time.zero)); i "run.connects" !connects;
             i "run.refused" !refused; i "run.delivered_bytes" !delivered;
             f "run.connect_ms"
               (if !connects = 0 then 0. else Time.to_ms_f (!connect_ns / !connects));
             f "run.mbps" (if secs > 0. then float_of_int (!delivered * 8) /. secs /. 1e6 else 0.)
           ]))
  in
  for p = 0 to c.pairs - 1 do
    let cpu = p mod c.cpus and host = 1 + (p mod c.servers) and port = 9000 + p in
    let srv = World.app ~cpu w ~host (Printf.sprintf "srv%d" p) in
    (* Connections are served in accept order: held, closed at accept
       when there is nothing to drain (the server closes first), or
       drained to EOF and closed — the pair's last one only after the
       snapshot. *)
    Sched.spawn sched ~name:(Printf.sprintf "srv%d" p) (fun () ->
        let l = srv.Sockets.listen ~port in
        let rec serve k =
          let conn = l.Sockets.accept () in
          let rec drain got =
            if not (c.hold && got >= writes * c.size) then
              match conn.Sockets.recv_loan ~max:65536 with
              | None -> ()
              | Some v ->
                  delivered := !delivered + View.length v;
                  conn.Sockets.return_loan v;
                  drain (got + View.length v)
          in
          if c.hold || writes > 0 then drain 0;
          Semaphore.signal arrived;
          if c.hold then held := conn :: !held
          else begin
            if k = c.conns && writes > 0 then
              Sched.suspend (fun wake -> parked := wake :: !parked);
            conn.Sockets.close ()
          end;
          serve (k + 1)
        in
        serve 1);
    let cli = World.app ~cpu w ~host:0 (Printf.sprintf "cli%d" p) in
    Sched.spawn sched ~name:(Printf.sprintf "cli%d" p) (fun () ->
        let chunk = View.create c.size in
        View.fill chunk 'x';
        for _ = 1 to c.conns do
          let t0 = Sched.now sched in
          match cli.Sockets.connect ~src_port:0 ~dst:(World.host_ip w host) ~dst_port:port with
          | Error _ -> incr refused
          | Ok conn ->
              incr connects;
              connect_ns := !connect_ns + Time.diff (Sched.now sched) t0;
              if !first_conn = None then first_conn := Some (Sched.now sched);
              for _ = 1 to writes do
                match conn.Sockets.alloc_tx c.size with
                | Some owned ->
                    View.fill owned 'x';
                    conn.Sockets.send_owned owned
                | None -> conn.Sockets.send chunk
              done;
              if c.hold then held := conn :: !held else conn.Sockets.close ()
        done;
        Semaphore.signal clients_done)
  done;
  Option.iter
    (fun every ->
      Sched.spawn sched ~name:"stats.sampler" (fun () ->
          let rec go () =
            Sched.sleep sched every;
            if not !finished then begin
              snapshot ();
              go ()
            end
          in
          go ()))
    every;
  Sched.block_on sched (fun () ->
      for _ = 1 to c.pairs do
        Semaphore.wait clients_done
      done;
      for _ = 1 to !connects do
        Semaphore.wait arrived
      done;
      finished := true;
      snapshot ();
      List.iter (fun wake -> wake ()) !parked;
      List.iter (fun conn -> conn.Sockets.close ()) !held)
