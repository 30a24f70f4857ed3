(* SMP host model: multiprocessor machines, receive flow steering,
   lock-contention accounting, and the uniprocessor determinism
   regression (a [~cpus:1] world must behave byte-identically to the
   default one, which is what the committed BENCH files were measured
   on). *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Rng = Uln_engine.Rng
module Semaphore = Uln_engine.Semaphore
module Mutex = Uln_engine.Mutex
module View = Uln_buf.View
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Link = Uln_net.Link
module Fault = Uln_net.Fault
module F = Uln_filter
module Ip = Uln_addr.Ip
module World = Uln_core.World
module Sockets = Uln_core.Sockets
module Organization = Uln_core.Organization
module Protolib = Uln_core.Protolib
module Smp = Uln_workload.Smp

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let pattern n = String.init n (fun i -> Char.chr (((i * 7) + (i / 251)) land 0x7f))

(* --- multiprocessor machines ------------------------------------------- *)

let test_machine_cpus () =
  let sched = Sched.create () in
  let m =
    Machine.create ~cpus:4 sched ~name:"m" ~costs:Costs.zero ~rng:(Rng.create ~seed:1)
  in
  check "four processors" 4 (Machine.num_cpus m);
  check_bool "index 0 is the boot CPU" true (Machine.cpu_at m 0 == m.Machine.cpu);
  check_bool "indices wrap" true (Machine.cpu_at m 5 == Machine.cpu_at m 1);
  check_bool "negative indices wrap" true (Machine.cpu_at m (-1) == Machine.cpu_at m 3);
  check "ids match indices" 2 (Cpu.id (Machine.cpu_at m 2));
  let u =
    Machine.create sched ~name:"u" ~costs:Costs.zero ~rng:(Rng.create ~seed:1)
  in
  check "default machine is a uniprocessor" 1 (Machine.num_cpus u);
  check_bool "every index is the boot CPU" true (Machine.cpu_at u 7 == u.Machine.cpu)

let test_parallel_timelines () =
  (* Work on distinct CPUs overlaps in time; on one CPU it serializes. *)
  let sched = Sched.create () in
  let m =
    Machine.create ~cpus:2 sched ~name:"m" ~costs:Costs.zero ~rng:(Rng.create ~seed:1)
  in
  Sched.spawn sched ~name:"t0" (fun () -> Cpu.use (Machine.cpu_at m 0) (Time.ms 10));
  Sched.spawn sched ~name:"t1" (fun () -> Cpu.use (Machine.cpu_at m 1) (Time.ms 10));
  Sched.run sched;
  check "two CPUs run concurrently" (Time.ms 10) (Time.to_ns (Sched.now sched));
  let sched = Sched.create () in
  let m =
    Machine.create ~cpus:2 sched ~name:"m" ~costs:Costs.zero ~rng:(Rng.create ~seed:1)
  in
  Sched.spawn sched ~name:"t0" (fun () -> Cpu.use (Machine.cpu_at m 0) (Time.ms 10));
  Sched.spawn sched ~name:"t1" (fun () -> Cpu.use (Machine.cpu_at m 0) (Time.ms 10));
  Sched.run sched;
  check "one CPU serializes" (Time.ms 20) (Time.to_ns (Sched.now sched))

let test_migration_accounting () =
  let sched = Sched.create () in
  let m =
    Machine.create ~cpus:2 sched ~name:"m" ~costs:Costs.zero ~rng:(Rng.create ~seed:1)
  in
  let c = Machine.cpu_at m 1 in
  Cpu.note_migration c (Time.ns 500);
  Cpu.note_migration c (Time.ns 700);
  check "migrations counted" 2 (Cpu.migrations c);
  check "penalty attributed" 1200 (Cpu.migrate_ns c);
  check "other CPU untouched" 0 (Cpu.migrations (Machine.cpu_at m 0))

(* --- lock contention accounting ---------------------------------------- *)

let test_semaphore_contention_stats () =
  let sched = Sched.create () in
  let s = Semaphore.create ~name:"test.sem" ~sched () in
  Sched.spawn sched ~name:"waiter" (fun () ->
      Semaphore.wait s;
      Semaphore.wait s);
  Sched.spawn sched ~name:"signaller" (fun () ->
      Sched.sleep sched (Time.ms 1);
      Semaphore.signal s;
      Semaphore.signal s);
  Sched.run sched;
  let st = Semaphore.stats s in
  check "two acquisitions" 2 st.Semaphore.s_acquisitions;
  check "first wait contended, second satisfied" 1 st.Semaphore.s_contended;
  check "blocked time measured" (Time.ms 1) st.Semaphore.s_total_wait_ns;
  check "max wait" (Time.ms 1) st.Semaphore.s_max_wait_ns

let test_try_wait_counts_successes_only () =
  let s = Semaphore.create ~initial:1 () in
  check_bool "first try succeeds" true (Semaphore.try_wait s);
  check_bool "second try fails" false (Semaphore.try_wait s);
  let st = Semaphore.stats s in
  check "only the success is an acquisition" 1 st.Semaphore.s_acquisitions;
  check "try_wait never contends" 0 st.Semaphore.s_contended

let test_mutex_stats_and_registry () =
  let sched = Sched.create () in
  let m = Mutex.create ~name:"test.lock" ~sched () in
  Sched.spawn sched ~name:"a" (fun () ->
      Mutex.with_lock m (fun () -> Sched.sleep sched (Time.ms 2)));
  Sched.spawn sched ~name:"b" (fun () ->
      Mutex.with_lock m (fun () -> Sched.sleep sched (Time.ms 2)));
  Sched.run sched;
  let st = Mutex.stats m in
  check_str "kind" "mutex" st.Semaphore.s_kind;
  check "both lockers acquired" 2 st.Semaphore.s_acquisitions;
  check "second locker contended" 1 st.Semaphore.s_contended;
  check "waited out the critical section" (Time.ms 2)
    st.Semaphore.s_total_wait_ns;
  (* The named lock is in the per-scheduler registry. *)
  let regs = Semaphore.registered ~sched in
  check_bool "registered under its name" true
    (List.exists (fun (r : Semaphore.stats) -> r.Semaphore.s_name = "test.lock") regs);
  Semaphore.reset_registered ~sched ();
  check "registry cleared for this sched" 0
    (List.length (Semaphore.registered ~sched))

(* Named locks register on their scheduler: once a world is dropped,
   nothing keeps its scheduler reachable, while a live scheduler's
   locks stay listed. *)
let test_registry_releases_dropped_worlds () =
  let probe = Weak.create 1 in
  let live = Sched.create () in
  let _keep = Semaphore.create ~name:"test.keep" ~sched:live () in
  let[@inline never] run_and_drop () =
    let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
    let sched = World.sched w in
    let app = World.app w ~host:1 "srv" in
    Sched.spawn sched ~name:"srv" (fun () ->
        let l = app.Sockets.listen ~port:80 in
        (l.Sockets.accept ()).Sockets.close ());
    let cli = World.app w ~host:0 "cli" in
    Sched.block_on sched (fun () ->
        match cli.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
        | Error e -> failwith e
        | Ok c -> c.Sockets.close ());
    check_bool "the world registered named locks" true (Semaphore.registered ~sched <> []);
    Weak.set probe 0 (Some sched)
  in
  run_and_drop ();
  Gc.full_major ();
  check_bool "dropped world's scheduler collected" false (Weak.check probe 0);
  let named regs = List.map (fun (r : Semaphore.stats) -> r.Semaphore.s_name) regs in
  check_bool "live scheduler's lock still listed" true
    (List.mem "test.keep" (named (Semaphore.registered ~sched:live)))

(* --- lock-order sanitizer ----------------------------------------------- *)

let test_abba_reported_not_deadlocked () =
  (* The seeded ABBA scenario: thread [fwd] nests kernel-lock -> stack
     lock (the declared, downhill order); thread [rev] nests them the
     other way.  Without the sanitizer the interleaving below is a
     deadlock — each thread blocks holding the lock the other wants.
     With it, the inverted acquire raises {e before} blocking, naming
     both locks and both acquisition sites. *)
  let module LO = Uln_engine.Lock_order in
  let sched = Sched.create () in
  let bkl = Mutex.create ~name:"m.bkl" ~sched () in
  let stk = Mutex.create ~name:"m.stack0.lock" ~sched () in
  let caught = ref None in
  Sched.spawn sched ~name:"fwd" (fun () ->
      Mutex.with_lock ~site:"fwd:outer" bkl (fun () ->
          Sched.sleep sched (Time.ms 2);
          Mutex.with_lock ~site:"fwd:inner" stk (fun () -> ())));
  Sched.spawn sched ~name:"rev" (fun () ->
      Mutex.with_lock ~site:"rev:outer" stk (fun () ->
          Sched.sleep sched (Time.ms 1);
          try Mutex.with_lock ~site:"rev:inner" bkl (fun () -> ())
          with LO.Order_violation v -> caught := Some v));
  Sched.run sched;
  match !caught with
  | None -> Alcotest.fail "inverted acquisition was not reported"
  | Some v ->
      check_str "offending thread" "rev" v.LO.v_thread;
      check_str "lock being acquired" "m.bkl" v.LO.v_lock;
      check_str "acquisition site" "rev:inner" v.LO.v_site;
      check_str "lock already held" "m.stack0.lock" v.LO.v_held;
      check_str "held-lock site" "rev:outer" v.LO.v_held_site;
      check_bool "held rank above acquired rank" true (v.LO.v_held_rank > v.LO.v_rank)

let test_forward_order_clean () =
  (* The same nesting in the declared order never trips the sanitizer,
     across both threads and with reacquisition (a violation would
     escape its thread and fail [Sched.run]). *)
  let sched = Sched.create () in
  let bkl = Mutex.create ~name:"m.bkl" ~sched () in
  let stk = Mutex.create ~name:"m.stack1.lock" ~sched () in
  let done_ = ref 0 in
  for _ = 1 to 2 do
    Sched.spawn sched ~name:"worker" (fun () ->
        Mutex.with_lock ~site:"w:outer" bkl (fun () ->
            Sched.sleep sched (Time.ms 1);
            Mutex.with_lock ~site:"w:inner" stk (fun () -> incr done_)))
  done;
  Sched.run sched;
  check "both workers nested cleanly" 2 !done_

let test_same_label_threads_own_stacks () =
  (* Held locks belong to a thread, not to its label: every host's
     registry thread is called [registry.rx].  [a] holds a stack lock
     while [b], holding nothing, takes the big lock; sharing one stack
     would report [b] as inverting the order. *)
  let sched = Sched.create () in
  let bkl = Mutex.create ~name:"m.bkl" ~sched () in
  let stk = Mutex.create ~name:"m.stack0.lock" ~sched () in
  let took = ref false in
  Sched.spawn sched ~name:"registry.rx" (fun () ->
      Mutex.with_lock ~site:"a" stk (fun () -> Sched.sleep sched (Time.ms 2)));
  Sched.spawn sched ~name:"registry.rx" (fun () ->
      Sched.sleep sched (Time.ms 1);
      Mutex.with_lock ~site:"b" bkl (fun () -> took := true));
  Sched.run sched;
  check_bool "second thread took the big lock" true !took

(* --- demux receive steering -------------------------------------------- *)

let tcp_pkt ~src_port ~dst_port =
  let v = View.create 54 in
  View.set_uint16 v 12 0x0800;
  View.set_uint8 v 14 0x45;
  View.set_uint8 v 23 6;
  View.set_uint32 v 26 (Ip.to_int32 (Ip.of_string "10.0.0.1"));
  View.set_uint32 v 30 (Ip.to_int32 (Ip.of_string "10.0.0.2"));
  View.set_uint16 v 34 src_port;
  View.set_uint16 v 36 dst_port;
  v

let test_demux_affinity_recorded () =
  let d = F.Demux.create ~mode:F.Demux.Interpreted () in
  let prog = F.Program.tcp_dst_port ~dst_ip:(Ip.of_string "10.0.0.2") ~dst_port:80 in
  let key = F.Demux.install_exn ~affinity:2 d prog "ep" in
  Alcotest.(check (option int)) "affinity recorded" (Some 2) (F.Demux.affinity d key);
  (match F.Demux.dispatch_steered d (tcp_pkt ~src_port:999 ~dst_port:80) with
  | Some (ep, aff), _ ->
      check_str "endpoint" "ep" ep;
      check "steered to CPU 2" 2 aff
  | None, _ -> Alcotest.fail "packet not matched");
  (* Default affinity is the boot CPU. *)
  let k2 =
    F.Demux.install_exn d
      (F.Program.tcp_dst_port ~dst_ip:(Ip.of_string "10.0.0.2") ~dst_port:81)
      "ep2"
  in
  Alcotest.(check (option int)) "default affinity 0" (Some 0) (F.Demux.affinity d k2)

let test_demux_set_affinity_never_stale () =
  (* The stale-CPU hazard lives in the flow cache: prime it, re-pin the
     entry, and every subsequent steered dispatch must report the new
     CPU. *)
  let d = F.Demux.create ~mode:F.Demux.Interpreted ~flow_cache:true () in
  let prog =
    F.Program.tcp_conn ~src_ip:(Ip.of_string "10.0.0.1")
      ~dst_ip:(Ip.of_string "10.0.0.2") ~src_port:1234 ~dst_port:80
  in
  let key = F.Demux.install_exn ~affinity:1 d prog "conn" in
  let pkt = tcp_pkt ~src_port:1234 ~dst_port:80 in
  for _ = 1 to 3 do
    ignore (F.Demux.dispatch_steered d pkt)
  done;
  check_bool "flow cached" true ((F.Demux.cache_stats d).F.Demux.hits > 0);
  F.Demux.set_affinity d key 3;
  (match F.Demux.dispatch_steered d pkt with
  | Some (_, aff), _ -> check "no stale CPU from the cache" 3 aff
  | None, _ -> Alcotest.fail "packet not matched");
  Alcotest.(check (option int)) "accessor agrees" (Some 3) (F.Demux.affinity d key)

let prop_demux_affinity_tracks_set_affinity =
  (* Random interleavings of dispatches and re-pins, cache on: the
     steered CPU must always be the most recently set one. *)
  QCheck.Test.make ~name:"dispatch_steered never reports a stale affinity" ~count:50
    QCheck.(pair (1 -- 1_000_000) (list_of_size Gen.(1 -- 30) (0 -- 7)))
    (fun (seed, pins) ->
      let rng = Rng.create ~seed in
      let d = F.Demux.create ~mode:F.Demux.Interpreted ~flow_cache:true () in
      let prog =
        F.Program.tcp_conn ~src_ip:(Ip.of_string "10.0.0.1")
          ~dst_ip:(Ip.of_string "10.0.0.2") ~src_port:1234 ~dst_port:80
      in
      let key = F.Demux.install_exn d prog "conn" in
      let pkt = tcp_pkt ~src_port:1234 ~dst_port:80 in
      let current = ref 0 in
      List.for_all
        (fun pin ->
          (* A few dispatches (some of which prime or hit the cache),
             then a re-pin, then a dispatch that must see the new CPU. *)
          let ok = ref true in
          for _ = 0 to Rng.int rng 3 do
            match F.Demux.dispatch_steered d pkt with
            | Some (_, aff), _ -> if aff <> !current then ok := false
            | None, _ -> ok := false
          done;
          F.Demux.set_affinity d key pin;
          current := pin;
          (match F.Demux.dispatch_steered d pkt with
          | Some (_, aff), _ -> if aff <> !current then ok := false
          | None, _ -> ok := false);
          !ok)
        pins)

(* --- world-level transfers --------------------------------------------- *)

(* One pinned bulk transfer through a [World]; returns the received
   bytes and the final simulated clock (a strong determinism probe: any
   divergence in event order shifts packet timing). *)
let world_transfer ?cpus ?(cpu = 0) ?(org = Organization.User_library) ?fault
    ?(seed = 1) ?(write_size = 1024) n =
  let w = World.create ?cpus ~seed ~network:World.Ethernet ~org () in
  (match fault with None -> () | Some f -> Link.set_fault (World.link w) f);
  let sched = World.sched w in
  let data = pattern n in
  let received = Buffer.create n in
  let sink = World.app ~cpu w ~host:1 "sink" in
  Sched.spawn sched ~name:"sink" (fun () ->
      let l = sink.Sockets.listen ~port:80 in
      let conn = l.Sockets.accept () in
      let rec drain () =
        match conn.Sockets.recv ~max:65536 with
        | None -> ()
        | Some v ->
            Buffer.add_string received (View.to_string v);
            drain ()
      in
      drain ();
      conn.Sockets.close ());
  let source = World.app ~cpu w ~host:0 "source" in
  Sched.block_on sched (fun () ->
      match source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith e
      | Ok conn ->
          let rec send off =
            if off < n then begin
              let len = min write_size (n - off) in
              conn.Sockets.send (View.of_string (String.sub data off len));
              send (off + len)
            end
          in
          send 0;
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  (data, Buffer.contents received, Time.to_ns (Sched.now sched))

(* A pingpong exchange through a [World]; same determinism probe. *)
let world_pingpong ?cpus ?(seed = 1) ~exchanges ~size () =
  let w = World.create ?cpus ~seed ~network:World.Ethernet ~org:Organization.User_library () in
  let sched = World.sched w in
  let server = World.app w ~host:1 "server" in
  Sched.spawn sched ~name:"server" (fun () ->
      let l = server.Sockets.listen ~port:80 in
      let conn = l.Sockets.accept () in
      let rec echo () =
        match conn.Sockets.recv ~max:(2 * size) with
        | None -> ()
        | Some v ->
            conn.Sockets.send v;
            echo ()
      in
      echo ();
      conn.Sockets.close ());
  let client = World.app w ~host:0 "client" in
  let transcript = Buffer.create (exchanges * size) in
  Sched.block_on sched (fun () ->
      match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith e
      | Ok conn ->
          for i = 1 to exchanges do
            conn.Sockets.send (View.of_string (String.make size (Char.chr (i land 0x7f))));
            let rec collect got =
              if got < size then
                match conn.Sockets.recv ~max:size with
                | None -> failwith "echo stream ended early"
                | Some v ->
                    Buffer.add_string transcript (View.to_string v);
                    collect (got + View.length v)
            in
            collect 0
          done;
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  (Buffer.contents transcript, Time.to_ns (Sched.now sched))

let prop_uniproc_determinism =
  (* The SMP generalization must leave the single-CPU world untouched:
     over random scenarios, an explicit [~cpus:1] world reproduces the
     default world's bytes AND its final clock exactly.  200 scenarios
     split across bulk and pingpong shapes. *)
  QCheck.Test.make ~name:"~cpus:1 world is byte- and clock-identical to default" ~count:200
    QCheck.(triple (1 -- 1_000_000) (100 -- 20_000) (1 -- 4))
    (fun (seed, size, shape) ->
      if shape = 1 then begin
        (* pingpong: size doubles as the exchange payload *)
        let exchanges = 1 + (seed mod 5) in
        let psize = 1 + (size mod 1500) in
        let t_def = world_pingpong ~seed ~exchanges ~size:psize () in
        let t_one = world_pingpong ~cpus:1 ~seed ~exchanges ~size:psize () in
        t_def = t_one
      end
      else begin
        let write_size = [| 512; 1024; 4096 |].(shape mod 3) in
        let want, got_def, clock_def = world_transfer ~seed ~write_size size in
        let _, got_one, clock_one = world_transfer ~cpus:1 ~seed ~write_size size in
        String.equal got_def want && String.equal got_one want
        && clock_def = clock_one
      end)

let prop_smp_payload_identical_under_faults =
  (* Loss, duplication and reordering on the wire; the 4-CPU world pins
     the endpoints to CPU 2 so every inbound packet crosses the steering
     path.  Timing may differ from the uniprocessor world; the delivered
     bytes must not. *)
  QCheck.Test.make ~name:"4-CPU delivery = uniprocessor delivery under faults" ~count:10
    QCheck.(pair (1 -- 1_000_000) (5_000 -- 25_000))
    (fun (seed, n) ->
      let mk () =
        Fault.create ~rng:(Rng.create ~seed) ~drop:0.02 ~duplicate:0.02 ~reorder:0.08 ()
      in
      let want, got_uni, _ = world_transfer ~fault:(mk ()) ~seed n in
      let _, got_smp, _ = world_transfer ~cpus:4 ~cpu:2 ~fault:(mk ()) ~seed n in
      String.equal got_uni want && String.equal got_smp want)

let test_inkernel_smp_delivery_intact () =
  (* Both locking disciplines, multiple pinned pairs: every pair's bytes
     arrive complete (port steering delivers each flow to the right
     per-CPU stack). *)
  List.iter
    (fun locking ->
      let r =
        (* A multiple of the workload's 8192-byte write size, so sent =
           requested exactly. *)
        Smp.run ~bytes_per_pair:65_536 ~locking ~org:Organization.In_kernel ~cpus:4
          ~pairs:3 ()
      in
      check
        (Printf.sprintf "all bytes delivered (%s)" r.Smp.r_locking)
        (3 * 65_536) r.Smp.r_bytes)
    [ `Big_lock; `Per_conn ]

let test_single_server_stays_flat () =
  (* The structural claim behind the bench: the single-server
     organization gains nothing from more CPUs. *)
  let run cpus =
    (Smp.run ~bytes_per_pair:100_000 ~org:(Organization.Single_server `Mapped) ~cpus
       ~pairs:2 ())
      .Smp.r_mbps
  in
  let one = run 1 and four = run 4 in
  check_bool "no speedup from 4 CPUs" true (four /. one < 1.2)

let test_userlib_scales () =
  let run cpus =
    (Smp.run ~bytes_per_pair:100_000 ~org:Organization.User_library ~cpus ~pairs:4 ())
      .Smp.r_mbps
  in
  let one = run 1 and four = run 4 in
  check_bool "4 CPUs / 4 pairs at least doubles goodput" true (four /. one > 2.0)

let test_bkl_contention_visible () =
  let r =
    Smp.run ~bytes_per_pair:100_000 ~locking:`Big_lock ~org:Organization.In_kernel
      ~cpus:4 ~pairs:4 ()
  in
  check_bool "big kernel lock measurably contended" true (r.Smp.r_lock_contended > 0);
  check_bool "wait time accounted" true (r.Smp.r_lock_wait_ns > 0);
  let p =
    Smp.run ~bytes_per_pair:100_000 ~locking:`Per_conn ~org:Organization.In_kernel
      ~cpus:4 ~pairs:4 ()
  in
  check "per-stack locks do not contend" 0 p.Smp.r_lock_contended;
  check_bool "per-conn beats the big lock" true (p.Smp.r_mbps > r.Smp.r_mbps)

(* Tcp_params.smp_locking promises that a 1-CPU machine never takes a
   lock: an in-kernel host with one CPU runs one stack and no netisr
   lock, so both disciplines give the same run and register no mutex. *)
let test_uniproc_inkernel_lock_free () =
  let run locking =
    let w =
      World.create ~network:World.Ethernet ~org:Organization.In_kernel
        ~tcp_params:{ Uln_proto.Tcp_params.default with Uln_proto.Tcp_params.smp_locking = locking }
        ()
    in
    let sched = World.sched w in
    let server = World.app w ~host:1 "server" and client = World.app w ~host:0 "client" in
    let got = Buffer.create 40_000 in
    Sched.spawn sched ~name:"server" (fun () ->
        let conn = (server.Sockets.listen ~port:80).Sockets.accept () in
        let rec drain () =
          match conn.Sockets.recv ~max:65536 with
          | Some v ->
              Buffer.add_string got (View.to_string v);
              drain ()
          | None -> conn.Sockets.close ()
        in
        drain ());
    Sched.block_on sched (fun () ->
        match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
        | Error e -> failwith e
        | Ok conn ->
            conn.Sockets.send (View.of_string (pattern 40_000));
            conn.Sockets.close ();
            conn.Sockets.await_closed ());
    let mutexes =
      List.filter
        (fun (r : Semaphore.stats) -> r.Semaphore.s_kind = "mutex")
        (Semaphore.registered ~sched)
    in
    check "no mutex registered" 0 (List.length mutexes);
    (Sched.now sched, Buffer.contents got)
  in
  let big_clock, big_bytes = run `Big_lock and per_clock, per_bytes = run `Per_conn in
  check "same final clock" (Time.to_ns big_clock) (Time.to_ns per_clock);
  check_str "same bytes received" big_bytes per_bytes;
  check_str "bytes intact" (pattern 40_000) big_bytes

let test_affinity_change_mid_connection () =
  (* The inetd handoff re-pins a live connection's channel to the new
     library's CPU (Netio.set_channel_affinity + Demux.set_affinity
     mid-stream, flow cache on): the stream must survive with no bytes
     lost to a stale CPU's ring. *)
  let w =
    World.create ~cpus:4 ~network:World.Ethernet ~org:Organization.User_library
      ~tcp_params:{ Uln_proto.Tcp_params.default with Uln_proto.Tcp_params.flow_cache = true }
      ()
  in
  let sched = World.sched w in
  let inetd = Option.get (World.library ~cpu:1 w ~host:1 "inetd") in
  let worker = Option.get (World.library ~cpu:3 w ~host:1 "worker") in
  let client = World.app w ~host:0 "client" in
  let phase1 = pattern 8_000 and phase2 = pattern 12_000 in
  let got = Buffer.create 20_000 in
  Sched.spawn sched ~name:"inetd" (fun () ->
      let l = (Protolib.app inetd).Sockets.listen ~port:23 in
      let conn = l.Sockets.accept () in
      let rec read_upto want =
        if Buffer.length got < want then
          match conn.Sockets.recv ~max:(want - Buffer.length got) with
          | None -> ()
          | Some v ->
              Buffer.add_string got (View.to_string v);
              read_upto want
      in
      read_upto (String.length phase1);
      (* Quiesce, then hand the live connection to the worker on CPU 3. *)
      Sched.sleep sched (Time.ms 200);
      let conn' = Protolib.pass_connection inetd conn ~to_lib:worker in
      let rec drain () =
        match conn'.Sockets.recv ~max:65536 with
        | None -> ()
        | Some v ->
            Buffer.add_string got (View.to_string v);
            drain ()
      in
      drain ();
      conn'.Sockets.close ());
  Sched.block_on sched (fun () ->
      match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:23 with
      | Error e -> failwith e
      | Ok conn ->
          conn.Sockets.send (View.of_string phase1);
          (* Pause across the handoff window. *)
          Sched.sleep sched (Time.ms 500);
          conn.Sockets.send (View.of_string phase2);
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  check_str "stream intact across the re-pin" (phase1 ^ phase2) (Buffer.contents got)

let () =
  Alcotest.run "smp"
    [ ( "machine",
        [ Alcotest.test_case "cpu array" `Quick test_machine_cpus;
          Alcotest.test_case "parallel timelines" `Quick test_parallel_timelines;
          Alcotest.test_case "migration accounting" `Quick test_migration_accounting ] );
      ( "locks",
        [ Alcotest.test_case "semaphore stats" `Quick test_semaphore_contention_stats;
          Alcotest.test_case "try_wait" `Quick test_try_wait_counts_successes_only;
          Alcotest.test_case "mutex stats + registry" `Quick test_mutex_stats_and_registry;
          Alcotest.test_case "registry releases dropped worlds" `Quick
            test_registry_releases_dropped_worlds;
          Alcotest.test_case "ABBA reported, not deadlocked" `Quick
            test_abba_reported_not_deadlocked;
          Alcotest.test_case "same-label threads own their stacks" `Quick
            test_same_label_threads_own_stacks;
          Alcotest.test_case "declared order stays clean" `Quick
            test_forward_order_clean;
          Alcotest.test_case "1-CPU inkernel takes no lock" `Quick
            test_uniproc_inkernel_lock_free ] );
      ( "steering",
        [ Alcotest.test_case "affinity recorded" `Quick test_demux_affinity_recorded;
          Alcotest.test_case "re-pin flushes cache" `Quick test_demux_set_affinity_never_stale;
          QCheck_alcotest.to_alcotest prop_demux_affinity_tracks_set_affinity;
          Alcotest.test_case "mid-connection re-pin" `Quick
            test_affinity_change_mid_connection ] );
      ( "determinism",
        [ QCheck_alcotest.to_alcotest prop_uniproc_determinism;
          QCheck_alcotest.to_alcotest prop_smp_payload_identical_under_faults ] );
      ( "scaling",
        [ Alcotest.test_case "inkernel delivery intact" `Quick
            test_inkernel_smp_delivery_intact;
          Alcotest.test_case "single server flat" `Quick test_single_server_stays_flat;
          Alcotest.test_case "userlib scales" `Quick test_userlib_scales;
          Alcotest.test_case "bkl contention" `Quick test_bkl_contention_visible ] ) ]
