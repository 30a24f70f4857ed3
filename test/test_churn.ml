(* Connection-churn fast path: TIME_WAIT wheel semantics and its
   differential against the engine's own 2MSL, endpoint lease port
   accounting, the pipelined IPC primitive, and a differential check
   that the pooled/leased setup path is wire-identical to the
   sequential oracle. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Rng = Uln_engine.Rng
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Ipc = Uln_host.Ipc
module Link = Uln_net.Link
module Frame = Uln_net.Frame
module Fault = Uln_net.Fault
module Stack = Uln_proto.Stack
module Tcp = Uln_proto.Tcp
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Sockets = Uln_core.Sockets
module Registry = Uln_core.Registry
module Protolib = Uln_core.Protolib
module Organization = Uln_core.Organization

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let wheel_params = { Tcp_params.fast with Tcp_params.time_wait_wheel = true }
let two_msl = Time.span_scale wheel_params.Tcp_params.msl 2

let make_world ?(tcp_params = wheel_params) () =
  World.create ~network:World.Ethernet ~org:Organization.User_library ~tcp_params
    ~num_hosts:2 ()

let registry_tcp r = (Registry.stack r).Stack.tcp

(* Server side for the wheel tests: accept [conns] connections, drain
   each to EOF (or error) and close. *)
let spawn_server w ~port ~conns =
  let app = World.app w ~host:1 "srv" in
  Sched.spawn (World.sched w) ~name:"srv" (fun () ->
      let l = app.Sockets.listen ~port in
      for _ = 1 to conns do
        let c = l.Sockets.accept () in
        let rec drain () =
          match c.Sockets.recv ~max:4096 with Some _ -> drain () | None -> ()
        in
        (* A reset from the peer (the abnormal-exit sweep) is a normal
           outcome here, not a server failure. *)
        (try
           drain ();
           c.Sockets.close ()
         with Tcp.Connection_error _ -> ())
      done)

(* Abnormal exit with the wheel on: the registry retires the inherited
   connection with the batched RST sweep — exactly one RST on the wire,
   and nothing parks on the wheel. *)
let test_abnormal_exit_one_rst () =
  let w = make_world () in
  let sched = World.sched w in
  let r0 = Option.get (World.registry w 0) in
  spawn_server w ~port:7000 ~conns:1;
  let app = World.app w ~host:0 "cli" in
  let rst_delta = ref (-1) in
  Sched.block_on sched (fun () ->
      match app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:7000 with
      | Error e -> failwith e
      | Ok _conn ->
          let before = Tcp.rsts_out (registry_tcp r0) in
          app.Sockets.exit_app ~graceful:false;
          (* Long enough for any (erroneous) retransmission to show. *)
          Sched.sleep sched (Time.ms 500);
          rst_delta := Tcp.rsts_out (registry_tcp r0) - before);
  check "exactly one RST" 1 !rst_delta;
  check "nothing parked on the wheel" 0 (Registry.time_wait_stats r0).Registry.tw_parked_total

(* Graceful exit: the inherited connection closes cleanly and its 2MSL
   residue parks on the wheel, holding the port for the full quiet
   period — still parked halfway through, gone after expiry. *)
let test_graceful_exit_holds_time_wait () =
  let w = make_world () in
  let sched = World.sched w in
  let r0 = Option.get (World.registry w 0) in
  spawn_server w ~port:7001 ~conns:1;
  let app = World.app w ~host:0 "cli" in
  let at_half = ref (-1) and after = ref (-1) and parked = ref (-1) in
  Sched.block_on sched (fun () ->
      match app.Sockets.connect ~src_port:51234 ~dst:(World.host_ip w 1) ~dst_port:7001 with
      | Error e -> failwith e
      | Ok _conn ->
          app.Sockets.exit_app ~graceful:true;
          (* Let the FIN exchange finish and the residue park. *)
          Sched.sleep sched (Time.ms 200);
          parked := (Registry.time_wait_stats r0).Registry.tw_parked_total;
          Sched.sleep sched (Time.span_scale two_msl 1 / 2);
          at_half := (Registry.time_wait_stats r0).Registry.tw_pending;
          Sched.sleep sched (Time.span_add two_msl (Time.ms 200));
          after := (Registry.time_wait_stats r0).Registry.tw_pending);
  check "residue parked" 1 !parked;
  check "still in TIME_WAIT at MSL" 1 !at_half;
  check "expired after 2MSL" 0 !after

(* The parked residue holds its port: reconnecting from the same source
   port fails while the wheel entry lives and succeeds after expiry. *)
let test_port_reuse_after_expiry () =
  let w = make_world () in
  let sched = World.sched w in
  spawn_server w ~port:7002 ~conns:2;
  let app = World.app w ~host:0 "cli" in
  let app2 = World.app w ~host:0 "cli2" in
  let held = ref false and reused = ref false in
  Sched.block_on sched (fun () ->
      (match app.Sockets.connect ~src_port:51235 ~dst:(World.host_ip w 1) ~dst_port:7002 with
      | Error e -> failwith e
      | Ok _conn -> app.Sockets.exit_app ~graceful:true);
      Sched.sleep sched (Time.ms 200);
      (match app2.Sockets.connect ~src_port:51235 ~dst:(World.host_ip w 1) ~dst_port:7002 with
      | Error _ -> held := true
      | Ok _ -> ());
      Sched.sleep sched (Time.span_add two_msl (Time.ms 500));
      match app2.Sockets.connect ~src_port:51235 ~dst:(World.host_ip w 1) ~dst_port:7002 with
      | Error _ -> ()
      | Ok c ->
          reused := true;
          c.Sockets.close ());
  check_bool "port held while parked" true !held;
  check_bool "port reusable after expiry" true !reused

let pattern n =
  String.init n (fun i -> Char.chr (((i * 31) + (i / 251)) land 0x7f))

(* --- differential: TIME_WAIT wheel vs the engine's own 2MSL ----------- *)

(* A graceful exit on a clean link, the wheel on or off: the client
   sends [n] bytes from a fixed source port and exits with part of them
   still unacknowledged, and the registry inherits the connection.
   Returns what the server read, whether a reconnect from that port was
   refused 100 ms short of 2MSL, whether one was accepted after 2MSL,
   and how many residues the wheel parked. *)
let wheel_exit ~wheel n =
  let w =
    make_world ~tcp_params:{ Tcp_params.fast with Tcp_params.time_wait_wheel = wheel } ()
  in
  let sched = World.sched w in
  let r0 = Option.get (World.registry w 0) in
  let received = Buffer.create n in
  let srv = World.app w ~host:1 "srv" in
  Sched.spawn sched ~name:"srv" (fun () ->
      let l = srv.Sockets.listen ~port:7003 in
      for k = 1 to 2 do
        let c = l.Sockets.accept () in
        let rec drain () =
          match c.Sockets.recv ~max:4096 with
          | Some v ->
              if k = 1 then Buffer.add_string received (View.to_string v);
              drain ()
          | None -> ()
        in
        drain ();
        c.Sockets.close ()
      done);
  let app = World.app w ~host:0 "cli" in
  let lib2 = Option.get (World.library w ~host:0 "cli2") in
  let connect2 () =
    Protolib.connect_q lib2 ~src_port:51236 ~dst:(World.host_ip w 1) ~dst_port:7003
  in
  let refused = ref false and accepted = ref false in
  Sched.block_on sched (fun () ->
      (match app.Sockets.connect ~src_port:51236 ~dst:(World.host_ip w 1) ~dst_port:7003 with
      | Error e -> failwith e
      | Ok c ->
          c.Sockets.send (View.of_string (pattern n));
          app.Sockets.exit_app ~graceful:true);
      Sched.sleep sched (two_msl - Time.ms 100);
      (match connect2 () with
      | Error e -> refused := e = Registry.Port_in_use 51236
      | Ok _ -> ());
      Sched.sleep sched (Time.ms 600);
      match connect2 () with
      | Error _ -> ()
      | Ok c ->
          accepted := true;
          c.Sockets.close ());
  ( Buffer.contents received,
    !refused,
    !accepted,
    (Registry.time_wait_stats r0).Registry.tw_parked_total )

let test_wheel_differential () =
  let n = 30_000 in
  let got_on, refused_on, accepted_on, parked_on = wheel_exit ~wheel:true n in
  let got_off, refused_off, accepted_off, parked_off = wheel_exit ~wheel:false n in
  Alcotest.(check string) "wheel on delivers the payload" (pattern n) got_on;
  Alcotest.(check string) "wheel off delivers the payload" (pattern n) got_off;
  check_bool "wheel on: port refused before 2MSL" true refused_on;
  check_bool "wheel off: port refused before 2MSL" true refused_off;
  check_bool "wheel on: port accepted after 2MSL" true accepted_on;
  check_bool "wheel off: port accepted after 2MSL" true accepted_off;
  check_bool "the wheel engaged" true (parked_on > 0);
  check "the oracle parks nothing" 0 parked_off

(* A peer reset during a graceful exit's drain closes the connection,
   and the close retires its port and channel; the exit must not retire
   them a second time.  With the channel pool on, a second retire would
   park the one channel twice, so two later connections could share it. *)
let test_reset_during_graceful_exit () =
  let w = make_world ~tcp_params:{ Tcp_params.fast with Tcp_params.channel_pool = true } () in
  let sched = World.sched w in
  let r0 = Option.get (World.registry w 0) in
  let srv = World.app w ~host:1 "srv" in
  Sched.spawn sched ~name:"srv" (fun () ->
      let l = srv.Sockets.listen ~port:7004 in
      let c = l.Sockets.accept () in
      ignore (c.Sockets.recv ~max:4096);
      c.Sockets.abort ());
  let app = World.app w ~host:0 "cli" in
  let open_at_exit = ref false in
  Sched.block_on sched (fun () ->
      (match app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:7004 with
      | Error e -> failwith e
      | Ok c ->
          c.Sockets.send (View.of_string (pattern 8_000));
          open_at_exit := c.Sockets.conn_state () = Uln_proto.Tcp_state.Established;
          app.Sockets.exit_app ~graceful:true);
      Sched.sleep sched (Time.sec 1));
  check_bool "the reset lands during the drain" true !open_at_exit;
  let ps = Registry.pool_stats r0 in
  check "one channel built" 1 ps.Registry.ps_misses;
  check "and parked once" 1 ps.Registry.ps_parked;
  check "port freed" 0 (Registry.ports_in_use r0)

(* Endpoint leases carve the 49152..65535 range into fixed blocks; when
   they are all granted the registry returns the typed Out_of_ports
   error, and releasing a lease makes a grant possible again. *)
let test_lease_exhaustion_and_release () =
  let w = make_world ~tcp_params:Tcp_params.fast () in
  let sched = World.sched w in
  let r0 = Option.get (World.registry w 0) in
  let dom = Machine.new_user_domain (World.machine w 0) "leasehog" in
  let grants = ref [] in
  let exhausted = ref false and regranted = ref false in
  Sched.block_on sched (fun () ->
      let rec grab () =
        match Registry.call r0 Registry.Lease dom with
        | Ok g ->
            grants := g :: !grants;
            grab ()
        | Error e -> exhausted := e = Registry.Out_of_ports
      in
      grab ();
      Registry.call r0 Registry.Release_lease (List.hd !grants);
      match Registry.call r0 Registry.Lease dom with
      | Ok _ -> regranted := true
      | Error _ -> ());
  check_bool "typed exhaustion error" true !exhausted;
  check "whole ephemeral range granted" (16384 / Uln_core.Calibration.lease_block_ports)
    (List.length !grants);
  check_bool "grant succeeds after a release" true !regranted

(* Pipelined IPC: posts overlap the server's processing; replies land in
   promises and can be awaited in any order.  One-way ports never send a
   reply but still resolve the promise when the handler runs. *)
let test_ipc_post_await () =
  let sched = Sched.create () in
  let cpu = Cpu.create sched ~name:"srv_cpu" in
  let port = Ipc.create sched cpu Costs.r3000 ~name:"double" in
  Ipc.serve port (fun x -> (x * 2, 8));
  let oneway = Ipc.create sched cpu Costs.r3000 ~name:"tell" in
  let told = ref 0 in
  Ipc.serve_oneway oneway (fun x -> told := !told + x);
  let got = ref [] in
  Sched.block_on sched (fun () ->
      let ps = List.map (fun x -> Ipc.post port ~size:8 x) [ 1; 2; 3 ] in
      got := List.map (fun p -> Ipc.await port p) ps;
      ignore (Ipc.post oneway ~size:8 41);
      ignore (Ipc.post oneway ~size:8 1);
      Sched.sleep sched (Time.ms 5));
  Alcotest.(check (list int)) "pipelined replies in order" [ 2; 4; 6 ] !got;
  check "one-way messages all processed" 42 !told

(* --- differential: fast-path setup vs the sequential oracle ----------- *)

let fast_cfg = { Tcp_params.fast with Tcp_params.channel_pool = true; endpoint_lease = true }

(* One client->server bulk transfer through the full organization
   (registry, channels, library engines).  Returns what the server read,
   the number of TCP segments that crossed the wire (counted before
   fault injection, so retransmissions included), and how many connects
   used the lease.

   Faults are armed only once the connection is established and the
   setup plane has gone quiet.  The setup configurations legitimately
   shift *when* the first writes land relative to the handshake (a
   leased connect returns at a different instant than one through the
   registry), and the injector draws its RNG per delivered frame — so
   faulting from frame one would compare two different fault patterns,
   not two setup paths.  From a settled connection both configurations
   face an identical frame sequence, and the oracle comparison is
   exact. *)
let transfer ?fault ~params ~seed n =
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library ~tcp_params:params
      ~num_hosts:2 ()
  in
  let sched = World.sched w in
  let tcp_segs = ref 0 in
  Link.set_monitor (World.link w) (fun _ fr ->
      if fr.Frame.ethertype = Frame.ethertype_ip && Mbuf.length fr.Frame.payload >= 20 then begin
        let hdr = Mbuf.flatten (Mbuf.take fr.Frame.payload 20) in
        if View.get_uint8 hdr 9 = 6 then incr tcp_segs
      end);
  let received = Buffer.create n in
  let srv = World.app w ~host:1 "srv" in
  let srv_done = ref false in
  Sched.spawn sched ~name:"srv" (fun () ->
      let l = srv.Sockets.listen ~port:8080 in
      let c = l.Sockets.accept () in
      let rec drain () =
        match c.Sockets.recv ~max:4096 with
        | Some v ->
            Buffer.add_string received (View.to_string v);
            drain ()
        | None -> ()
      in
      drain ();
      c.Sockets.close ();
      srv_done := true);
  let lib = Option.get (World.library w ~host:0 "cli") in
  let cli = Protolib.app lib in
  let data = pattern n in
  Sched.block_on sched (fun () ->
      (match cli.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:8080 with
      | Error e -> failwith e
      | Ok c ->
          Sched.sleep sched (Time.ms 50);
          (match fault with Some f -> Link.set_fault (World.link w) f | None -> ());
          let rng = Rng.create ~seed in
          let pos = ref 0 in
          while !pos < n do
            let len = Stdlib.min (n - !pos) (1 + Rng.int rng 2000) in
            c.Sockets.send (View.of_string (String.sub data !pos len));
            pos := !pos + len
          done;
          c.Sockets.close ();
          c.Sockets.await_closed ());
      (* Let the server's close tail and any duplicate deliveries die. *)
      Sched.sleep sched (Time.ms 500));
  check_bool "server finished" true !srv_done;
  ( Buffer.contents received,
    !tcp_segs,
    (Protolib.leasestats lib).Protolib.lst_leased_connects )

let test_fastpath_clean_link () =
  let n = 30_000 in
  let got_f, segs_f, leased = transfer ~params:fast_cfg ~seed:7 n in
  let got_s, segs_s, oracle_leased = transfer ~params:Tcp_params.fast ~seed:7 n in
  Alcotest.(check string) "fast path delivers the payload" (pattern n) got_f;
  Alcotest.(check string) "oracle delivers the payload" (pattern n) got_s;
  check "identical segment counts" segs_s segs_f;
  check_bool "lease actually exercised" true (leased > 0);
  check "oracle never leases" 0 oracle_leased

let faulted_equivalent seed =
  let mk () = Fault.create ~rng:(Rng.create ~seed) ~drop:0.02 ~duplicate:0.02 ~reorder:0.08 () in
  let n = 20_000 in
  let got_f, segs_f, leased = transfer ~fault:(mk ()) ~params:fast_cfg ~seed n in
  let got_s, segs_s, _ = transfer ~fault:(mk ()) ~params:Tcp_params.fast ~seed n in
  String.equal got_f (pattern n) && String.equal got_s (pattern n) && segs_f = segs_s && leased > 0

let prop_fastpath_equivalent_under_faults =
  (* Loss, duplication and reordering hit the data and close phases of a
     connection the fast path set up; whatever retransmission pattern
     results, the setup must be invisible on the wire afterwards:
     byte-identical delivery and equal segment counts against the
     sequential oracle.  (Setup itself is compared on the clean link
     above, where the whole trace is deterministic.) *)
  QCheck.Test.make ~name:"pool+lease setup = sequential oracle under faults"
    ~count:5
    QCheck.(1 -- 1_000_000)
    faulted_equivalent

(* Cases the property drew (QCHECK_SEED 2, 3, 5, 6, 9, 13) while a
   cancelled SYN timer still set the tick phase of the connection's
   later timers: the leased run then timed out at other instants than
   the oracle and sent 1-2 segments more or fewer. *)
let test_fastpath_fault_cases () =
  List.iter
    (fun seed -> check_bool (Printf.sprintf "case %d" seed) true (faulted_equivalent seed))
    [ 132050; 311692; 881287; 350337; 315500; 60787 ]

(* The lease ladder with the registry sharded: TIME_WAIT wheel expiry
   fires in timer context, and its hand-off to the owning shard is an
   IPC that charges CPU time, so it must be posted from a thread. *)
let test_lease_wheel_sharded () =
  let prm =
    { (List.assoc "+lease" Uln_workload.Churn.configs) with Tcp_params.shard_registry = true }
  in
  let r =
    Uln_workload.Churn.run ~pairs:2 ~conns_per_pair:64 ~tcp_params:prm ~config:"+lease+shard"
      ~network:World.Ethernet ~org:Organization.User_library ()
  in
  check "every connect returned Ok" 128 r.Uln_workload.Churn.r_conns;
  check_bool "residues parked on the wheel" true (r.Uln_workload.Churn.r_tw_parked > 0)

(* Worlds share no process-global state, so two of them run on parallel
   domains exactly as they run one after the other: the +lease churn
   cell (2 pairs x 64 connections) on two domains at once, each row
   against the sequential one. *)
let test_worlds_on_parallel_domains () =
  let module B = Uln_workload.Bench_spec in
  let spec = List.find (fun s -> s.B.name = "smoke churn +lease") B.smoke.B.specs in
  let row () = spec.B.run spec.B.preset in
  let sequential = row () in
  let a = Domain.spawn row and b = Domain.spawn row in
  let ra = Domain.join a and rb = Domain.join b in
  check_bool "the cell is 2 pairs x 64 connections" true
    (List.assoc_opt "conns" (List.hd sequential) = Some "128");
  check_bool "first domain's row = sequential row" true (ra = sequential);
  check_bool "second domain's row = sequential row" true (rb = sequential)

let () =
  Alcotest.run "churn"
    [ ( "time-wait-wheel",
        [ Alcotest.test_case "abnormal exit: one RST" `Quick test_abnormal_exit_one_rst;
          Alcotest.test_case "graceful exit holds TIME_WAIT" `Quick
            test_graceful_exit_holds_time_wait;
          Alcotest.test_case "port reuse after expiry" `Quick test_port_reuse_after_expiry;
          Alcotest.test_case "wheel = engine 2MSL on a graceful exit" `Quick
            test_wheel_differential;
          Alcotest.test_case "peer reset during graceful exit retires once" `Quick
            test_reset_during_graceful_exit;
          Alcotest.test_case "lease ladder with sharded registry" `Quick
            test_lease_wheel_sharded;
          Alcotest.test_case "worlds on parallel domains" `Quick
            test_worlds_on_parallel_domains ] );
      ( "leases",
        [ Alcotest.test_case "exhaustion is typed and recoverable" `Quick
            test_lease_exhaustion_and_release ] );
      ( "ipc",
        [ Alcotest.test_case "post/await pipeline" `Quick test_ipc_post_await ] );
      ( "differential",
        [ Alcotest.test_case "clean link" `Quick test_fastpath_clean_link;
          QCheck_alcotest.to_alcotest prop_fastpath_equivalent_under_faults;
          Alcotest.test_case "fault cases that failed on timer phase" `Quick
            test_fastpath_fault_cases ] ) ]
