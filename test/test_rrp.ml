(* The request-response transport: transactional reliability,
   at-most-once execution, coexistence with TCP, and its behaviour under
   every protocol organization. *)

open Tutil
module Rrp = Uln_proto.Rrp
module Rng = Uln_engine.Rng
module World = Uln_core.World
module Organization = Uln_core.Organization
module Sockets = Uln_core.Sockets

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* --- engine level ------------------------------------------------------ *)

let test_basic_transaction () =
  let w = make_world () in
  let got =
    run_to_completion w (fun () ->
        let _srv =
          Rrp.serve w.b.stack.Stack.rrp ~port:300 (fun req ->
              View.of_string ("echo:" ^ View.to_string req))
        in
        match Rrp.call w.a.stack.Stack.rrp ~src_port:40001 ~dst:w.b.ip ~dst_port:300
                (View.of_string "ping")
        with
        | Ok r -> View.to_string r
        | Error e -> failwith e)
  in
  check_s "response" "echo:ping" got

let test_call_to_dead_port_times_out () =
  let w = make_world () in
  let r =
    run_to_completion w (fun () ->
        Rrp.call w.a.stack.Stack.rrp ~src_port:40001 ~dst:w.b.ip ~dst_port:301
          (View.of_string "anyone?"))
  in
  check_bool "timed out" true (Result.is_error r);
  check "failure counted" 1 (Rrp.calls_failed w.a.stack.Stack.rrp)

let test_at_most_once_under_loss () =
  (* 12% drop: requests and responses get lost, clients retransmit — but
     every transaction must execute exactly once. *)
  let rng = Rng.create ~seed:31 in
  let w = make_world ~fault:(Fault.create ~rng ~drop:0.12 ()) () in
  let executions = ref 0 in
  let calls = 30 in
  let ok = ref 0 in
  run_to_completion w (fun () ->
      let _srv =
        Rrp.serve w.b.stack.Stack.rrp ~port:300 (fun req ->
            incr executions;
            req)
      in
      for i = 1 to calls do
        match
          Rrp.call w.a.stack.Stack.rrp ~src_port:40001 ~dst:w.b.ip ~dst_port:300
            (View.of_string (Printf.sprintf "txn-%d" i))
        with
        | Ok _ -> incr ok
        | Error _ -> ()
      done);
  check_bool "most calls completed" true (!ok >= calls - 3);
  check "each executed exactly once" !ok !executions;
  check_bool "retransmissions happened" true
    (Rrp.client_retransmissions w.a.stack.Stack.rrp > 0);
  check_bool "duplicates answered from cache or lost" true
    (Rrp.duplicates_answered_from_cache w.b.stack.Stack.rrp >= 0)

let test_coexists_with_tcp () =
  (* The multiplicity claim: an RRP server and a TCP transfer run on the
     same stacks at the same time, undisturbed. *)
  let w = make_world () in
  let tcp_received = ref "" in
  let rrp_ok = ref 0 in
  Sched.spawn w.sched ~name:"tcp-server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port:80 in
      let conn, _ = Tcp.accept l in
      tcp_received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let _srv = Rrp.serve w.b.stack.Stack.rrp ~port:300 (fun req -> req) in
      let c =
        match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
        | Ok (c, _) -> c
        | Error e -> failwith e
      in
      Sched.spawn w.sched ~name:"bulk" (fun () ->
          Tcp.write c (View.of_string (pattern 60_000));
          Tcp.close c);
      for _ = 1 to 10 do
        match
          Rrp.call w.a.stack.Stack.rrp ~src_port:40001 ~dst:w.b.ip ~dst_port:300
            (View.of_string "rpc")
        with
        | Ok _ -> incr rrp_ok
        | Error _ -> ()
      done;
      Tcp.await_closed c);
  check "tcp stream complete" 60_000 (String.length !tcp_received);
  check "all rpcs answered" 10 !rrp_ok

(* --- across organizations ---------------------------------------------- *)

let orgs =
  [ ("inkernel", Organization.In_kernel);
    ("server", Organization.Single_server `Mapped);
    ("dedicated", Organization.Dedicated_servers);
    ("userlib", Organization.User_library) ]

let rrp_org_case (label, org) =
  Alcotest.test_case (label ^ " rrp roundtrip") `Quick (fun () ->
      let w = World.create ~network:World.Ethernet ~org () in
      let server = World.app w ~host:1 "rrp-server" in
      let client = World.app w ~host:0 "rrp-client" in
      let got =
        Sched.block_on (World.sched w) (fun () ->
            let _svc =
              server.Sockets.rrp_serve ~port:300 (fun req ->
                  View.of_string ("srv:" ^ View.to_string req))
            in
            let cl = Result.get_ok (client.Sockets.rrp_client ()) in
            let r =
              match cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300
                      (View.of_string "q")
              with
              | Ok v -> View.to_string v
              | Error e -> failwith e
            in
            cl.Sockets.rrp_client_close ();
            r)
      in
      check_s "transaction" "srv:q" got)

let test_userlib_rrp_bypasses_registry () =
  let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
  let server = World.app w ~host:1 "srv" in
  let client = World.app w ~host:0 "cli" in
  let answered = ref 0 in
  Sched.block_on (World.sched w) (fun () ->
      let _svc = server.Sockets.rrp_serve ~port:300 (fun req -> req) in
      let cl = Result.get_ok (client.Sockets.rrp_client ()) in
      for _ = 1 to 25 do
        match cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 (View.of_string "x") with
        | Ok _ -> incr answered
        | Error _ -> ()
      done;
      cl.Sockets.rrp_client_close ());
  check "all transactions completed" 25 !answered;
  (* The registries saw binding traffic only: their stacks never carry a
     single RRP message. *)
  let reg1 = Option.get (World.registry w 1) in
  let reg_stack = Uln_core.Registry.stack reg1 in
  check "registry carried no transactions" 0
    (Uln_proto.Rrp.requests_served reg_stack.Uln_proto.Stack.rrp)

let test_rrp_latency_beats_tcp_per_call () =
  (* The paper's motivation: for a single exchange, the specialized
     request-response protocol has far lower latency than setting up a
     TCP connection. *)
  let measure_rrp () =
    let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
    let server = World.app w ~host:1 "s" in
    let client = World.app w ~host:0 "c" in
    Sched.block_on (World.sched w) (fun () ->
        let _svc = server.Sockets.rrp_serve ~port:300 (fun req -> req) in
        let cl = Result.get_ok (client.Sockets.rrp_client ()) in
        (* warm-up (ARP etc.) *)
        ignore (cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 (View.of_string "w"));
        let t0 = Sched.now (World.sched w) in
        ignore (cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 (View.of_string "x"));
        Time.diff (Sched.now (World.sched w)) t0)
  in
  let measure_tcp_per_call () =
    let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
    let server = World.app w ~host:1 "s" in
    let client = World.app w ~host:0 "c" in
    Sched.block_on (World.sched w) (fun () ->
        Sched.spawn (World.sched w) ~name:"srv" (fun () ->
            let l = server.Sockets.listen ~port:80 in
            let conn = l.Sockets.accept () in
            (match conn.Sockets.recv ~max:64 with
            | Some v -> conn.Sockets.send v
            | None -> ());
            conn.Sockets.close ());
        let t0 = Sched.now (World.sched w) in
        (match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
        | Error e -> failwith e
        | Ok conn ->
            conn.Sockets.send (View.of_string "x");
            ignore (conn.Sockets.recv ~max:64);
            conn.Sockets.close ());
        Time.diff (Sched.now (World.sched w)) t0)
  in
  let rrp = measure_rrp () in
  let tcp = measure_tcp_per_call () in
  check_bool "rrp single exchange much cheaper than tcp connect+exchange" true
    (Time.to_ms_f rrp *. 2. < Time.to_ms_f tcp)

let () =
  Alcotest.run ~and_exit:false "rrp"
    [ ( "engine",
        [ Alcotest.test_case "basic transaction" `Quick test_basic_transaction;
          Alcotest.test_case "dead port times out" `Quick test_call_to_dead_port_times_out;
          Alcotest.test_case "at-most-once under loss" `Quick test_at_most_once_under_loss;
          Alcotest.test_case "coexists with tcp" `Quick test_coexists_with_tcp ] );
      ("organizations", List.map rrp_org_case orgs);
      ( "userlib",
        [ Alcotest.test_case "bypasses registry" `Quick test_userlib_rrp_bypasses_registry;
          Alcotest.test_case "latency beats tcp-per-call" `Quick
            test_rrp_latency_beats_tcp_per_call ] ) ]

(* --- transaction properties (appended suite) ------------------------------ *)

let prop_rrp_exactly_once_any_payload =
  QCheck.Test.make ~name:"every rrp call executes exactly once (any payload)" ~count:40
    QCheck.(string_of_size Gen.(0 -- 1200))
    (fun payload ->
      let w = make_world () in
      let executed = ref 0 in
      let echoed =
        run_to_completion w (fun () ->
            let _srv =
              Rrp.serve w.a.stack.Stack.rrp ~port:300 (fun req ->
                  incr executed;
                  req)
            in
            match
              Rrp.call w.b.stack.Stack.rrp ~src_port:40001 ~dst:w.a.ip ~dst_port:300
                (View.of_string payload)
            with
            | Ok r -> View.to_string r
            | Error e -> failwith e)
      in
      !executed = 1 && String.equal echoed payload)

let () =
  Alcotest.run ~and_exit:false "rrp-props"
    [ ("props", [ QCheck_alcotest.to_alcotest prop_rrp_exactly_once_any_payload ]) ]
