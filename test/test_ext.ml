(* Tests for the extension features: C-threads synchronization
   primitives, per-connection protocol tailoring, the snoop decoder, and
   connection-churn hygiene. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Mutex = Uln_engine.Mutex
module Condition = Uln_engine.Condition
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip
module Mac = Uln_addr.Mac
module Frame = Uln_net.Frame
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Organization = Uln_core.Organization
module Sockets = Uln_core.Sockets
module Protolib = Uln_core.Protolib
module Registry = Uln_core.Registry
module Snoop = Uln_workload.Snoop

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- mutex / condition ------------------------------------------------- *)

let test_mutex_excludes () =
  let s = Sched.create () in
  let m = Mutex.create () in
  let log = ref [] in
  let worker tag =
    Sched.spawn s (fun () ->
        Mutex.with_lock m (fun () ->
            log := (tag ^ ":in") :: !log;
            Sched.sleep s (Time.ms 5);
            log := (tag ^ ":out") :: !log))
  in
  worker "a";
  worker "b";
  Sched.run s;
  (* Critical sections must not interleave. *)
  Alcotest.(check (list string)) "serialized" [ "a:in"; "a:out"; "b:in"; "b:out" ]
    (List.rev !log)

let test_mutex_try_lock () =
  let s = Sched.create () in
  let m = Mutex.create () in
  Sched.block_on s (fun () ->
      check_bool "first" true (Mutex.try_lock m);
      check_bool "second" false (Mutex.try_lock m);
      Mutex.unlock m;
      check_bool "after unlock" true (Mutex.try_lock m);
      Mutex.unlock m)

let test_mutex_unlock_unheld_rejected () =
  let m = Mutex.create () in
  Alcotest.check_raises "unlock unheld" (Invalid_argument "Mutex.unlock: not locked")
    (fun () -> Mutex.unlock m)

let test_condition_signal () =
  let s = Sched.create () in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let ready = ref false in
  let observed = ref false in
  Sched.spawn s (fun () ->
      Mutex.lock m;
      while not !ready do
        Condition.wait cv m
      done;
      observed := true;
      Mutex.unlock m);
  Sched.spawn s (fun () ->
      Sched.sleep s (Time.ms 3);
      Mutex.lock m;
      ready := true;
      Condition.signal cv;
      Mutex.unlock m);
  Sched.run s;
  check_bool "woken with predicate" true !observed

let test_condition_broadcast () =
  let s = Sched.create () in
  let m = Mutex.create () in
  let cv = Condition.create () in
  let woken = ref 0 in
  for _ = 1 to 5 do
    Sched.spawn s (fun () ->
        Mutex.lock m;
        Condition.wait cv m;
        incr woken;
        Mutex.unlock m)
  done;
  Sched.spawn s (fun () ->
      Sched.sleep s (Time.ms 2);
      Condition.broadcast cv);
  Sched.run s;
  check "all woken" 5 !woken

(* --- per-connection tailoring (paper SS5) -------------------------------- *)

let interactive =
  { Tcp_params.default with Tcp_params.nagle = false; ack_every = 1; delack = Time.ms 1 }

(* Write-write-read command loop; returns ms per command. *)
let command_loop w conn n =
  let sched = World.sched w in
  let head = View.create 1 and tail = View.create 2 in
  let t0 = Sched.now sched in
  for _ = 1 to n do
    conn.Sockets.send head;
    conn.Sockets.send tail;
    match conn.Sockets.recv ~max:1 with Some _ -> () | None -> failwith "EOF"
  done;
  Time.to_ms_f (Time.diff (Sched.now sched) t0) /. float_of_int n

let run_terminal ~tuned =
  let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
  let sched = World.sched w in
  let srv = World.app w ~host:1 "srv" in
  let lib = Option.get (World.library w ~host:0 "term") in
  Sched.spawn sched ~name:"srv" (fun () ->
      let l = srv.Sockets.listen ~port:23 in
      let conn = l.Sockets.accept () in
      let prompt = View.create 1 in
      let rec loop () =
        let got = ref 0 and eof = ref false in
        while !got < 3 && not !eof do
          match conn.Sockets.recv ~max:(3 - !got) with
          | Some v -> got := !got + View.length v
          | None -> eof := true
        done;
        if not !eof then begin
          conn.Sockets.send prompt;
          loop ()
        end
        else conn.Sockets.close ()
      in
      loop ());
  Sched.block_on sched (fun () ->
      let conn =
        if tuned then
          Result.get_ok
            (Protolib.connect_q lib ~params:interactive ~src_port:0
               ~dst:(World.host_ip w 1) ~dst_port:23)
        else
          Result.get_ok
            ((Protolib.app lib).Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1)
               ~dst_port:23)
      in
      let ms = command_loop w conn 10 in
      conn.Sockets.close ();
      ms)

let test_tuned_connection_beats_stock () =
  let stock = run_terminal ~tuned:false in
  let tuned = run_terminal ~tuned:true in
  (* Nagle + delayed-ACK stalls make the stock variant pay ~200 ms per
     write-write-read command; the tailored engine does not. *)
  check_bool "at least 5x faster" true (stock /. tuned > 5.0)

(* --- snoop decoder -------------------------------------------------------- *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

let test_snoop_decodes_tcp () =
  let seg =
    Uln_proto.Tcp_wire.encode ~src_ip:(Ip.of_string "10.0.0.1") ~dst_ip:(Ip.of_string "10.0.0.2")
      { Uln_proto.Tcp_wire.src_port = 5000;
        dst_port = 80;
        seq = 42;
        ack = 7;
        flags = { Uln_proto.Tcp_wire.no_flags with Uln_proto.Tcp_wire.syn = true };
        wnd = 1024;
        opts = Uln_proto.Tcp_wire.opts_mss 1460;
        payload = Mbuf.empty }
  in
  let hdr = View.create 20 in
  View.set_uint8 hdr 0 0x45;
  View.set_uint16 hdr 2 (20 + Mbuf.length seg);
  View.set_uint8 hdr 9 6;
  View.set_uint32 hdr 12 (Ip.to_int32 (Ip.of_string "10.0.0.1"));
  View.set_uint32 hdr 16 (Ip.to_int32 (Ip.of_string "10.0.0.2"));
  View.set_uint16 hdr 10 (Uln_proto.Checksum.of_view hdr);
  let line =
    Snoop.describe
      (Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2) ~ethertype:Frame.ethertype_ip
         (Mbuf.prepend hdr seg))
  in
  check_bool "mentions ports" true (contains line "10.0.0.1:5000" && contains line "10.0.0.2:80");
  check_bool "shows SYN" true (contains line "S");
  check_bool "shows seq" true (contains line "seq=42")

let test_snoop_never_raises_on_garbage () =
  let rng = Uln_engine.Rng.create ~seed:5 in
  for _ = 1 to 2_000 do
    let len = Uln_engine.Rng.int rng 100 in
    let payload = View.create len in
    for i = 0 to len - 1 do
      View.set_uint8 payload i (Uln_engine.Rng.int rng 256)
    done;
    let ethertype = if Uln_engine.Rng.bool rng then 0x0800 else Uln_engine.Rng.int rng 0x10000 in
    ignore
      (Snoop.describe
         (Frame.make ~src:(Mac.of_int 1) ~dst:(Mac.of_int 2) ~ethertype (Mbuf.of_view payload)))
  done

let test_snoop_captures_a_session () =
  let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
  let buf = Snoop.capture (World.link w) in
  let server = World.app w ~host:1 "s" and client = World.app w ~host:0 "c" in
  Sched.spawn (World.sched w) ~name:"s" (fun () ->
      let l = server.Sockets.listen ~port:80 in
      let conn = l.Sockets.accept () in
      (match conn.Sockets.recv ~max:64 with Some _ -> () | None -> ());
      conn.Sockets.close ());
  Sched.block_on (World.sched w) (fun () ->
      match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith e
      | Ok conn ->
          conn.Sockets.send (View.of_string "x");
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  let text = Buffer.contents buf in
  check_bool "saw arp" true (contains text "ARP who-has");
  check_bool "saw syn" true (contains text " S ");
  check_bool "saw fin" true (contains text "F");
  check_bool "timestamped" true (contains text "ms")

(* --- connection churn hygiene ---------------------------------------------- *)

let test_churn_leaves_no_residue () =
  let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
  let server = World.app w ~host:1 "srv" in
  let client = World.app w ~host:0 "cli" in
  let rounds = 8 in
  Sched.spawn (World.sched w) ~name:"srv" (fun () ->
      let l = server.Sockets.listen ~port:80 in
      for _ = 1 to rounds do
        let conn = l.Sockets.accept () in
        (match conn.Sockets.recv ~max:64 with Some _ -> () | None -> ());
        conn.Sockets.close ()
      done);
  Sched.block_on (World.sched w) (fun () ->
      for i = 1 to rounds do
        match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
        | Error e -> failwith e
        | Ok conn ->
            conn.Sockets.send (View.of_string (Printf.sprintf "round %d" i));
            conn.Sockets.close ();
            conn.Sockets.await_closed ()
      done);
  Sched.run (World.sched w);
  let reg0 = Option.get (World.registry w 0) in
  check "client ports all released" 0 (Registry.ports_in_use reg0);
  check "all handshakes succeeded" rounds (Registry.handshakes_completed reg0)

let () =
  Alcotest.run ~and_exit:false "extensions"
    [ ( "mutex",
        [ Alcotest.test_case "excludes" `Quick test_mutex_excludes;
          Alcotest.test_case "try_lock" `Quick test_mutex_try_lock;
          Alcotest.test_case "unlock unheld" `Quick test_mutex_unlock_unheld_rejected ] );
      ( "condition",
        [ Alcotest.test_case "signal" `Quick test_condition_signal;
          Alcotest.test_case "broadcast" `Quick test_condition_broadcast ] );
      ( "tailoring",
        [ Alcotest.test_case "tuned beats stock" `Quick test_tuned_connection_beats_stock ] );
      ( "snoop",
        [ Alcotest.test_case "decodes tcp" `Quick test_snoop_decodes_tcp;
          Alcotest.test_case "garbage safe" `Quick test_snoop_never_raises_on_garbage;
          Alcotest.test_case "captures session" `Quick test_snoop_captures_a_session ] );
      ("churn", [ Alcotest.test_case "no residue" `Quick test_churn_leaves_no_residue ]) ]

(* --- appended: handoff chains and AN1 snoop ------------------------------- *)

let test_pass_connection_chain () =
  (* inetd -> worker1 -> worker2: the capability moves twice, the stream
     survives both moves. *)
  let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
  let a = Option.get (World.library w ~host:1 "a") in
  let b = Option.get (World.library w ~host:1 "b") in
  let c = Option.get (World.library w ~host:1 "c") in
  let client = World.app w ~host:0 "client" in
  Sched.spawn (World.sched w) ~name:"chain" (fun () ->
      let l = (Protolib.app a).Sockets.listen ~port:23 in
      let conn = l.Sockets.accept () in
      let conn = Protolib.pass_connection a conn ~to_lib:b in
      let conn = Protolib.pass_connection b conn ~to_lib:c in
      (match conn.Sockets.recv ~max:64 with
      | Some v -> conn.Sockets.send (View.of_string ("c:" ^ View.to_string v))
      | None -> ());
      conn.Sockets.close ());
  let reply =
    Sched.block_on (World.sched w) (fun () ->
        match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:23 with
        | Error e -> failwith e
        | Ok conn ->
            Sched.sleep (World.sched w) (Time.ms 100);
            conn.Sockets.send (View.of_string "hi");
            let r =
              match conn.Sockets.recv ~max:64 with Some v -> View.to_string v | None -> ""
            in
            conn.Sockets.close ();
            conn.Sockets.await_closed ();
            r)
  in
  Alcotest.(check string) "served by the final owner" "c:hi" reply

let test_snoop_shows_bqi_on_an1 () =
  let w = World.create ~network:World.An1 ~org:Organization.User_library () in
  let buf = Snoop.capture (World.link w) in
  let server = World.app w ~host:1 "s" and client = World.app w ~host:0 "c" in
  Sched.spawn (World.sched w) ~name:"s" (fun () ->
      let l = server.Sockets.listen ~port:80 in
      let conn = l.Sockets.accept () in
      (match conn.Sockets.recv ~max:64 with Some _ -> () | None -> ());
      conn.Sockets.close ());
  Sched.block_on (World.sched w) (fun () ->
      match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith e
      | Ok conn ->
          conn.Sockets.send (View.of_string "x");
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  let text = Buffer.contents buf in
  (* Handshake advertises rings in the spare field; data rides them. *)
  check_bool "bqi hint on handshake" true (contains text "hint=");
  check_bool "data stamped with a ring" true (contains text "[bqi=1")

let () =
  Alcotest.run ~and_exit:false "extensions-2"
    [ ( "more",
        [ Alcotest.test_case "handoff chain" `Quick test_pass_connection_chain;
          Alcotest.test_case "an1 snoop shows bqi" `Quick test_snoop_shows_bqi_on_an1 ] ) ]
