(* Integration tests of the protocol organizations: the same workload
   runs unchanged under every structure, plus the protection properties
   specific to the user-library organization. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip
module Mac = Uln_addr.Mac
module Addr_space = Uln_host.Addr_space
module Capability = Uln_host.Capability
module Frame = Uln_net.Frame
module Template = Uln_filter.Template
module Program = Uln_filter.Program
module Tcp_state = Uln_proto.Tcp_state
module World = Uln_core.World
module Organization = Uln_core.Organization
module Sockets = Uln_core.Sockets
module Netio = Uln_core.Netio
module Registry = Uln_core.Registry

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let pattern n = String.init n (fun i -> Char.chr (((i * 7) + (i / 251)) land 0x7f))

(* One bulk transfer: app on host 1 serves, app on host 0 sends [n]
   bytes; returns what the server received. *)
let run_transfer w n =
  let data = pattern n in
  let received = ref "" in
  let server_app = World.app w ~host:1 "server" in
  let client_app = World.app w ~host:0 "client" in
  Sched.spawn (World.sched w) ~name:"server" (fun () ->
      let l = server_app.Sockets.listen ~port:80 in
      let conn = l.Sockets.accept () in
      let buf = Buffer.create n in
      let rec drain () =
        match conn.Sockets.recv ~max:65536 with
        | None -> ()
        | Some v ->
            Buffer.add_string buf (View.to_string v);
            drain ()
      in
      drain ();
      received := Buffer.contents buf;
      conn.Sockets.close ());
  Sched.block_on (World.sched w) (fun () ->
      match client_app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith ("connect: " ^ e)
      | Ok conn ->
          conn.Sockets.send (View.of_string data);
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  (data, !received)

let orgs_to_test =
  [ ("inkernel", Organization.In_kernel);
    ("server-mapped", Organization.Single_server `Mapped);
    ("server-message", Organization.Single_server `Message);
    ("dedicated", Organization.Dedicated_servers);
    ("userlib", Organization.User_library) ]

let transfer_case (label, org) network net_label =
  Alcotest.test_case (Printf.sprintf "%s over %s" label net_label) `Quick (fun () ->
      let w = World.create ~network ~org () in
      let data, received = run_transfer w 50_000 in
      check (label ^ " length") (String.length data) (String.length received);
      check_bool (label ^ " content") true (String.equal data received))

(* --- user-library organization specifics ------------------------------- *)

let userlib_world ?(network = World.Ethernet) () =
  World.create ~network ~org:Organization.User_library ()

(* A destroyed channel leaves its scheduler's lock registry: after [n]
   connect/close cycles (channel pool off, so every channel is destroyed
   once its TIME_WAIT ends) the world names as many locks whatever [n]
   is, instead of one [rx_sem] more per closed channel. *)
let test_closed_channels_unregister () =
  let named n =
    let w =
      World.create ~network:World.Ethernet ~org:Organization.User_library
        ~tcp_params:Uln_proto.Tcp_params.fast ()
    in
    let sched = World.sched w in
    let server_app = World.app w ~host:1 "server" in
    let client_app = World.app w ~host:0 "client" in
    Sched.spawn sched ~name:"server" (fun () ->
        let l = server_app.Sockets.listen ~port:80 in
        for _ = 1 to n do
          let c = l.Sockets.accept () in
          ignore (c.Sockets.recv ~max:16);
          c.Sockets.close ()
        done);
    Sched.block_on sched (fun () ->
        for _ = 1 to n do
          match client_app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
          | Error e -> failwith ("connect: " ^ e)
          | Ok c -> c.Sockets.close ()
        done;
        Sched.sleep sched (Time.sec 5));
    List.length (Uln_engine.Semaphore.registered ~sched)
  in
  check "named locks after 16 cycles = after 4" (named 4) (named 16)

(* Pool buffers are allocated on first hand-out, so a world that has
   not run holds only the ring buffers its channels stock, not every
   slot of every pool (about 45k words when pools were filled up
   front); and a timer wheel allocates its slots on first use, not
   1,024 ref cells per protocol environment (about 20k words per world
   before).  Measured: 7,712 words on Ethernet, 7,933 on AN1; the bound
   leaves about 20% on top.  Benches build hundreds of worlds; this is
   what each one costs to keep. *)
let test_world_live_words () =
  List.iter
    (fun (label, network) ->
      let live () =
        Gc.full_major ();
        (Gc.stat ()).Gc.live_words
      in
      let before = live () in
      let w = userlib_world ~network () in
      let words = live () - before in
      ignore (Sys.opaque_identity w);
      check_bool
        (Printf.sprintf "%s: %d live words, bound 9500" label words)
        true (words <= 9_500))
    [ ("ethernet", World.Ethernet); ("an1", World.An1) ]

(* A held server: accepts every connection on [port] and keeps it,
   reading one byte from each. *)
let hold_server w ~port =
  let app = World.app w ~host:1 "holder" in
  let held = ref [] in
  Sched.spawn (World.sched w) ~name:"holder" (fun () ->
      let l = app.Sockets.listen ~port in
      while true do
        let c = l.Sockets.accept () in
        held := c :: !held;
        Sched.spawn (World.sched w) ~name:"holder-read" (fun () -> ignore (c.Sockets.recv ~max:1))
      done);
  held

(* Connects verify nothing: after one warm-up connect has made each
   host's connection-filter shape, 32 leased and 32 registry connects
   found no overlap group on either host, and each adds exactly its one
   filter per host.  Each connect founded a group per host when every
   connection filter was an installed program. *)
let test_connects_do_no_verification () =
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library
      ~tcp_params:{ Uln_proto.Tcp_params.fast with endpoint_lease = true } ()
  in
  let sched = World.sched w in
  let held = hold_server w ~port:80 in
  let libs = List.init 8 (fun i -> Option.get (World.library w ~host:0 (Printf.sprintf "lib%d" i))) in
  let mine = ref [] in
  let connect lib src_port =
    match Uln_core.Protolib.connect_q lib ~src_port ~dst:(World.host_ip w 1) ~dst_port:80 with
    | Ok c ->
        c.Sockets.send (View.of_string "x");
        mine := c :: !mine
    | Error e -> Alcotest.fail (Registry.error_to_string e)
  in
  let demux h = Netio.demux (Option.get (World.netio w h)) in
  let groups () = List.map (fun h -> Uln_filter.Demux.live_groups (demux h)) [ 0; 1 ] in
  let entries () = List.map (fun h -> Uln_filter.Demux.entries (demux h)) [ 0; 1 ] in
  Sched.block_on sched (fun () ->
      connect (List.hd libs) 40_000;
      Sched.sleep sched (Time.ms 50));
  let groups0 = groups () and entries0 = entries () in
  Sched.block_on sched (fun () ->
      List.iter (fun lib -> for _ = 1 to 4 do connect lib 0 done) libs;
      for i = 1 to 32 do
        connect (List.nth libs (i mod 8)) (40_000 + i)
      done;
      Sched.sleep sched (Time.ms 50));
  let leased =
    List.fold_left
      (fun n lib -> n + (Uln_core.Protolib.leasestats lib).Uln_core.Protolib.lst_leased_connects)
      0 libs
  in
  check "leased connects" 32 leased;
  check "connections held" 65 (List.length !held);
  Alcotest.(check (list int)) "no group founded on either host" groups0 (groups ());
  Alcotest.(check (list int)) "one filter per connection per host"
    (List.map (fun n -> n + 64) entries0)
    (entries ());
  ignore (Sys.opaque_identity !mine)

(* Memory guard: the live words a held user-library connection keeps on
   Ethernet, both ends counted (64 connections held, one byte each,
   measured after a warm-up connect).  Read with this harness on x86-64:
   8,438 words per connection when each end's connection filter was an
   installed program with its analyses, optimized program and closure;
   7,277 with each a stamp of its host's shape: 1,161 words less per
   connection. *)
let test_held_connection_words () =
  let w = userlib_world () in
  let sched = World.sched w in
  let held = hold_server w ~port:80 in
  let app = World.app w ~host:0 "client" in
  let mine = ref [] in
  let connect () =
    match app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
    | Ok c ->
        c.Sockets.send (View.of_string "x");
        mine := c :: !mine
    | Error e -> Alcotest.fail e
  in
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  Sched.block_on sched (fun () ->
      connect ();
      Sched.sleep sched (Time.ms 50));
  let before = live () in
  Sched.block_on sched (fun () ->
      for _ = 1 to 64 do
        connect ()
      done;
      Sched.sleep sched (Time.ms 50));
  let per_conn = (live () - before) / 64 in
  check "connections held" 65 (List.length (Sys.opaque_identity !held));
  ignore (Sys.opaque_identity !mine);
  check_bool (Printf.sprintf "%d live words per held connection; bound 7,800" per_conn) true
    (per_conn <= 7_800)

(* A connection stamp whose send template names another source address
   than the stamp's local one is refused, and the channel stays dark. *)
let test_conn_stamp_refuses_impersonation () =
  let w = userlib_world () in
  let netio = Option.get (World.netio w 0) in
  let dom = Registry.domain (Option.get (World.registry w 0)) in
  let local_ip = World.host_ip w 0 and remote_ip = World.host_ip w 1 in
  let entries () = Uln_filter.Demux.entries (Netio.demux netio) in
  Sched.block_on (World.sched w) (fun () ->
      let ch = Netio.create_channel netio ~caller:dom ~owner:dom ~use_bqi:false in
      let before = entries () in
      (match
         Netio.activate_conn netio ~caller:dom ch ~remote_ip ~remote_port:99 ~local_ip
           ~local_port:42
           ~template:(Template.tcp_conn ~src_ip:remote_ip ~dst_ip:remote_ip ~src_port:42 ~dst_port:99 ())
       with
      | () -> Alcotest.fail "an impersonating template was armed"
      | exception Capability.Violation _ -> ());
      check "no filter stamped" before (entries ());
      Netio.activate_conn netio ~caller:dom ch ~remote_ip ~remote_port:99 ~local_ip ~local_port:42
        ~template:(Template.tcp_conn ~src_ip:local_ip ~dst_ip:remote_ip ~src_port:42 ~dst_port:99 ());
      check "the honest one is stamped" (before + 1) (entries ()))

let test_registry_off_data_path () =
  (* The registry completes exactly one handshake and is not involved
     per-segment: its stack must see only handshake-era segments. *)
  let w = userlib_world () in
  let _, received = run_transfer w 100_000 in
  check "transfer worked" 100_000 (String.length received);
  let reg = Option.get (World.registry w 0) in
  check "one handshake" 1 (Registry.handshakes_completed reg);
  let reg_stack = Registry.stack reg in
  let reg_segments = Uln_proto.Tcp.segments_in reg_stack.Uln_proto.Stack.tcp in
  (* ~69 data segments flowed; the registry saw only the SYN-ACK. *)
  check_bool "registry bypassed on data path" true (reg_segments < 5)

let test_userlib_demux_isolation_two_apps () =
  (* Two applications on the same host, two concurrent connections:
     each stream must arrive intact at its own application. *)
  let w = userlib_world () in
  let server1 = World.app w ~host:1 "srv1" in
  let server2 = World.app w ~host:1 "srv2" in
  let client1 = World.app w ~host:0 "cli1" in
  let client2 = World.app w ~host:0 "cli2" in
  let got1 = ref "" and got2 = ref "" in
  let serve app port dst =
    Sched.spawn (World.sched w) ~name:"srv" (fun () ->
        let l = app.Sockets.listen ~port in
        let c = l.Sockets.accept () in
        let buf = Buffer.create 1024 in
        let rec drain () =
          match c.Sockets.recv ~max:65536 with
          | None -> ()
          | Some v ->
              Buffer.add_string buf (View.to_string v);
              drain ()
        in
        drain ();
        dst := Buffer.contents buf;
        c.Sockets.close ())
  in
  serve server1 81 got1;
  serve server2 82 got2;
  let send_from app port tag =
    Sched.spawn (World.sched w) ~name:"cli" (fun () ->
        match app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:port with
        | Error e -> failwith e
        | Ok c ->
            for i = 0 to 49 do
              c.Sockets.send (View.of_string (Printf.sprintf "%s-%03d|" tag i))
            done;
            c.Sockets.close ())
  in
  send_from client1 81 "one";
  send_from client2 82 "two";
  Sched.run (World.sched w);
  check "stream one complete" (50 * 8) (String.length !got1);
  check "stream two complete" (50 * 8) (String.length !got2);
  check_bool "stream one untainted" true (String.sub !got1 0 4 = "one-");
  check_bool "stream two untainted" true (String.sub !got2 0 4 = "two-");
  let netio1 = Option.get (World.netio w 1) in
  check "no cross-delivery rejects" 0 (Netio.sends_rejected netio1)

let test_channel_creation_requires_privilege () =
  let w = userlib_world () in
  let netio = Option.get (World.netio w 0) in
  let intruder = Uln_host.Machine.new_user_domain (World.machine w 0) "intruder" in
  Sched.block_on (World.sched w) (fun () ->
      check_bool "unprivileged create rejected" true
        (try
           ignore (Netio.create_channel netio ~caller:intruder ~owner:intruder ~use_bqi:false);
           false
         with Capability.Violation _ -> true))

let test_template_blocks_forged_send () =
  (* A (privileged, for setup) channel constrained to one connection;
     sending a packet with different ports through it must be refused
     by the template check. *)
  let w = userlib_world () in
  let netio = Option.get (World.netio w 0) in
  let reg = Option.get (World.registry w 0) in
  let dom = Registry.domain reg in
  Sched.block_on (World.sched w) (fun () ->
      let ch = Netio.create_channel netio ~caller:dom ~owner:dom ~use_bqi:false in
      let src_ip = World.host_ip w 0 and dst_ip = World.host_ip w 1 in
      Netio.activate netio ~caller:dom ch
        ~filter:(Program.tcp_conn ~src_ip:dst_ip ~dst_ip:src_ip ~src_port:99 ~dst_port:42)
        ~template:(Template.tcp_conn ~src_ip ~dst_ip ~src_port:42 ~dst_port:99 ());
      (* Forge a segment from port 5555 (impersonating another conn). *)
      let seg =
        Uln_proto.Tcp_wire.encode ~src_ip ~dst_ip
          { Uln_proto.Tcp_wire.src_port = 5555;
            dst_port = 99;
            seq = 0;
            ack = 0;
            flags = Uln_proto.Tcp_wire.no_flags;
            wnd = 0;
            opts = Uln_proto.Tcp_wire.no_opts;
            payload = Mbuf.empty }
      in
      let ip_hdr = View.create 20 in
      View.set_uint8 ip_hdr 0 0x45;
      View.set_uint16 ip_hdr 2 (20 + Mbuf.length seg);
      View.set_uint8 ip_hdr 8 64;
      View.set_uint8 ip_hdr 9 6;
      View.set_uint32 ip_hdr 12 (Ip.to_int32 src_ip);
      View.set_uint32 ip_hdr 16 (Ip.to_int32 dst_ip);
      View.set_uint16 ip_hdr 10 (Uln_proto.Checksum.of_view ip_hdr);
      let frame =
        Frame.make
          ~src:(World.nic w 0).Uln_net.Nic.mac
          ~dst:(World.nic w 1).Uln_net.Nic.mac
          ~ethertype:Frame.ethertype_ip
          (Mbuf.prepend ip_hdr seg)
      in
      check_bool "forged send rejected" true
        (try
           Netio.send netio ch ~from_domain:dom frame;
           false
         with Netio.Send_rejected _ -> true);
      check "reject counted" 1 (Netio.sends_rejected netio))

let test_rx_pop_requires_mapping () =
  let w = userlib_world () in
  let netio = Option.get (World.netio w 0) in
  let reg = Option.get (World.registry w 0) in
  let dom = Registry.domain reg in
  let other = Uln_host.Machine.new_user_domain (World.machine w 0) "other" in
  Sched.block_on (World.sched w) (fun () ->
      let ch = Netio.create_channel netio ~caller:dom ~owner:dom ~use_bqi:false in
      check_bool "foreign rx_pop rejected" true
        (try
           ignore (Netio.rx_pop ch ~from_domain:other);
           false
         with Capability.Violation _ -> true))

let test_graceful_exit_inherits_connection () =
  (* Client app exits with the connection still ESTABLISHED; the
     registry inherits it and closes it properly, so the server sees a
     clean EOF, not a reset. *)
  let w = userlib_world () in
  let server_app = World.app w ~host:1 "server" in
  let client_app = World.app w ~host:0 "client" in
  let outcome = ref `Pending in
  Sched.spawn (World.sched w) ~name:"server" (fun () ->
      let l = server_app.Sockets.listen ~port:80 in
      let c = l.Sockets.accept () in
      (try
         let rec drain () =
           match c.Sockets.recv ~max:4096 with Some _ -> drain () | None -> outcome := `Eof
         in
         drain ()
       with Uln_proto.Tcp.Connection_error _ -> outcome := `Reset);
      c.Sockets.close ());
  Sched.block_on (World.sched w) (fun () ->
      match client_app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith e
      | Ok conn ->
          conn.Sockets.send (View.of_string "some data then vanish");
          Sched.sleep (World.sched w) (Time.ms 200);
          client_app.Sockets.exit_app ~graceful:true);
  Sched.run (World.sched w);
  check_bool "server saw clean EOF" true (!outcome = `Eof);
  let reg = Option.get (World.registry w 0) in
  check "registry inherited it" 1 (Registry.inherited_connections reg)

let test_abnormal_exit_resets_peer () =
  let w = userlib_world () in
  let server_app = World.app w ~host:1 "server" in
  let client_app = World.app w ~host:0 "client" in
  let outcome = ref `Pending in
  Sched.spawn (World.sched w) ~name:"server" (fun () ->
      let l = server_app.Sockets.listen ~port:80 in
      let c = l.Sockets.accept () in
      try
        let rec drain () =
          match c.Sockets.recv ~max:4096 with Some _ -> drain () | None -> outcome := `Eof
        in
        drain ()
      with Uln_proto.Tcp.Connection_error _ -> outcome := `Reset);
  Sched.block_on (World.sched w) (fun () ->
      match client_app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith e
      | Ok conn ->
          conn.Sockets.send (View.of_string "about to crash");
          Sched.sleep (World.sched w) (Time.ms 200);
          client_app.Sockets.exit_app ~graceful:false);
  Sched.run (World.sched w);
  check_bool "server saw reset" true (!outcome = `Reset)

let test_ports_released_after_close () =
  let w = userlib_world () in
  let reg0 = Option.get (World.registry w 0) in
  let _, received = run_transfer w 5_000 in
  check "transferred" 5_000 (String.length received);
  (* After TIME_WAIT expires the library releases the port. *)
  check "client ports free" 0 (Registry.ports_in_use reg0)

let test_an1_uses_hardware_demux () =
  let w = userlib_world ~network:World.An1 () in
  let _, received = run_transfer w 50_000 in
  check "transfer over AN1" 50_000 (String.length received);
  let netio1 = Option.get (World.netio w 1) in
  check_bool "BQI path used for data" true (Netio.hw_demuxed netio1 > 20);
  check_bool "software path only for setup-era traffic" true
    (Netio.sw_demuxed netio1 < Netio.hw_demuxed netio1)

let test_ethernet_uses_software_demux () =
  let w = userlib_world ~network:World.Ethernet () in
  let _, _ = run_transfer w 20_000 in
  let netio1 = Option.get (World.netio w 1) in
  check "no hardware path on LANCE" 0 (Netio.hw_demuxed netio1);
  check_bool "software path used" true (Netio.sw_demuxed netio1 > 10)

let test_compiled_demux_mode_works () =
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library
      ~demux_mode:Uln_filter.Demux.Compiled ()
  in
  let data, received = run_transfer w 30_000 in
  check_bool "transfer with compiled filters" true (String.equal data received)

let test_organization_descriptions () =
  List.iter
    (fun org ->
      let s = Format.asprintf "%a" Organization.describe org in
      check_bool (Organization.name org ^ " described") true (String.length s > 40))
    Organization.all;
  let fig2 = Format.asprintf "%a" Organization.describe_userlib () in
  check_bool "figure 2" true (String.length fig2 > 200)

(* --- UDP across organizations (paper SS5: connectionless binding) ------ *)

let udp_roundtrip_case (label, org) =
  Alcotest.test_case (label ^ " udp roundtrip") `Quick (fun () ->
      let w = World.create ~network:World.Ethernet ~org () in
      let server = World.app w ~host:1 "udp-server" in
      let client = World.app w ~host:0 "udp-client" in
      let got = ref "" in
      Sched.spawn (World.sched w) ~name:"udp-server" (fun () ->
          let ep = server.Sockets.udp_bind ~port:53 in
          let src, src_port, data = ep.Sockets.recv_from () in
          got := View.to_string data;
          ep.Sockets.sendto ~dst:src ~dst_port:src_port (View.of_string "reply");
          ep.Sockets.udp_close ());
      let answer =
        Sched.block_on (World.sched w) (fun () ->
            let ep = client.Sockets.udp_bind ~port:5353 in
            ep.Sockets.sendto ~dst:(World.host_ip w 1) ~dst_port:53 (View.of_string "query");
            let _, _, data = ep.Sockets.recv_from () in
            ep.Sockets.udp_close ();
            View.to_string data)
      in
      Alcotest.(check string) "server got query" "query" !got;
      Alcotest.(check string) "client got reply" "reply" answer)

let test_udp_userlib_port_collision () =
  let w = userlib_world () in
  let a = World.app w ~host:0 "a" in
  let b = World.app w ~host:0 "b" in
  Sched.block_on (World.sched w) (fun () ->
      let ep = a.Sockets.udp_bind ~port:1000 in
      check_bool "second bind rejected" true
        (try
           ignore (b.Sockets.udp_bind ~port:1000);
           false
         with Failure _ -> true);
      ep.Sockets.udp_close ();
      (* After release the port is available again. *)
      let ep2 = b.Sockets.udp_bind ~port:1000 in
      ep2.Sockets.udp_close ())

(* One (IP protocol, port) binding table: UDP and RRP port spaces are
   disjoint, a second bind of the same (protocol, port) is refused, a
   stopped RRP server's port is free again, and a datagram close is
   idempotent. *)
let bind_fails f =
  try
    ignore (f ());
    false
  with Failure _ -> true

let test_udp_rrp_share_port_number () =
  let w = userlib_world () in
  let a = World.app w ~host:0 "a" and b = World.app w ~host:0 "b" in
  Sched.block_on (World.sched w) (fun () ->
      let ep = a.Sockets.udp_bind ~port:300 in
      let srv = b.Sockets.rrp_serve ~port:300 (fun r -> r) in
      check_bool "udp 300 still held" true (bind_fails (fun () -> b.Sockets.udp_bind ~port:300));
      check_bool "rrp 300 still held" true
        (bind_fails (fun () -> a.Sockets.rrp_serve ~port:300 (fun r -> r)));
      srv.Sockets.rrp_stop ();
      ep.Sockets.udp_close ())

let test_rrp_server_rebinds_after_stop () =
  let w = userlib_world () in
  let a = World.app w ~host:0 "a" and b = World.app w ~host:0 "b" in
  let peer = World.app w ~host:1 "peer" in
  Sched.block_on (World.sched w) (fun () ->
      let srv = a.Sockets.rrp_serve ~port:300 (fun r -> r) in
      srv.Sockets.rrp_stop ();
      let srv2 = b.Sockets.rrp_serve ~port:300 (fun _ -> View.of_string "b") in
      let cl = Result.get_ok (peer.Sockets.rrp_client ()) in
      (match cl.Sockets.rrp_call ~dst:(World.host_ip w 0) ~dst_port:300 (View.of_string "q") with
      | Ok v -> Alcotest.(check string) "new server answers" "b" (View.to_string v)
      | Error e -> Alcotest.fail e);
      srv2.Sockets.rrp_stop ())

let test_dgram_double_close () =
  let w = userlib_world () in
  let a = World.app w ~host:0 "a" and b = World.app w ~host:0 "b" in
  let c = World.app w ~host:0 "c" in
  Sched.block_on (World.sched w) (fun () ->
      let ep = a.Sockets.udp_bind ~port:1000 in
      ep.Sockets.udp_close ();
      let ep2 = b.Sockets.udp_bind ~port:1000 in
      ep.Sockets.udp_close ();
      check_bool "udp port stays bound" true (bind_fails (fun () -> c.Sockets.udp_bind ~port:1000));
      ep2.Sockets.udp_close ();
      let srv = a.Sockets.rrp_serve ~port:400 (fun r -> r) in
      srv.Sockets.rrp_stop ();
      let srv2 = b.Sockets.rrp_serve ~port:400 (fun r -> r) in
      srv.Sockets.rrp_stop ();
      check_bool "rrp port stays bound" true
        (bind_fails (fun () -> c.Sockets.rrp_serve ~port:400 (fun r -> r)));
      srv2.Sockets.rrp_stop ())

(* Under rx_coalesce datagram channels join the library's poll
   episode alongside its TCP connections. *)
let test_dgram_coalesced () =
  let w =
    World.create ~network:World.An1 ~org:Organization.User_library
      ~tcp_params:Uln_proto.Tcp_params.coalesced ()
  in
  let server = World.app w ~host:1 "srv" and client = World.app w ~host:0 "cli" in
  Sched.spawn (World.sched w) ~name:"udp-echo" (fun () ->
      let ep = server.Sockets.udp_bind ~port:9 in
      for _ = 1 to 5 do
        let src, src_port, data = ep.Sockets.recv_from () in
        ep.Sockets.sendto ~dst:src ~dst_port:src_port data
      done;
      ep.Sockets.udp_close ());
  Sched.block_on (World.sched w) (fun () ->
      let srv = server.Sockets.rrp_serve ~port:300 (fun r -> r) in
      let cl = Result.get_ok (client.Sockets.rrp_client ()) in
      let ep = client.Sockets.udp_bind ~port:10 in
      for i = 1 to 5 do
        let msg = string_of_int i in
        (match cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 (View.of_string msg) with
        | Ok v -> Alcotest.(check string) "rrp echo" msg (View.to_string v)
        | Error e -> Alcotest.fail e);
        ep.Sockets.sendto ~dst:(World.host_ip w 1) ~dst_port:9 (View.of_string msg);
        let _, _, data = ep.Sockets.recv_from () in
        Alcotest.(check string) "udp echo" msg (View.to_string data)
      done;
      ep.Sockets.udp_close ();
      cl.Sockets.rrp_client_close ();
      srv.Sockets.rrp_stop ())

let test_udp_userlib_bypasses_registry () =
  let w = userlib_world () in
  let server = World.app w ~host:1 "srv" in
  let client = World.app w ~host:0 "cli" in
  Sched.spawn (World.sched w) ~name:"srv" (fun () ->
      let ep = server.Sockets.udp_bind ~port:9 in
      for _ = 1 to 20 do
        let src, src_port, _ = ep.Sockets.recv_from () in
        ep.Sockets.sendto ~dst:src ~dst_port:src_port (View.of_string "pong")
      done;
      ep.Sockets.udp_close ());
  Sched.block_on (World.sched w) (fun () ->
      let ep = client.Sockets.udp_bind ~port:10 in
      for _ = 1 to 20 do
        ep.Sockets.sendto ~dst:(World.host_ip w 1) ~dst_port:9 (View.of_string "ping");
        ignore (ep.Sockets.recv_from ())
      done;
      ep.Sockets.udp_close ());
  (* The registry saw binding traffic only, none of the 40 datagrams. *)
  let reg = Option.get (World.registry w 1) in
  let reg_stack = Registry.stack reg in
  check "no datagrams at registry" 0
    (Uln_proto.Udp.datagrams_in reg_stack.Uln_proto.Stack.udp)

(* --- connection passing (inetd pattern, paper SS3.2) ------------------- *)

let test_pass_connection_between_apps () =
  let w = userlib_world () in
  let inetd = Option.get (World.library w ~host:1 "inetd") in
  let worker = Option.get (World.library w ~host:1 "worker") in
  let client = World.app w ~host:0 "client" in
  let reg1 = Option.get (World.registry w 1) in
  Sched.spawn (World.sched w) ~name:"inetd" (fun () ->
      let inetd_app = Uln_core.Protolib.app inetd in
      let l = inetd_app.Sockets.listen ~port:23 in
      let conn = l.Sockets.accept () in
      (* Hand the accepted connection to the worker application without
         touching the registry. *)
      let handshakes_before = Registry.handshakes_completed reg1 in
      let conn' = Uln_core.Protolib.pass_connection inetd conn ~to_lib:worker in
      check "no new registry work" handshakes_before (Registry.handshakes_completed reg1);
      check_bool "old handle unusable" true
        (try
           conn.Sockets.send (View.of_string "x");
           false
         with Uln_proto.Tcp.Connection_error _ -> true);
      (* The worker serves the session. *)
      (match conn'.Sockets.recv ~max:64 with
      | Some v -> conn'.Sockets.send (View.of_string ("worker echoes: " ^ View.to_string v))
      | None -> ());
      conn'.Sockets.close ());
  let reply =
    Sched.block_on (World.sched w) (fun () ->
        match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:23 with
        | Error e -> failwith e
        | Ok conn ->
            (* Give the handoff a moment before sending. *)
            Sched.sleep (World.sched w) (Time.ms 100);
            conn.Sockets.send (View.of_string "hello");
            let r = match conn.Sockets.recv ~max:128 with Some v -> View.to_string v | None -> "" in
            conn.Sockets.close ();
            conn.Sockets.await_closed ();
            r)
  in
  Alcotest.(check string) "stream survives the handoff" "worker echoes: hello" reply

let test_pass_connection_requires_ownership () =
  let w = userlib_world () in
  let lib_a = Option.get (World.library w ~host:0 "a") in
  let lib_b = Option.get (World.library w ~host:0 "b") in
  let server = World.app w ~host:1 "server" in
  Sched.spawn (World.sched w) ~name:"server" (fun () ->
      let l = server.Sockets.listen ~port:80 in
      let c = l.Sockets.accept () in
      (match c.Sockets.recv ~max:16 with _ -> ());
      c.Sockets.close ());
  Sched.block_on (World.sched w) (fun () ->
      let a_app = Uln_core.Protolib.app lib_a in
      match a_app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
      | Error e -> failwith e
      | Ok conn ->
          check_bool "foreign library cannot pass it" true
            (try
               ignore (Uln_core.Protolib.pass_connection lib_b conn ~to_lib:lib_a);
               false
             with Failure _ -> true);
          conn.Sockets.close ())

(* A shared-stack host allocates ephemeral ports from 49152-65535:
   more sequential connects than the range holds must all succeed, so
   the allocator has to wrap, and skip the port of the first
   connection, which stays open. *)
let ephemeral_wrap_case (label, org) =
  Alcotest.test_case (label ^ " 16,400 connects") `Quick (fun () ->
      let w =
        World.create ~costs:Uln_host.Costs.zero ~tcp_params:Uln_proto.Tcp_params.fast
          ~network:World.Ethernet ~org ()
      in
      let n = 16_400 in
      let server = World.app w ~host:1 "server" and client = World.app w ~host:0 "client" in
      Sched.spawn (World.sched w) ~name:"server" (fun () ->
          let l = server.Sockets.listen ~port:80 in
          for _ = 1 to n do
            (l.Sockets.accept ()).Sockets.close ()
          done);
      let ok = ref 0 in
      Sched.block_on (World.sched w) (fun () ->
          for i = 1 to n do
            match client.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:80 with
            | Ok c ->
                incr ok;
                if i > 1 then c.Sockets.close ()
            | Error _ -> ()
          done);
      check (label ^ " connects") n !ok)

(* A user-library host hands RRP client ports out of 40001-65535: the
   allocator must wrap once the range is used up, and skip a port a
   server holds. *)
let rrp_world () =
  World.create ~costs:Uln_host.Costs.zero ~network:World.Ethernet
    ~org:Organization.User_library ()

let test_rrp_client_ports_wrap () =
  let w = rrp_world () in
  let app = World.app w ~host:0 "rrp" in
  let n = 25_600 in
  let bound = ref 0 in
  Sched.block_on (World.sched w) (fun () ->
      for _ = 1 to n do
        let cl = Result.get_ok (app.Sockets.rrp_client ()) in
        incr bound;
        cl.Sockets.rrp_client_close ()
      done);
  check "client binds" n !bound

let test_rrp_client_skips_served_port () =
  let w = rrp_world () in
  let app = World.app w ~host:0 "rrp" and peer = World.app w ~host:1 "peer" in
  Sched.block_on (World.sched w) (fun () ->
      let _local = app.Sockets.rrp_serve ~port:40001 (fun r -> r) in
      let _echo = peer.Sockets.rrp_serve ~port:300 (fun r -> r) in
      let cl = Result.get_ok (app.Sockets.rrp_client ()) in
      match cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 (View.of_string "ping") with
      | Ok v -> Alcotest.(check string) "echo" "ping" (View.to_string v)
      | Error e -> Alcotest.fail e)

(* One tenant leasing every port block must not take the registry down:
   another application's ephemeral connect gets the typed
   [Out_of_ports], an explicit port still connects, and a returned
   block makes ephemeral connects work again.  Two CPUs, so the sharded
   registry really runs two residue classes. *)
let lease_hog_case sharded =
  Alcotest.test_case (Printf.sprintf "lease hog, %s registry"
                        (if sharded then "sharded" else "flat")) `Quick (fun () ->
      let w =
        World.create ~costs:Uln_host.Costs.zero ~cpus:2
          ~tcp_params:{ Uln_proto.Tcp_params.default with shard_registry = sharded }
          ~network:World.Ethernet ~org:Organization.User_library ()
      in
      let reg = Option.get (World.registry w 0) in
      let hog = Uln_host.Machine.new_user_domain (World.machine w 0) "hog" in
      let lib = Option.get (World.library w ~host:0 "victim") in
      let server = World.app w ~host:1 "server" in
      Sched.spawn (World.sched w) ~name:"server" (fun () ->
          let l = server.Sockets.listen ~port:80 in
          for _ = 1 to 2 do
            (l.Sockets.accept ()).Sockets.close ()
          done);
      let connect src_port =
        Uln_core.Protolib.connect_q lib ~src_port ~dst:(World.host_ip w 1) ~dst_port:80
      in
      let connects label src_port =
        match connect src_port with
        | Ok c -> c.Sockets.close ()
        | Error e -> Alcotest.failf "%s: %s" label (Registry.error_to_string e)
      in
      Sched.block_on (World.sched w) (fun () ->
          let lease () = Registry.call reg Registry.Lease hog in
          let rec grab held =
            match lease () with
            | Ok g -> grab (g :: held)
            | Error e ->
                check_bool "lease exhaustion is typed" true (e = Registry.Out_of_ports);
                held
          in
          let held = grab [] in
          check "every block leased" (16384 / Uln_core.Calibration.lease_block_ports)
            (List.length held);
          check_bool "ephemeral connect gets Out_of_ports" true
            (match connect 0 with Error Registry.Out_of_ports -> true | _ -> false);
          connects "explicit port" 40000;
          Registry.call reg Registry.Release_lease (List.hd held);
          connects "ephemeral after a release" 0))

(* Shared-stack RRP clients hold their ports until closed: the 16,385th
   client, opened after 16,383 others came and went, must not be given
   the first one's port while it is still open. *)
let test_shared_rrp_ports_held () =
  let w =
    World.create ~costs:Uln_host.Costs.zero ~network:World.Ethernet ~org:Organization.In_kernel ()
  in
  let app = World.app w ~host:0 "rrp" and peer = World.app w ~host:1 "peer" in
  let sched = World.sched w in
  let client () = Result.get_ok (app.Sockets.rrp_client ()) in
  let call cl = cl.Sockets.rrp_call ~dst:(World.host_ip w 1) ~dst_port:300 (View.of_string "q") in
  Sched.block_on sched (fun () ->
      let _echo = peer.Sockets.rrp_serve ~port:300 (fun r -> r) in
      let first = client () in
      for _ = 2 to 16_384 do
        (client ()).Sockets.rrp_client_close ()
      done;
      let last = client () in
      let first_r = ref None in
      Sched.spawn sched ~name:"first" (fun () -> first_r := Some (call first));
      let last_r = call last in
      while Option.is_none !first_r do
        Sched.sleep sched (Time.ms 10)
      done;
      List.iter
        (fun (label, r) -> Result.iter_error (Alcotest.failf "%s client: %s" label) r)
        [ ("first", Option.get !first_r); ("last", last_r) ])

module Port_space = Uln_core.Port_space

let takes sp ~held n = List.init n (fun _ -> Result.get_ok (Port_space.take sp ~held))
let ports = Alcotest.(check (list int))
let none _ = false

let test_port_space_wrap () =
  ports "from [first], wrapping" [ 9; 5; 6; 7; 8; 9 ]
    (takes (Port_space.create ~first:9 ~lo:5 ~hi:9 ()) ~held:none 6)

let test_port_space_skip_held () =
  ports "held ports skipped" [ 5; 8; 9; 5; 8 ]
    (takes (Port_space.create ~lo:5 ~hi:9 ()) ~held:(fun p -> p = 6 || p = 7) 5)

(* With n shards, shard i's class is every port p of 49152-65535 with
   p mod n = i: the classes partition the range, and each wraps to its
   own lowest port. *)
let test_port_space_residue () =
  List.iter
    (fun n ->
      let seen = Hashtbl.create 16384 in
      for i = 0 to n - 1 do
        let sp = Port_space.create ~stride:n ~residue:i ~lo:49152 ~hi:65535 () in
        let got = takes sp ~held:none ((16384 / n) + 1) in
        List.iteri
          (fun k p ->
            check_bool (Printf.sprintf "%d shards: %d in class %d" n p i) true (p mod n = i);
            if k < 16384 / n then Hashtbl.replace seen p ())
          got;
        check (Printf.sprintf "%d shards: class %d wraps" n i) (List.hd got)
          (List.nth got (16384 / n))
      done;
      check (Printf.sprintf "%d shards cover the range" n) 16384 (Hashtbl.length seen))
    [ 1; 2; 4 ]

let test_port_space_exhausted () =
  let sp = Port_space.create ~lo:5 ~hi:9 () in
  ignore (takes sp ~held:none 2);
  check_bool "every port held" true (Port_space.take sp ~held:(fun _ -> true) = Error Exhausted);
  ports "cursor kept" [ 7 ] (takes sp ~held:none 1)

let test_port_space_block () =
  let fragmented = [ 1; 6; 13 ] in
  let block held = Port_space.find_block ~lo:0 ~hi:15 ~size:4 ~held:(fun p -> List.mem p held) in
  check_bool "first block with no held port" true (block fragmented = Ok 8);
  check_bool "no free block" true (block (9 :: fragmented) = Error Exhausted);
  check_bool "a block must fit the range" true
    (Port_space.find_block ~lo:0 ~hi:13 ~size:4 ~held:(fun p -> p < 12) = Error Exhausted)

(* The snapshot reads the same numbers as the typed accessors, at the
   instant the driver takes it: every host's CPUs, network I/O module,
   registry and libraries, every shared stack and its connections, and
   the contended named locks. *)
module Snapshot = Uln_workload.Snapshot
module Jout = Uln_workload.Jout
module Protolib = Uln_core.Protolib
module Tcp = Uln_proto.Tcp

let check_snapshot w rows =
  let value name =
    match List.find_opt (fun r -> List.assoc "name" r = Jout.str name) rows with
    | Some r -> List.assoc "value" r
    | None -> Alcotest.failf "snapshot has no %s" name
  in
  let expect prefix =
    List.iter (fun (k, v) -> Alcotest.(check string) (prefix ^ k) v (value (prefix ^ k)))
  in
  let i k v = (k, Jout.int v) and f k v = (k, Jout.float v) in
  let hist k = List.map (fun (b, n) -> i (Printf.sprintf "%s.%d" k b) n) in
  let sched = World.sched w in
  for h = 0 to World.num_hosts w - 1 do
    let host = Printf.sprintf "host%d." h in
    Array.iteri
      (fun k c ->
        expect (Printf.sprintf "%scpu%d." host k)
          [ i "busy_ns" (Uln_host.Cpu.busy_ns c); i "migrations" (Uln_host.Cpu.migrations c) ])
      (World.machine w h).Uln_host.Machine.cpus;
    Option.iter
      (fun n ->
        expect (host ^ "netio.")
          ([ i "sends_rejected" (Netio.sends_rejected n);
             i "unmatched_drops" (Netio.unmatched_drops n); i "hw_demuxed" (Netio.hw_demuxed n);
             i "sw_demuxed" (Netio.sw_demuxed n); i "migrations" (Netio.migrations n) ]
          @ hist "rx_burst" (Netio.rx_burst_histogram n)))
      (World.netio w h);
    Option.iter
      (fun r ->
        let open Registry in
        let l = setup_legs r and p = pool_stats r and ls = lease_stats r in
        let tw = time_wait_stats r in
        expect (host ^ "registry.")
          ([ i "legs.samples" l.sl_samples; f "legs.port_alloc_us" l.sl_port_alloc_us;
             f "legs.round_trip_us" l.sl_round_trip_us; f "legs.finish_us" l.sl_finish_us;
             f "legs.total_us" l.sl_total_us; i "pool.hits" p.ps_hits;
             i "pool.misses" p.ps_misses; i "pool.parked" p.ps_parked;
             i "lease.granted" ls.ls_granted; i "lease.active" ls.ls_active;
             i "tw.pending" tw.tw_pending; i "tw.parked_total" tw.tw_parked_total;
             i "tw.evicted" tw.tw_evicted; i "tw.capacity" tw.tw_capacity ]
          @ List.concat_map
              (fun s ->
                let t = "tenant." ^ s.ts_principal ^ "." in
                [ i (t ^ "active") s.ts_active; i (t ^ "peak") s.ts_peak;
                  i (t ^ "mem_bytes") s.ts_mem_bytes; i (t ^ "denied") s.ts_denied ])
              (tenant_stats r)
          @ List.concat_map
              (fun s ->
                let t = Printf.sprintf "shard%d." s.ss_shard in
                [ i (t ^ "ports") s.ss_ports; i (t ^ "pending") s.ss_pending;
                  i (t ^ "tw_pending") s.ss_tw_pending;
                  i (t ^ "lock_acquisitions") s.ss_lock_acquisitions;
                  i (t ^ "lock_contended") s.ss_lock_contended ])
              (shard_stats r)))
      (World.registry w h);
    List.iter
      (fun (name, lib) ->
        let open Protolib in
        let rx = rxstats lib and tx = txstats lib and ls = leasestats lib in
        expect (host ^ "netio.")
          [ i "rx_wakeups" rx.rs_wakeups; i "rx_frames" rx.rs_frames;
            i "napi.interrupts" rx.rs_interrupts; i "napi.polls" rx.rs_polls;
            i "napi.polled_frames" rx.rs_polled_frames; i "napi.ring_drops" rx.rs_ring_drops;
            i "ring_overflows" rx.rs_ring_overflows; i "txq.gso_episodes" tx.ts_gso_episodes;
            i "txq.gso_frames" tx.ts_gso_frames ];
        expect (host ^ "lib." ^ name ^ ".")
          ([ i "rx.gro_merged" rx.rs_gro_merged; i "rx.gro_flushes" rx.rs_gro_flushes;
             i "rx.acks_elided" rx.rs_acks_elided; i "tx.gso_sends" tx.ts_gso_sends;
             i "tx.gso_fallbacks" tx.ts_gso_fallbacks; i "tx.pacer_waits" tx.ts_pacer_waits;
             f "tx.pacer_wait_us" tx.ts_pacer_wait_us;
             i "lease.leased_connects" ls.lst_leased_connects;
             i "lease.fallbacks" ls.lst_fallbacks; i "lease.free_ports" ls.lst_free_ports;
             i "lease.free_channels" ls.lst_free_channels ]
          @ hist "tx.pacer_hist" tx.ts_pacer_hist
          @ List.concat
              (List.mapi
                 (fun k s ->
                   let b = Printf.sprintf "conn%d.buf." k in
                   [ i (b ^ "pool_in_use") s.bs_pool_in_use;
                     i (b ^ "pool_exhausted") s.bs_pool_exhausted;
                     i (b ^ "loaned_bytes") s.bs_loaned_bytes;
                     i (b ^ "tx_doorbells") s.bs_tx_doorbells;
                     i (b ^ "tx_batches") s.bs_tx_batches ]
                   @ hist (b ^ "tx_batch_hist") s.bs_tx_batch_hist)
                 (bufstats lib))))
      (World.libraries w h);
    List.iteri
      (fun k s ->
        let tcp = s.Uln_proto.Stack.tcp in
        let stack = Printf.sprintf "%sstack%d." host k in
        expect stack
          [ i "segments_out" (Tcp.segments_out tcp); i "retransmissions" (Tcp.retransmissions tcp) ];
        List.iteri
          (fun j c ->
            let o = Tcp.conn_options c in
            expect (Printf.sprintf "%sconn%d." stack j)
              [ i "snd_scale" o.Tcp.co_snd_scale; i "rexmit.rto" o.Tcp.co_rto_rexmits;
                i "rexmit.fast" o.Tcp.co_fast_rexmits; i "rexmit.sack" o.Tcp.co_sack_rexmits ])
          (Tcp.conns tcp))
      (World.host_stacks w h)
  done;
  let locks = Uln_engine.Semaphore.registered ~sched in
  expect "locks." [ i "named" (List.length locks) ];
  List.iter
    (fun (s : Uln_engine.Semaphore.stats) ->
      if s.s_contended > 0 then
        expect ("locks." ^ s.s_name ^ ".")
          [ i "acquisitions" s.s_acquisitions; i "contended" s.s_contended;
            i "wait_ns" s.s_total_wait_ns; i "max_wait_ns" s.s_max_wait_ns ])
    locks;
  value

(* Run the driver, compare its final snapshot with the accessors, and
   hand back the lookup for the case's own sanity checks. *)
let snapshot_case label conf checks =
  Alcotest.test_case label `Quick (fun () ->
      let seen = ref 0 in
      Snapshot.run conf (fun w rows ->
          incr seen;
          checks (check_snapshot w rows));
      check "one final snapshot" 1 !seen)

let nonzero value name = check_bool (name ^ " nonzero") true (value name <> "0")

let snapshot_cases =
  let preset name = Option.get (Snapshot.preset name) in
  [ snapshot_case "coalesced userlib bulk"
      { Snapshot.default with tcp_params = preset "coalesced"; bytes = 100_000; size = 512 }
      (fun value ->
        nonzero value "host1.lib.srv0.rx.gro_merged";
        Alcotest.(check string) "delivered" "100352" (value "run.delivered_bytes"));
    snapshot_case "+lease churn"
      { Snapshot.default with
        tcp_params = preset "+lease";
        pairs = 2;
        servers = 2;
        conns = 16;
        bytes = 0 }
      (fun value ->
        nonzero value "host0.lib.cli0.lease.leased_connects";
        Alcotest.(check string) "connects" "32" (value "run.connects"));
    snapshot_case "2-CPU inkernel per_conn"
      { Snapshot.default with
        org = Organization.In_kernel;
        network = World.An1;
        tcp_params = preset "per_conn";
        cpus = 2;
        pairs = 2;
        bytes = 200_000;
        size = 8192 }
      (fun value ->
        nonzero value "host1.cpu1.busy_ns";
        Alcotest.(check string) "per-CPU stack locks" "4" (value "locks.named")) ]

(* Every registry leg's IPC charge, pinned.  Each leg is driven once
   from a library pinned to CPU 1 of host 0, so the library's own
   charges and the registry's boot-CPU charges read apart; IPC transfer
   and dispatch are charged on the port's CPU, the boot CPU, so the
   library column reads 0.  Per leg: simulated time elapsed at the
   caller, and the busy time the leg added to each CPU.  The values are
   what the registry with one IPC port per leg produced; they pin every
   leg's request and reply size, including legs no bench row drives (a
   single inherit, a datagram release). *)
let test_registry_leg_charges () =
  let w = World.create ~cpus:2 ~network:World.Ethernet ~org:Organization.User_library () in
  let sched = World.sched w in
  let m = World.machine w 0 in
  let reg = Option.get (World.registry w 0) in
  let dom = Uln_core.Protolib.domain (Option.get (World.library ~cpu:1 w ~host:0 "legs")) in
  let cli = Uln_host.Machine.cpu_at m 1 and boot = Uln_host.Machine.cpu_at m 0 in
  let peer = World.app w ~host:1 "peer" and dialer = World.app w ~host:1 "dialer" in
  let ip1 = World.host_ip w 1 in
  Sched.spawn sched ~name:"peer" (fun () ->
      let l = peer.Sockets.listen ~port:80 in
      for _ = 1 to 3 do
        ignore (l.Sockets.accept ())
      done);
  let rows = ref [] in
  let leg name f =
    let t0 = Sched.now sched in
    let c0 = Uln_host.Cpu.busy_ns cli and r0 = Uln_host.Cpu.busy_ns boot in
    let v = f () in
    rows :=
      ( name,
        Time.diff (Sched.now sched) t0,
        Uln_host.Cpu.busy_ns cli - c0,
        Uln_host.Cpu.busy_ns boot - r0 )
      :: !rows;
    (* Let the leg's background work (handshakes, closes) settle. *)
    Sched.sleep sched (Time.ms 200);
    v
  in
  let ok = function Ok v -> v | Error e -> Alcotest.fail (Registry.error_to_string e) in
  let call leg req = Registry.call reg leg req in
  let connect () =
    ok
      (call Registry.Connect
         { Registry.c_app = dom; c_src_port = 0; c_dst = ip1; c_dst_port = 80 })
  in
  let conn (g : Registry.grant) = (g.Registry.snapshot, g.Registry.channel) in
  Sched.block_on sched (fun () ->
      let g1 = leg "connect" connect in
      leg "listen" (fun () -> ok (call Registry.Listen 7000));
      Sched.spawn sched ~name:"dialer" (fun () ->
          ignore (dialer.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 0) ~dst_port:7000));
      Sched.sleep sched (Time.ms 200);
      let g2 =
        leg "accept" (fun () -> ok (call Registry.Accept { Registry.a_app = dom; a_port = 7000 }))
      in
      let g3 = connect () in
      Sched.sleep sched (Time.ms 200);
      leg "release" (fun () ->
          let snapshot, channel = conn g3 in
          call Registry.Release (snapshot.Uln_proto.Tcp.snap_local_port, channel));
      leg "inherit" (fun () ->
          let snapshot, channel = conn g1 in
          call Registry.Inherit (snapshot, channel, true));
      leg "inherit_batch" (fun () -> call Registry.Inherit_batch ([ conn g2 ], true));
      let lg = leg "lease" (fun () -> ok (call Registry.Lease dom)) in
      leg "release_lease" (fun () -> call Registry.Release_lease lg);
      let ch, port =
        leg "bind_dgram" (fun () -> ok (call Registry.Bind_dgram (dom, Registry.Udp, 5000)))
      in
      leg "release_dgram" (fun () -> call Registry.Release_dgram (Registry.Udp, port, ch));
      ignore (leg "resolve" (fun () -> call Registry.Resolve ip1));
      (* One-way: the registry's share lands after the post returns. *)
      leg "park_tw" (fun () ->
          Registry.post reg Registry.Park_tw [ (ip1, 80, 50000) ];
          Sched.sleep sched (Time.ms 1)));
  (* (leg, elapsed ns, library CPU busy ns, boot CPU busy ns), as the
     registry with one IPC port per leg charged them. *)
  let expected =
    [ ("connect", 11549040, 0, 8786800);
      ("listen", 2203840, 0, 1963840);
      ("accept", 5334560, 0, 5094560);
      ("release", 703840, 0, 463840);
      ("inherit", 1178520, 0, 938520);
      ("inherit_batch", 1165080, 0, 925080);
      ("lease", 16169120, 0, 15929120);
      ("release_lease", 705760, 0, 465760);
      ("bind_dgram", 5419200, 0, 5179200);
      ("release_dgram", 703840, 0, 463840);
      ("resolve", 703840, 0, 463840);
      ("park_tw", 1151920, 0, 231920) ]
  in
  List.iter2
    (fun (name, el, c, r) (name', el', c', r') ->
      Alcotest.(check string) "leg order" name name';
      check (name ^ " elapsed ns") el el';
      check (name ^ " library CPU ns") c c';
      check (name ^ " registry CPU ns") r r')
    expected (List.rev !rows)

(* Each refusal a library can meet is told apart by its constructor,
   not by its message. *)
let test_registry_typed_refusals () =
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library
      ~tcp_params:{ Uln_proto.Tcp_params.default with endpoint_lease = true } ()
  in
  let sched = World.sched w in
  let reg = Option.get (World.registry w 0) in
  let lib = Option.get (World.library w ~host:0 "lib") in
  let dom = Uln_core.Protolib.domain lib in
  let peer = World.app w ~host:1 "peer" in
  Sched.spawn sched ~name:"peer" (fun () ->
      let l = peer.Sockets.listen ~port:80 in
      while true do
        ignore (l.Sockets.accept ())
      done);
  let refused label expect = function
    | Error e when e = expect -> ()
    | Error e -> Alcotest.failf "%s: got %s" label (Registry.error_to_string e)
    | Ok _ -> Alcotest.failf "%s: not refused" label
  in
  let connect src_port =
    Uln_core.Protolib.connect_q lib ~src_port ~dst:(World.host_ip w 1) ~dst_port:80
  in
  Sched.block_on sched (fun () ->
      check_bool "listen" true (Registry.call reg Registry.Listen 7000 = Ok ());
      refused "listen on a held port" (Registry.Port_in_use 7000)
        (Registry.call reg Registry.Listen 7000);
      refused "accept with no listener" (Registry.Not_listening 7001)
        (Registry.call reg Registry.Accept { Registry.a_app = dom; a_port = 7001 });
      refused "connect from a held port" (Registry.Port_in_use 7000) (connect 7000);
      let bind () = Registry.call reg Registry.Bind_dgram (dom, Registry.Udp, 5000) in
      ignore (bind ());
      refused "second datagram bind" (Registry.Port_in_use 5000) (bind ());
      (match connect 0 with
      | Ok c -> c.Sockets.close ()
      | Error e -> Alcotest.fail (Registry.error_to_string e));
      let lease = Option.get (Uln_core.Protolib.lease lib) in
      Netio.revoke_lease (Option.get (World.netio w 0)) ~caller:(Registry.domain reg)
        lease.Registry.lg_lease;
      match connect 0 with
      | Error (Registry.Lease_violation "Netio.activate_leased: lease revoked") -> ()
      | Error e -> Alcotest.failf "leased connect: got %s" (Registry.error_to_string e)
      | Ok _ -> Alcotest.fail "leased connect on a revoked lease succeeded")

let () =
  Alcotest.run "core"
    [ ( "transfer-ethernet",
        List.map (fun o -> transfer_case o World.Ethernet "ethernet") orgs_to_test );
      ( "transfer-an1",
        List.map (fun o -> transfer_case o World.An1 "an1") orgs_to_test );
      ( "userlib",
        [ Alcotest.test_case "registry off data path" `Quick test_registry_off_data_path;
          Alcotest.test_case "two-app isolation" `Quick test_userlib_demux_isolation_two_apps;
          Alcotest.test_case "ports released" `Quick test_ports_released_after_close;
          Alcotest.test_case "an1 hardware demux" `Quick test_an1_uses_hardware_demux;
          Alcotest.test_case "ethernet software demux" `Quick test_ethernet_uses_software_demux;
          Alcotest.test_case "compiled filters" `Quick test_compiled_demux_mode_works;
          Alcotest.test_case "world live words" `Quick test_world_live_words;
          Alcotest.test_case "closed channels leave the lock registry" `Quick
            test_closed_channels_unregister;
          Alcotest.test_case "connects do no verification" `Quick test_connects_do_no_verification;
          Alcotest.test_case "held connection live words" `Quick test_held_connection_words ] );
      ( "protection",
        [ Alcotest.test_case "privileged channel creation" `Quick
            test_channel_creation_requires_privilege;
          Alcotest.test_case "template blocks forging" `Quick test_template_blocks_forged_send;
          Alcotest.test_case "connection stamp refuses impersonation" `Quick
            test_conn_stamp_refuses_impersonation;
          Alcotest.test_case "rx mapping required" `Quick test_rx_pop_requires_mapping ] );
      ( "inheritance",
        [ Alcotest.test_case "graceful exit" `Quick test_graceful_exit_inherits_connection;
          Alcotest.test_case "abnormal exit resets" `Quick test_abnormal_exit_resets_peer ] );
      ("udp", List.map udp_roundtrip_case orgs_to_test
              @ [ Alcotest.test_case "userlib port collision" `Quick
                    test_udp_userlib_port_collision;
                  Alcotest.test_case "userlib bypasses registry" `Quick
                    test_udp_userlib_bypasses_registry;
                  Alcotest.test_case "udp and rrp share a port number" `Quick
                    test_udp_rrp_share_port_number;
                  Alcotest.test_case "rrp server rebinds after stop" `Quick
                    test_rrp_server_rebinds_after_stop;
                  Alcotest.test_case "datagram close is idempotent" `Quick
                    test_dgram_double_close;
                  Alcotest.test_case "datagrams under rx_coalesce" `Quick
                    test_dgram_coalesced ]);
      ( "handoff",
        [ Alcotest.test_case "pass between apps" `Quick test_pass_connection_between_apps;
          Alcotest.test_case "requires ownership" `Quick test_pass_connection_requires_ownership ] );
      ( "figures",
        [ Alcotest.test_case "descriptions" `Quick test_organization_descriptions ] );
      ( "ephemeral",
        List.map ephemeral_wrap_case
          (List.filter (fun (_, o) -> o <> Organization.User_library) orgs_to_test)
        @ [ Alcotest.test_case "userlib rrp 25,600 binds" `Quick test_rrp_client_ports_wrap;
            Alcotest.test_case "userlib rrp skips a served port" `Quick
              test_rrp_client_skips_served_port;
            lease_hog_case false;
            lease_hog_case true;
            Alcotest.test_case "inkernel rrp 16,385 clients" `Quick test_shared_rrp_ports_held;
            Alcotest.test_case "port space wraps" `Quick test_port_space_wrap;
            Alcotest.test_case "port space skips held" `Quick test_port_space_skip_held;
            Alcotest.test_case "port space residue classes" `Quick test_port_space_residue;
            Alcotest.test_case "port space exhausted" `Quick test_port_space_exhausted;
            Alcotest.test_case "port space first-fit block" `Quick test_port_space_block ] );
      ("snapshot", snapshot_cases);
      ( "registry",
        [ Alcotest.test_case "leg charges" `Quick test_registry_leg_charges;
          Alcotest.test_case "typed refusals" `Quick test_registry_typed_refusals ] ) ]
