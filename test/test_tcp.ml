open Tutil
module Tcp_state = Uln_proto.Tcp_state
module Rng = Uln_engine.Rng

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_s = Alcotest.(check string)

(* Spawn a server thread that accepts one connection and runs [f]. *)
let with_server w ~port f =
  Sched.spawn w.sched ~name:"server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port in
      let conn, _ = Tcp.accept l in
      f conn)

let connect_a w ~port =
  match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:port with
  | Ok (c, _) -> c
  | Error e -> failwith ("connect failed: " ^ e)

(* --- handshake ---------------------------------------------------------- *)

let test_handshake () =
  let w = make_world () in
  with_server w ~port:80 (fun conn ->
      check_bool "server established" true (Tcp.state conn = Tcp_state.Established));
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      check_bool "client established" true (Tcp.state c = Tcp_state.Established);
      check "client port" 5000 (Tcp.local_port c);
      let ip, port = Tcp.remote_addr c in
      check_bool "remote ip" true (Ip.equal ip w.b.ip);
      check "remote port" 80 port;
      Tcp.abort c)

let test_mss_negotiated () =
  let w = make_world () in
  with_server w ~port:80 (fun _ -> ());
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      (* Ethernet MTU 1500 - 40 bytes of headers. *)
      check "mss" 1460 (Tcp.mss c);
      Tcp.abort c)

let test_connect_refused () =
  let w = make_world () in
  let r =
    run_to_completion w (fun () ->
        Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:81)
  in
  check_bool "refused" true (match r with Error _ -> true | Ok _ -> false)

let test_connect_timeout_when_peer_dead () =
  let w = make_world () in
  (* Point at a nonexistent host: ARP fails, SYN can never be delivered. *)
  let r =
    run_to_completion w (fun () ->
        Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:(Ip.of_string "10.0.0.99")
          ~dst_port:80)
  in
  check_bool "timed out" true (match r with Error _ -> true | Ok _ -> false)

(* --- data transfer -------------------------------------------------------- *)

let test_small_transfer () =
  let w = make_world () in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_exactly conn 11;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string "hello world");
      Tcp.close c;
      Tcp.await_closed c);
  check_s "payload" "hello world" !received

let test_bulk_transfer_integrity () =
  let w = make_world () in
  let n = 200_000 in
  let data = pattern n in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string data);
      Tcp.close c;
      Tcp.await_closed c);
  check "length" n (String.length !received);
  check_bool "content" true (String.equal data !received)

let test_bidirectional_transfer () =
  let w = make_world () in
  let server_got = ref "" in
  with_server w ~port:80 (fun conn ->
      server_got := read_exactly conn 4;
      Tcp.write conn (View.of_string "pong");
      Tcp.close conn);
  let client_got =
    run_to_completion w (fun () ->
        let c = connect_a w ~port:80 in
        Tcp.write c (View.of_string "ping");
        let answer = read_exactly c 4 in
        Tcp.close c;
        Tcp.await_closed c;
        answer)
  in
  check_s "server" "ping" !server_got;
  check_s "client" "pong" client_got

let test_many_small_writes () =
  let w = make_world () in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      for i = 0 to 99 do
        Tcp.write c (View.of_string (Printf.sprintf "%04d" i))
      done;
      Tcp.close c;
      Tcp.await_closed c);
  check "total" 400 (String.length !received);
  check_s "first" "0000" (String.sub !received 0 4);
  check_s "last" "0099" (String.sub !received 396 4)

(* --- close semantics -------------------------------------------------------- *)

let test_eof_after_fin () =
  let w = make_world () in
  let got_eof = ref false in
  with_server w ~port:80 (fun conn ->
      (match Tcp.read conn ~max:100 with
      | Some _ -> ()
      | None -> got_eof := true);
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.close c;
      Tcp.await_closed c);
  check_bool "eof" true !got_eof

let test_half_close_allows_peer_writes () =
  (* Client closes its direction, then still reads the server's data. *)
  let w = make_world () in
  with_server w ~port:80 (fun conn ->
      (* Server sees EOF, then responds. *)
      (match Tcp.read conn ~max:10 with None -> () | Some _ -> Alcotest.fail "expected EOF");
      Tcp.write conn (View.of_string "late data");
      Tcp.close conn);
  let got =
    run_to_completion w (fun () ->
        let c = connect_a w ~port:80 in
        Tcp.close c;
        let s = read_all c in
        Tcp.await_closed c;
        s)
  in
  check_s "received after half close" "late data" got

let test_time_wait_entered_by_active_closer () =
  let w = make_world () in
  with_server w ~port:80 (fun conn ->
      (match Tcp.read conn ~max:10 with None -> () | Some _ -> ());
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.close c;
      (* Wait until our FIN is acked and the peer's FIN arrives. *)
      Sched.sleep w.sched (Time.ms 500);
      check_bool "in TIME_WAIT" true (Tcp.state c = Tcp_state.Time_wait);
      Tcp.await_closed c;
      check_bool "finally closed" true (Tcp.state c = Tcp_state.Closed))

let test_abort_sends_rst () =
  let w = make_world () in
  let server_err = ref None in
  with_server w ~port:80 (fun conn ->
      (try ignore (Tcp.read conn ~max:10) with Tcp.Connection_error e -> server_err := Some e);
      ());
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Sched.sleep w.sched (Time.ms 50);
      Tcp.abort c;
      Sched.sleep w.sched (Time.ms 200));
  check_bool "server saw reset" true (!server_err <> None)

(* --- loss recovery ------------------------------------------------------------ *)

let lossy_world drop =
  let rng = Rng.create ~seed:99 in
  make_world ~fault:(Fault.create ~rng ~drop ()) ()

let test_transfer_survives_loss () =
  let w = lossy_world 0.05 in
  let n = 60_000 in
  let data = pattern n in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string data);
      Tcp.close c;
      Tcp.await_closed c);
  check "length" n (String.length !received);
  check_bool "content" true (String.equal data !received);
  check_bool "retransmissions happened" true
    (Uln_proto.Tcp.retransmissions w.a.stack.Stack.tcp > 0)

(* conn_options splits the sender's retransmissions by cause; on a
   single-connection engine the causes sum to the engine's count. *)
let test_retransmit_causes () =
  let tcp_params = { Tcp_params.fast with Tcp_params.sack = true } in
  let fault = Fault.create ~rng:(Rng.create ~seed:99) ~drop:0.05 () in
  let w = make_world ~tcp_params ~fault () in
  with_server w ~port:80 (fun conn ->
      ignore (read_all conn);
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string (pattern 200_000));
      Tcp.await_drained c;
      let o = Tcp.conn_options c in
      let total = Tcp.retransmissions w.a.stack.Stack.tcp in
      check_bool "losses repaired" true (total > 0);
      check "rto + fast + sack = engine count" total
        (o.Tcp.co_rto_rexmits + o.Tcp.co_fast_rexmits + o.Tcp.co_sack_rexmits);
      Tcp.close c;
      Tcp.await_closed c)

(* After a retransmit timeout rewinds [snd_nxt], a pure ACK must still
   carry the highest sequence the sender has used: one that falls left
   of the peer's window is dropped unread and answered with another ACK,
   and two rewound ends then trade ACKs forever.  Both ends send over a
   link that drops 30% of frames, so both time out and rewind, and the
   link tap checks every pure ACK on the wire against the highest
   sequence its sender had put there (12 fall behind without the fix). *)
let test_pure_ack_carries_snd_max () =
  let w = lossy_world 0.3 in
  let n = 40_000 in
  let highest = Hashtbl.create 2 in
  let pure_acks = ref 0 and behind = ref 0 in
  Link.set_monitor w.link (fun _ fr ->
      if fr.Frame.ethertype = Frame.ethertype_ip && Mbuf.length fr.Frame.payload >= 40 then begin
        let ip = Mbuf.flatten fr.Frame.payload in
        if View.get_uint8 ip 9 = 6 then begin
          let port = View.get_uint16 ip 20 in
          let seq = Int32.to_int (View.get_uint32 ip 24) land 0xFFFFFFFF in
          let flags = View.get_uint8 ip 33 in
          let len =
            View.get_uint16 ip 2 - 20 - (4 * (View.get_uint8 ip 32 lsr 4))
            + (flags land 1) + ((flags lsr 1) land 1)
          in
          let after a b = let d = (a - b) land 0xFFFFFFFF in d > 0 && d < 0x80000000 in
          let fin = (seq + len) land 0xFFFFFFFF in
          (match Hashtbl.find_opt highest port with
          | Some h when flags = 0x10 && len = 0 ->
              incr pure_acks;
              if after h seq then incr behind
          | _ -> ());
          match Hashtbl.find_opt highest port with
          | Some h when not (after fin h) -> ()
          | _ -> Hashtbl.replace highest port fin
        end
      end);
  let server_got = ref "" in
  with_server w ~port:80 (fun conn ->
      Sched.spawn w.sched ~name:"server-tx" (fun () -> Tcp.write conn (View.of_string (pattern n)));
      server_got := read_all conn;
      Tcp.close conn);
  let client_got =
    run_to_completion w (fun () ->
        let c = connect_a w ~port:80 in
        Sched.spawn w.sched ~name:"client-tx" (fun () ->
            Tcp.write c (View.of_string (pattern n));
            Tcp.close c);
        let got = read_all c in
        Tcp.await_closed c;
        got)
  in
  check_bool "server received the stream" true (String.equal (pattern n) !server_got);
  check_bool "client received the stream" true (String.equal (pattern n) client_got);
  check_bool "both ends retransmitted" true
    (Tcp.retransmissions w.a.stack.Stack.tcp > 0 && Tcp.retransmissions w.b.stack.Stack.tcp > 0);
  check_bool "pure ACKs on the wire" true (!pure_acks > 0);
  check "pure ACKs behind the sender's highest sequence" 0 !behind

let test_transfer_survives_heavy_loss () =
  let w = lossy_world 0.15 in
  let n = 20_000 in
  let data = pattern n in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string data);
      Tcp.close c;
      Tcp.await_closed c);
  check_bool "content" true (String.equal data !received)

let test_transfer_survives_corruption () =
  let rng = Rng.create ~seed:7 in
  let w = make_world ~fault:(Fault.create ~rng ~corrupt:0.05 ()) () in
  let n = 40_000 in
  let data = pattern n in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string data);
      Tcp.close c;
      Tcp.await_closed c);
  check_bool "content survives corruption" true (String.equal data !received)

let test_transfer_survives_reordering_and_dup () =
  let rng = Rng.create ~seed:13 in
  let w = make_world ~fault:(Fault.create ~rng ~reorder:0.1 ~duplicate:0.05 ()) () in
  let n = 40_000 in
  let data = pattern n in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string data);
      Tcp.close c;
      Tcp.await_closed c);
  check_bool "content survives reorder+dup" true (String.equal data !received)

let prop_transfer_random_loss_seeds =
  QCheck.Test.make ~name:"bulk transfer correct under random loss seeds" ~count:15
    QCheck.(pair (1 -- 10000) (1 -- 8))
    (fun (seed, loss_pct) ->
      let rng = Rng.create ~seed in
      let w =
        make_world ~fault:(Fault.create ~rng ~drop:(float_of_int loss_pct /. 100.) ()) ()
      in
      let n = 15_000 in
      let data = pattern n in
      let received = ref "" in
      with_server w ~port:80 (fun conn ->
          received := read_all conn;
          Tcp.close conn);
      run_to_completion w (fun () ->
          let c = connect_a w ~port:80 in
          Tcp.write c (View.of_string data);
          Tcp.close c;
          Tcp.await_closed c);
      String.equal data !received)

(* --- flow control ---------------------------------------------------------------- *)

let test_slow_reader_flow_control () =
  (* Receiver drains slowly: sender must not overrun the 16 KB receive
     buffer; zero-window persist must eventually resume the flow. *)
  let w = make_world () in
  let n = 100_000 in
  let data = pattern n in
  let received = Buffer.create n in
  with_server w ~port:80 (fun conn ->
      let rec go () =
        Sched.sleep w.sched (Time.ms 50);
        match Tcp.read conn ~max:2048 with
        | None -> ()
        | Some v ->
            Buffer.add_string received (View.to_string v);
            go ()
      in
      go ();
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string data);
      Tcp.close c;
      Tcp.await_closed c);
  check "all delivered" n (Buffer.length received);
  check_bool "in order" true (String.equal data (Buffer.contents received))

let test_congestion_window_grows () =
  let w = make_world () in
  with_server w ~port:80 (fun conn ->
      let rec drain () = match Tcp.read conn ~max:65536 with None -> () | Some _ -> drain () in
      drain ();
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      let initial = Tcp.cwnd c in
      Tcp.write c (View.of_string (pattern 50_000));
      check_bool "cwnd grew" true (Tcp.cwnd c > initial);
      Tcp.close c;
      Tcp.await_closed c)

let test_srtt_estimated () =
  let w = make_world () in
  with_server w ~port:80 (fun conn ->
      let rec drain () = match Tcp.read conn ~max:65536 with None -> () | Some _ -> drain () in
      drain ();
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string (pattern 30_000));
      Sched.sleep w.sched (Time.sec 1);
      check_bool "srtt positive" true (Tcp.srtt_us c > 0.);
      Tcp.close c;
      Tcp.await_closed c)

(* --- handoff (registry-style) ------------------------------------------------------ *)

let test_export_import_preserves_stream () =
  (* Connect with one engine, hand the established connection to a second
     engine on the same stack...  here we re-import into the same engine,
     which exercises the detach/adopt path the registry uses. *)
  let w = make_world () in
  let received = ref "" in
  with_server w ~port:80 (fun conn ->
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      let snap = Tcp.export c ~witness:(Option.get (Tcp.established_witness c)) in
      check_bool "old conn unusable" true
        (try
           Tcp.write c (View.of_string "x");
           false
         with Tcp.Connection_error _ -> true);
      let c2 = Tcp.import w.a.stack.Stack.tcp snap in
      Tcp.write c2 (View.of_string "via imported connection");
      Tcp.close c2;
      Tcp.await_closed c2);
  check_s "stream continues" "via imported connection" !received

(* The handoff keeps what the handshake negotiated: window scale, SACK,
   timestamps and the estimator travel with the connection. *)
let test_export_import_keeps_options () =
  let tcp_params =
    { Tcp_params.fast with
      Tcp_params.window_scale = true;
      timestamps = true;
      sack = true;
      rcv_buf = 1 lsl 20;
      snd_buf = 1 lsl 20 }
  in
  let w = make_world ~tcp_params () in
  with_server w ~port:80 (fun conn ->
      ignore (read_all conn);
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      Tcp.write c (View.of_string (pattern 20_000));
      Tcp.await_drained c;
      let before = Tcp.conn_options c in
      check_bool "options negotiated" true
        (before.Tcp.co_snd_scale > 0 && before.Tcp.co_sack && before.Tcp.co_timestamps);
      let snap = Tcp.export c ~witness:(Option.get (Tcp.established_witness c)) in
      let c2 = Tcp.import w.a.stack.Stack.tcp snap in
      check_bool "conn_options survive the handoff" true (Tcp.conn_options c2 = before);
      Tcp.close c2;
      Tcp.await_closed c2)

let test_export_requires_established () =
  let w = make_world () in
  with_server w ~port:80 (fun conn ->
      (match Tcp.read conn ~max:10 with None -> () | Some _ -> ());
      Tcp.close conn);
  run_to_completion w (fun () ->
      match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
      | Error e -> failwith e
      | Ok (c, witness) ->
          Tcp.close c;
          Tcp.await_closed c;
          check_bool "no fresh witness after close" true
            (Option.is_none (Tcp.established_witness c));
          (* The stale witness from connect time is refused by the
             dynamic backstop: the connection is no longer ESTABLISHED. *)
          check_bool "export after close fails" true
            (try
               ignore (Tcp.export c ~witness);
               false
             with Failure _ -> true))

(* --- Rtt_est arithmetic ------------------------------------------------------------ *)

module Rtt_est = Uln_proto.Rtt_est
module Tcp_wire = Uln_proto.Tcp_wire

let check_f = Alcotest.(check (float 0.))
let at_ms ms = Time.add Time.zero (Time.ms ms)

let test_rtt_gains () =
  let prm = Tcp_params.default in
  let r = Rtt_est.create prm in
  Rtt_est.sample r prm 400_000.;
  check_f "first srtt = s" 400_000. r.Rtt_est.srtt_us;
  check_f "first rttvar = s/2" 200_000. r.Rtt_est.rttvar_us;
  Rtt_est.sample r prm 800_000.;
  check_f "srtt gain 1/8" 450_000. r.Rtt_est.srtt_us;
  check_f "rttvar gain 1/4" 250_000. r.Rtt_est.rttvar_us;
  check "rto = srtt + 4 rttvar" (Time.us 1_450_000) r.Rtt_est.rto

let test_rtt_clamp () =
  let prm = Tcp_params.default in
  let r = Rtt_est.create prm in
  Rtt_est.sample r prm 1.;
  check "clamped to min_rto" prm.Tcp_params.min_rto r.Rtt_est.rto;
  let r = Rtt_est.create prm in
  Rtt_est.sample r prm 1e9;
  check "clamped to max_rto" prm.Tcp_params.max_rto r.Rtt_est.rto

let test_rtt_backoff () =
  let prm = { Tcp_params.default with Tcp_params.max_rto = Time.sec 1000 } in
  let r = Rtt_est.create prm in
  Rtt_est.sample r prm 400_000.;
  let rto = r.Rtt_est.rto in
  check "no backoff" rto (Rtt_est.rexmt_delay r prm);
  for k = 1 to 8 do
    check_bool "timer retries" true (Rtt_est.timed_out r);
    check (Printf.sprintf "backoff %d" k)
      (Time.span_scale rto (1 lsl Stdlib.min k 6))
      (Rtt_est.rexmt_delay r prm)
  done;
  check "capped at max_rto" (Time.sec 2)
    (Rtt_est.rexmt_delay r { prm with Tcp_params.max_rto = Time.sec 2 });
  Rtt_est.sample r prm 400_000.;
  check "a sample ends the backoff" r.Rtt_est.rto (Rtt_est.rexmt_delay r prm)

let test_rtt_karn () =
  let prm = Tcp_params.default in
  let timed ~retransmit =
    let r = Rtt_est.create prm in
    Rtt_est.sent r ~seq:1000 ~snd_max:1000 ~now:(at_ms 0);
    if retransmit then Rtt_est.retransmitted r;
    Rtt_est.acked r prm ~ack:2000 ~ts:None ~now:(at_ms 30);
    r.Rtt_est.srtt_us
  in
  check_f "timed segment sampled" 30_000. (timed ~retransmit:false);
  check_f "Karn: no sample after a retransmit" 0. (timed ~retransmit:true)

let test_rtt_tsecr () =
  let prm = { Tcp_params.default with Tcp_params.timestamps = true } in
  let r = Rtt_est.create prm in
  Rtt_est.negotiate r prm (Some (7, 0));
  check_bool "negotiated" true r.Rtt_est.ts_ok;
  (* No single timer runs: every echo is a sample. *)
  Rtt_est.acked r prm ~ack:2000 ~ts:(Some (8, 960)) ~now:(at_ms 1000);
  check_f "first echo" 40_000. r.Rtt_est.srtt_us;
  Rtt_est.acked r prm ~ack:3000 ~ts:(Some (9, 1920)) ~now:(at_ms 2000);
  check_f "second echo" 45_000. r.Rtt_est.srtt_us

let test_rtt_paws () =
  let prm = { Tcp_params.default with Tcp_params.timestamps = true } in
  let r = Rtt_est.create prm in
  Rtt_est.negotiate r prm (Some (100, 0));
  let seg tsval =
    { Tcp_wire.src_port = 1;
      dst_port = 2;
      seq = 500;
      ack = 0;
      flags = { Tcp_wire.no_flags with Tcp_wire.ack = true };
      wnd = 0;
      opts = { Tcp_wire.no_opts with Tcp_wire.ts = Some (tsval, 0) };
      payload = Mbuf.empty }
  in
  check_bool "older TSval rejected" false (Rtt_est.admit r (seg 90) ~rcv_nxt:500);
  check "ts_recent kept" 100 r.Rtt_est.ts_recent;
  check_bool "newer TSval admitted" true (Rtt_est.admit r (seg 110) ~rcv_nxt:500);
  check "ts_recent advanced" 110 r.Rtt_est.ts_recent

(* --- multiple connections ------------------------------------------------------------ *)

let test_concurrent_connections () =
  let w = make_world () in
  let results = Hashtbl.create 8 in
  Sched.spawn w.sched ~name:"multi-server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port:80 in
      for _ = 1 to 4 do
        let conn, _ = Tcp.accept l in
        Sched.spawn w.sched ~name:"conn-server" (fun () ->
            let data = read_all conn in
            Hashtbl.replace results data true;
            Tcp.close conn)
      done);
  run_to_completion w (fun () ->
      let conns =
        List.map
          (fun i ->
            match
              Tcp.connect w.a.stack.Stack.tcp ~src_port:(6000 + i) ~dst:w.b.ip ~dst_port:80
            with
            | Ok (c, _) -> (i, c)
            | Error e -> failwith e)
          [ 1; 2; 3; 4 ]
      in
      List.iter
        (fun (i, c) ->
          Tcp.write c (View.of_string (Printf.sprintf "conn-%d" i));
          Tcp.close c)
        conns;
      List.iter (fun (_, c) -> Tcp.await_closed c) conns);
  check "all streams delivered" 4 (Hashtbl.length results);
  check_bool "conn-3 present" true (Hashtbl.mem results "conn-3")

let test_port_collision_rejected () =
  let w = make_world () in
  with_server w ~port:80 (fun conn -> Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      let second = Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 in
      check_bool "same 4-tuple rejected" true
        (match second with Error "address in use" -> true | _ -> false);
      Tcp.abort c)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run ~and_exit:false "tcp"
    [ ( "handshake",
        [ Alcotest.test_case "three-way" `Quick test_handshake;
          Alcotest.test_case "mss negotiation" `Quick test_mss_negotiated;
          Alcotest.test_case "refused" `Quick test_connect_refused;
          Alcotest.test_case "dead peer" `Quick test_connect_timeout_when_peer_dead ] );
      ( "transfer",
        [ Alcotest.test_case "small" `Quick test_small_transfer;
          Alcotest.test_case "bulk 200k" `Quick test_bulk_transfer_integrity;
          Alcotest.test_case "bidirectional" `Quick test_bidirectional_transfer;
          Alcotest.test_case "many small writes" `Quick test_many_small_writes ] );
      ( "close",
        [ Alcotest.test_case "eof after fin" `Quick test_eof_after_fin;
          Alcotest.test_case "half close" `Quick test_half_close_allows_peer_writes;
          Alcotest.test_case "time_wait" `Quick test_time_wait_entered_by_active_closer;
          Alcotest.test_case "abort/rst" `Quick test_abort_sends_rst ] );
      ( "loss",
        [ Alcotest.test_case "5% drop" `Quick test_transfer_survives_loss;
          Alcotest.test_case "15% drop" `Quick test_transfer_survives_heavy_loss;
          Alcotest.test_case "corruption" `Quick test_transfer_survives_corruption;
          Alcotest.test_case "reorder+dup" `Quick test_transfer_survives_reordering_and_dup;
          Alcotest.test_case "retransmits split by cause" `Quick test_retransmit_causes;
          Alcotest.test_case "pure ACK carries snd_max" `Quick test_pure_ack_carries_snd_max;
          qc prop_transfer_random_loss_seeds ] );
      ( "flow",
        [ Alcotest.test_case "slow reader" `Quick test_slow_reader_flow_control;
          Alcotest.test_case "cwnd grows" `Quick test_congestion_window_grows;
          Alcotest.test_case "srtt estimated" `Quick test_srtt_estimated ] );
      ( "handoff",
        [ Alcotest.test_case "export/import" `Quick test_export_import_preserves_stream;
          Alcotest.test_case "export requires established" `Quick test_export_requires_established;
          Alcotest.test_case "export/import keeps options" `Quick test_export_import_keeps_options ] );
      ( "rtt-est",
        [ Alcotest.test_case "first sample, then gains 1/8 and 1/4" `Quick test_rtt_gains;
          Alcotest.test_case "rto clamped to min/max" `Quick test_rtt_clamp;
          Alcotest.test_case "backoff doubles to 2^6, capped" `Quick test_rtt_backoff;
          Alcotest.test_case "Karn: no sample after retransmit" `Quick test_rtt_karn;
          Alcotest.test_case "TSecr samples every ACK" `Quick test_rtt_tsecr;
          Alcotest.test_case "PAWS rejects an older TSval" `Quick test_rtt_paws ] );
      ( "multi",
        [ Alcotest.test_case "concurrent connections" `Quick test_concurrent_connections;
          Alcotest.test_case "port collision" `Quick test_port_collision_rejected ] ) ]

(* --- keepalive (appended suite) ------------------------------------------ *)

let keepalive_params =
  { Uln_proto.Tcp_params.fast with
    Uln_proto.Tcp_params.keepalive = Some (Time.sec 2);
    keepalive_interval = Time.ms 500;
    keepalive_probes = 3 }

let test_keepalive_drops_dead_peer () =
  let w = make_world ~tcp_params:keepalive_params () in
  let server_err = ref None in
  with_server w ~port:80 (fun conn ->
      (* Hold the connection open; the peer will silently vanish. *)
      try ignore (Tcp.read conn ~max:10)
      with Tcp.Connection_error e -> server_err := Some e);
  Sched.spawn w.sched ~name:"vanishing-client" (fun () ->
      match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
      | Error e -> failwith e
      | Ok (c, witness) ->
          (* Detach without telling anyone: the peer sees pure silence.
             Suppress RSTs for probes to the now-unknown connection. *)
          Tcp.set_rst_on_unknown w.a.stack.Stack.tcp false;
          ignore (Tcp.export c ~witness));
  Sched.run w.sched;
  match !server_err with
  | Some e -> check_bool "keepalive detected death" true (e = "keepalive timeout")
  | None -> Alcotest.fail "server never noticed the dead peer"

let test_keepalive_spares_live_peer () =
  let w = make_world ~tcp_params:keepalive_params () in
  let outcome = ref `Pending in
  with_server w ~port:80 (fun conn ->
      (match Tcp.read conn ~max:10 with
      | Some _ -> outcome := `Data
      | None -> outcome := `Eof
      | exception Tcp.Connection_error _ -> outcome := `Err);
      Tcp.close conn);
  run_to_completion w (fun () ->
      let c = connect_a w ~port:80 in
      (* Stay idle well past several keepalive rounds, then speak. *)
      Sched.sleep w.sched (Time.sec 8);
      check_bool "still established through idleness" true
        (Tcp.state c = Uln_proto.Tcp_state.Established);
      Tcp.write c (View.of_string "still here");
      Tcp.close c;
      Tcp.await_closed c);
  check_bool "data delivered after long idle" true (!outcome = `Data)

let () =
  Alcotest.run ~and_exit:false "tcp-keepalive"
    [ ( "keepalive",
        [ Alcotest.test_case "drops dead peer" `Quick test_keepalive_drops_dead_peer;
          Alcotest.test_case "spares live peer" `Quick test_keepalive_spares_live_peer ] ) ]
