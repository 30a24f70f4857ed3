(* Differential tests for the data-path fast paths: each optimisation
   (flow-cache demux, fused copy+checksum, zero-copy) is checked against
   its slow path — the linear scan, the byte-at-a-time checksum, the
   copying data path — over randomized inputs.  The
   fast paths must be behaviourally invisible.  The TCP input path has
   no fast path; it is checked against the payload it must deliver. *)

open Tutil
module Rng = Uln_engine.Rng
module Bytequeue = Uln_buf.Bytequeue
module F = Uln_filter
module Checksum = Uln_proto.Checksum
module Tcp_wire = Uln_proto.Tcp_wire
module Fault = Uln_net.Fault
module E = Uln_workload.Experiments

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let random_view rng len =
  let v = View.create len in
  for i = 0 to len - 1 do
    View.set_uint8 v i (Rng.int rng 256)
  done;
  v

(* --- fused / word-at-a-time checksum vs byte-at-a-time reference ------- *)

let prop_of_view_matches_reference =
  QCheck.Test.make ~name:"word-at-a-time of_view = byte reference (incl. odd lengths)"
    ~count:200
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let v = random_view rng (Rng.int rng 601) in
      let init = Rng.int rng 0x10000 in
      Checksum.of_view ~init v = Checksum.reference_of_view ~init v)

let prop_of_mbuf_matches_reference =
  QCheck.Test.make ~name:"of_mbuf = byte reference across odd-length segments" ~count:200
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let nsegs = 1 + Rng.int rng 5 in
      let m = ref Mbuf.empty in
      for _ = 1 to nsegs do
        m := Mbuf.append !m (random_view rng (Rng.int rng 71))
      done;
      Checksum.of_mbuf !m = Checksum.reference_of_mbuf !m)

let prop_blit_sum =
  QCheck.Test.make ~name:"blit_sum copies exactly and sums like the reference" ~count:200
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let len = Rng.int rng 301 in
      let src = random_view rng len in
      let dst = View.create len in
      let sum = View.blit_sum src 0 dst 0 len in
      String.equal (View.to_string src) (View.to_string dst)
      && Checksum.finish sum = Checksum.reference_of_view src)

let prop_peek_sum =
  QCheck.Test.make ~name:"Bytequeue.peek_sum = peek + separate sum" ~count:200
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let q = Bytequeue.create () in
      for _ = 1 to 1 + Rng.int rng 4 do
        Bytequeue.push q (random_view rng (Rng.int rng 200))
      done;
      (* Move the head so the fused read starts mid-buffer sometimes. *)
      Bytequeue.drop q (Rng.int rng (1 + Bytequeue.length q));
      let avail = Bytequeue.length q in
      let off = Rng.int rng (avail + 1) in
      let len = Rng.int rng (avail - off + 1) in
      let fused, sum = Bytequeue.peek_sum q ~off ~len in
      let plain = Bytequeue.peek q ~off ~len in
      String.equal (View.to_string fused) (View.to_string plain)
      && Checksum.finish sum = Checksum.reference_of_view plain)

let prop_encode_with_payload_sum =
  QCheck.Test.make ~name:"Tcp_wire.encode ?payload_sum = plain encode" ~count:100
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let payload = random_view rng (Rng.int rng 400) in
      let seg =
        { Tcp_wire.src_port = Rng.int rng 0x10000;
          dst_port = Rng.int rng 0x10000;
          seq = Rng.int rng 0x10000000;
          ack = Rng.int rng 0x10000000;
          flags = { Tcp_wire.no_flags with Tcp_wire.ack = true; psh = Rng.bool rng };
          wnd = Rng.int rng 0x10000;
          opts =
                  (if Rng.bool rng then Tcp_wire.opts_mss (Rng.int rng 0x10000)
                   else Tcp_wire.no_opts);
          payload = Mbuf.of_view payload }
      in
      let src_ip = Ip.make 10 0 0 1 and dst_ip = Ip.make 10 0 0 2 in
      let psum = View.sum16 payload 0 (View.length payload) in
      let fused = Tcp_wire.encode ~payload_sum:psum ~src_ip ~dst_ip seg in
      let plain = Tcp_wire.encode ~src_ip ~dst_ip seg in
      String.equal (Mbuf.to_string fused) (Mbuf.to_string plain)
      && Tcp_wire.decode ~src_ip ~dst_ip fused <> None)

(* --- flow-cache demux vs linear scan ----------------------------------- *)

let tcp_pkt ?(len = 54) ~src_ip ~dst_ip ~src_port ~dst_port () =
  let v = View.create len in
  if len > 13 then View.set_uint16 v 12 0x0800;
  if len > 23 then View.set_uint8 v 23 6;
  if len > 29 then View.set_uint32 v 26 (Ip.to_int32 src_ip);
  if len > 33 then View.set_uint32 v 30 (Ip.to_int32 dst_ip);
  if len > 35 then View.set_uint16 v 34 src_port;
  if len > 37 then View.set_uint16 v 36 dst_port;
  v

let prop_cache_matches_scan =
  (* Two tables built by the same random install/remove sequence, one
     with the flow cache: every dispatch must name the same endpoint. *)
  QCheck.Test.make ~name:"flow-cache dispatch = linear scan over random tables" ~count:50
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let scan_t = F.Demux.create ~mode:F.Demux.Interpreted () in
      let cache_t = F.Demux.create ~mode:F.Demux.Interpreted ~flow_cache:true () in
      let ip i = Ip.make 10 0 0 (1 + (i land 0xf)) in
      let random_prog () =
        match Rng.int rng 6 with
        | 0 ->
            F.Program.tcp_conn ~src_ip:(ip (Rng.int rng 16)) ~dst_ip:(ip 0)
              ~src_port:(1000 + Rng.int rng 8) ~dst_port:80
        | 1 -> F.Program.tcp_dst_port ~dst_ip:(ip 0) ~dst_port:(79 + Rng.int rng 4)
        | 2 -> F.Program.udp_port ~dst_ip:(ip 0) ~dst_port:(53 + Rng.int rng 4)
        | 3 -> F.Program.arp ()
        | 4 -> F.Program.ip_proto (5 + Rng.int rng 3)
        | _ -> F.Program.rrp_server ~dst_ip:(ip 0) ~port:(300 + Rng.int rng 4)
      in
      let random_pkt () =
        match Rng.int rng 5 with
        | 0 ->
            tcp_pkt ~src_ip:(ip (Rng.int rng 16)) ~dst_ip:(ip 0)
              ~src_port:(1000 + Rng.int rng 8) ~dst_port:80 ()
        | 1 ->
            (* Random (possibly truncated) TCP-shaped packet. *)
            tcp_pkt ~len:(Rng.int rng 60) ~src_ip:(ip (Rng.int rng 16))
              ~dst_ip:(ip (Rng.int rng 4))
              ~src_port:(1000 + Rng.int rng 8)
              ~dst_port:(79 + Rng.int rng 4) ()
        | 2 ->
            let v = View.create 42 in
            View.set_uint16 v 12 0x0806;
            v
        | 3 -> random_view rng (Rng.int rng 60)
        | _ ->
            let v = tcp_pkt ~src_ip:(ip 1) ~dst_ip:(ip 0) ~src_port:300 ~dst_port:300 () in
            View.set_uint8 v 23 81;
            View.set_uint8 v 42 0;
            v
      in
      let next_ep = ref 0 in
      let keys = ref [] in
      let ok = ref true in
      for _ = 1 to 250 do
        let r = Rng.int rng 100 in
        if r < 12 then begin
          let p = random_prog () in
          match (F.Demux.install scan_t p !next_ep, F.Demux.install cache_t p !next_ep) with
          | Ok k1, Ok k2 ->
              incr next_ep;
              keys := (k1, k2) :: !keys
          | Error _, Error _ -> ()
          | _ -> ok := false
        end
        else if r < 18 && !keys <> [] then begin
          let n = Rng.int rng (List.length !keys) in
          let k1, k2 = List.nth !keys n in
          F.Demux.remove scan_t k1;
          F.Demux.remove cache_t k2;
          keys := List.filteri (fun i _ -> i <> n) !keys
        end
        else begin
          let pkt = random_pkt () in
          let e1, _ = F.Demux.dispatch scan_t pkt in
          let e2, _ = F.Demux.dispatch cache_t pkt in
          if e1 <> e2 then ok := false
        end
      done;
      let st = F.Demux.cache_stats cache_t in
      !ok && st.F.Demux.hits + st.F.Demux.misses > 0)

let test_hit_cost_flat () =
  (* The acceptance criterion: per-packet cache-hit cycles identical at
     4 and at 256 installed connections, while the scan cost grows. *)
  match E.scale ~conns:[ 4; 256 ] () with
  | [ r4; r256 ] ->
      check_bool "hits at 4 conns" true (r4.E.sc_hits > 0);
      check_bool "hits at 256 conns" true (r256.E.sc_hits > 0);
      Alcotest.(check (float 0.0))
        "equal per-packet hit cycles at 4 vs 256 conns" r4.E.sc_hit_cycles r256.E.sc_hit_cycles;
      check_bool "scan cost grows with table size" true
        (r256.E.sc_scan_cycles > 4.0 *. r4.E.sc_scan_cycles);
      check_bool "warm hits beat the scan" true (r256.E.sc_hit_cycles < r4.E.sc_scan_cycles)
  | _ -> Alcotest.fail "scale returned unexpected rows"

let test_cache_invalidation () =
  let d = F.Demux.create ~mode:F.Demux.Interpreted ~flow_cache:true () in
  let src_ip = Ip.make 10 0 0 2 and dst_ip = Ip.make 10 0 0 1 in
  let conn = F.Program.tcp_conn ~src_ip ~dst_ip ~src_port:1234 ~dst_port:80 in
  let _k = F.Demux.install_exn d conn `Conn in
  let pkt = tcp_pkt ~src_ip ~dst_ip ~src_port:1234 ~dst_port:80 () in
  let hit_of () = (F.Demux.cache_stats d).F.Demux.hits in
  check "first dispatch misses" 0 (hit_of ());
  ignore (F.Demux.dispatch d pkt);
  check "miss installs, no hit yet" 0 (hit_of ());
  ignore (F.Demux.dispatch d pkt);
  check "second dispatch hits" 1 (hit_of ());
  (* An install flushes: the next dispatch misses again. *)
  let k2 = F.Demux.install_exn d (F.Program.arp ()) `Arp in
  ignore (F.Demux.dispatch d pkt);
  check "flush after install" 1 (hit_of ());
  check_bool "flush counted" true ((F.Demux.cache_stats d).F.Demux.flushes >= 1);
  ignore (F.Demux.dispatch d pkt);
  check "re-warmed" 2 (hit_of ());
  (* A remove flushes too. *)
  F.Demux.remove d k2;
  ignore (F.Demux.dispatch d pkt);
  check "flush after remove" 2 (hit_of ());
  (* Turning the cache off restores pure scan dispatch. *)
  F.Demux.set_flow_cache d false;
  ignore (F.Demux.dispatch d pkt);
  check "no hits with cache off" 2 (hit_of ())

let test_shadowed_filter_not_cached () =
  (* A broad listener filter installed before a connection filter: the
     connection filter shadows it (most-recent-first), so the broad
     filter's accepts must never enter the cache — a cached dport-only
     key would steal the connection's packets. *)
  let d = F.Demux.create ~mode:F.Demux.Interpreted ~flow_cache:true () in
  let oracle = F.Demux.create ~mode:F.Demux.Interpreted () in
  let src_ip = Ip.make 10 0 0 2 and dst_ip = Ip.make 10 0 0 1 in
  let listen = F.Program.tcp_dst_port ~dst_ip ~dst_port:80 in
  let conn = F.Program.tcp_conn ~src_ip ~dst_ip ~src_port:1234 ~dst_port:80 in
  ignore (F.Demux.install_exn d listen `Listen);
  ignore (F.Demux.install_exn d conn `Conn);
  ignore (F.Demux.install_exn oracle listen `Listen);
  ignore (F.Demux.install_exn oracle conn `Conn);
  let conn_pkt = tcp_pkt ~src_ip ~dst_ip ~src_port:1234 ~dst_port:80 () in
  let other_pkt = tcp_pkt ~src_ip ~dst_ip ~src_port:999 ~dst_port:80 () in
  for _ = 1 to 4 do
    List.iter
      (fun pkt ->
        let e1, _ = F.Demux.dispatch d pkt in
        let e2, _ = F.Demux.dispatch oracle pkt in
        check_bool "cache agrees with scan under shadowing" true (e1 = e2))
      [ conn_pkt; other_pkt ]
  done;
  let st = F.Demux.cache_stats d in
  check_bool "connection flow was cached" true (st.F.Demux.hits > 0);
  check_bool "shadow-unsafe accepts were skipped" true (st.F.Demux.skips > 0)

(* --- the one TCP input path ---------------------------------------------- *)

let transfer ?fault ~params n =
  (* One bulk transfer a->b; returns what b read plus both engines'
     counters.  Deterministic given the fault seed. *)
  let w = make_world ~tcp_params:params ?fault () in
  let data = pattern n in
  let received = ref "" in
  Sched.spawn w.sched ~name:"server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port:80 in
      let conn, _ = Tcp.accept l in
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
      | Error e -> failwith e
      | Ok (c, _) ->
          Tcp.write c (View.of_string data);
          Tcp.close c;
          Tcp.await_closed c);
  let tcp_a = w.a.stack.Stack.tcp and tcp_b = w.b.stack.Stack.tcp in
  ( !received,
    data,
    Tcp.segments_out tcp_a + Tcp.segments_out tcp_b,
    Tcp.retransmissions tcp_a + Tcp.retransmissions tcp_b,
    Tcp.checksum_failures tcp_a + Tcp.checksum_failures tcp_b )

(* Every segment, in order or not, takes the full input state machine. *)
let test_input_path_clean_link () =
  let got, want, _, rexmit, cfail = transfer ~params:Tcp_params.fast 50_000 in
  check_str "payload delivered" want got;
  check "no retransmissions" 0 rexmit;
  check "no checksum failures" 0 cfail

let prop_input_path_under_faults =
  (* Loss, duplication and reordering drive segments through the
     out-of-order queue, duplicate trimming and retransmission; the
     payload must still arrive byte for byte. *)
  QCheck.Test.make ~name:"input path delivers the payload under loss/reordering" ~count:8
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let fault =
        Fault.create ~rng:(Rng.create ~seed) ~drop:0.02 ~duplicate:0.02 ~reorder:0.08 ()
      in
      let got, want, _, _, _ = transfer ~fault ~params:Tcp_params.fast 30_000 in
      String.equal got want)

(* --- fused checksum end to end ----------------------------------------- *)

let fused_params on = { Tcp_params.fast with Tcp_params.fused_checksum = on }

let test_fused_checksum_transparent () =
  let got_f, want, segs_f, _, cfail_f = transfer ~params:(fused_params true) 50_000 in
  let got_s, _, segs_s, _, cfail_s = transfer ~params:(fused_params false) 50_000 in
  check_str "fused delivery intact" want got_f;
  check_str "two-pass delivery intact" want got_s;
  check "identical segment counts" segs_s segs_f;
  check "no checksum failures (fused)" 0 cfail_f;
  check "no checksum failures (two-pass)" 0 cfail_s

let prop_fused_checksum_survives_corruption =
  (* With byte-flipping faults both configurations must reject the same
     corrupted segments and still converge on the full payload. *)
  QCheck.Test.make ~name:"fused checksum rejects corruption like the reference" ~count:6
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let mk () = Fault.create ~rng:(Rng.create ~seed) ~corrupt:0.03 ~drop:0.01 () in
      let got_f, want, _, _, cfail_f =
        transfer ~fault:(mk ()) ~params:(fused_params true) 20_000
      in
      let got_s, _, _, _, cfail_s =
        transfer ~fault:(mk ()) ~params:(fused_params false) 20_000
      in
      String.equal got_f want && String.equal got_s want && cfail_f = cfail_s)

(* --- zero-copy data path vs the copying oracle ------------------------- *)

let zc_params = { Tcp_params.fast with Tcp_params.zero_copy = true }

(* One bulk transfer a->b at the engine level, the sender handing the
   data over in randomized odd-length fragments.  Under zero copy each
   fragment is queued by reference ([write_owned]) with a release that
   must fire exactly once; the receiver drains through the loaning read
   on both configurations (it degrades to a plain pop on the copying
   one).  Returns enough to check the paths are behaviourally
   indistinguishable. *)
let transfer_zc ?fault ~zero_copy ~frag_seed n =
  let params = if zero_copy then zc_params else Tcp_params.fast in
  let w = make_world ~tcp_params:params ?fault () in
  let data = pattern n in
  let received = Buffer.create n in
  Sched.spawn w.sched ~name:"server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port:80 in
      let conn, _ = Tcp.accept l in
      let rec drainloop () =
        match Tcp.read_loan conn ~max:4096 with
        | None -> ()
        | Some v ->
            Buffer.add_string received (View.to_string v);
            Tcp.return_loan conn (View.length v);
            drainloop ()
      in
      drainloop ();
      Tcp.close conn);
  let frags = ref 0 and releases = ref 0 in
  run_to_completion w (fun () ->
      match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
      | Error e -> failwith e
      | Ok (c, _) ->
          let rng = Rng.create ~seed:frag_seed in
          let off = ref 0 in
          while !off < n do
            (* Odd lengths by construction half the time: the checksum
               must compose across odd/even fragment boundaries. *)
            let len = Stdlib.min (n - !off) (1 + Rng.int rng 1200) in
            let v = View.of_string (String.sub data !off len) in
            incr frags;
            if zero_copy then Tcp.write_owned c v ~release:(fun () -> incr releases)
            else Tcp.write c v;
            off := !off + len
          done;
          Tcp.close c;
          Tcp.await_closed c);
  let tcp_a = w.a.stack.Stack.tcp and tcp_b = w.b.stack.Stack.tcp in
  ( Buffer.contents received,
    data,
    Tcp.segments_out tcp_a + Tcp.segments_out tcp_b,
    Tcp.retransmissions tcp_a + Tcp.retransmissions tcp_b,
    !frags,
    !releases )

let prop_zero_copy_differential =
  (* The acceptance bar: across randomized loss/reorder/duplication and
     fragment mixes, the scatter-gather send queue must be a drop-in for
     the copying one — byte-identical delivery, identical wire behaviour
     (segment and retransmission counts), and every loaned buffer
     released exactly once. *)
  QCheck.Test.make ~name:"zero-copy sendq = copying sendq under loss/reorder/duplication"
    ~count:1000
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let n = 2048 + Rng.int rng 4097 in
      let frag_seed = 1 + Rng.int rng 1_000_000 in
      let mk () =
        Fault.create ~rng:(Rng.create ~seed) ~drop:0.02 ~duplicate:0.02 ~reorder:0.08 ()
      in
      let got_z, want, segs_z, rexmit_z, frags, releases =
        transfer_zc ~fault:(mk ()) ~zero_copy:true ~frag_seed n
      in
      let got_c, _, segs_c, rexmit_c, _, _ =
        transfer_zc ~fault:(mk ()) ~zero_copy:false ~frag_seed n
      in
      String.equal got_z want && String.equal got_c want && segs_z = segs_c
      && rexmit_z = rexmit_c && releases = frags)

let test_loan_backpressure_reopens () =
  (* Loans held by the application keep occupying receive buffering: the
     advertised window must close (stalling the sender) rather than let
     the pool be overrun, and returning the loans must reopen it — the
     transfer completes, no deadlock. *)
  let w = make_world ~tcp_params:zc_params () in
  let n = 3 * zc_params.Tcp_params.rcv_buf in
  let data = pattern n in
  let window_closed = ref false in
  let received = Buffer.create n in
  Sched.spawn w.sched ~name:"server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port:80 in
      let conn, _ = Tcp.accept l in
      (* Phase 1: hoard loans until a full receive buffer is out. *)
      let held = ref [] in
      while Tcp.loaned_bytes conn < zc_params.Tcp_params.rcv_buf do
        match Tcp.read_loan conn ~max:4096 with
        | None -> failwith "eof before the window closed"
        | Some v -> held := v :: !held
      done;
      window_closed := Tcp.loaned_bytes conn >= zc_params.Tcp_params.rcv_buf;
      (* Let the sender run into the closed window before releasing. *)
      Sched.sleep w.sched (Time.ms 500);
      List.iter
        (fun v ->
          Buffer.add_string received (View.to_string v);
          Tcp.return_loan conn (View.length v))
        (List.rev !held);
      (* Phase 2: drain normally, returning immediately. *)
      let rec drainloop () =
        match Tcp.read_loan conn ~max:65536 with
        | None -> ()
        | Some v ->
            Buffer.add_string received (View.to_string v);
            Tcp.return_loan conn (View.length v);
            drainloop ()
      in
      drainloop ();
      Tcp.close conn);
  run_to_completion w (fun () ->
      match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
      | Error e -> failwith e
      | Ok (c, _) ->
          Tcp.write c (View.of_string data);
          Tcp.close c;
          Tcp.await_closed c);
  check_bool "a full receive buffer was out on loan" true !window_closed;
  check_str "complete delivery after the window reopened" data (Buffer.contents received)

(* --- zero-copy end to end through the user-level library --------------- *)

module W = Uln_core.World
module Sockets = Uln_core.Sockets
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu

let userlib_zc_params = { Tcp_params.default with Tcp_params.zero_copy = true }

(* A patterned transfer through the full userlib organization (registry
   handoff, channels, the socket ops) on a clean link; returns the
   received bytes and total segments on the wire. *)
let userlib_transfer ~zero_copy n =
  let params = if zero_copy then userlib_zc_params else Tcp_params.default in
  let w = W.create ~tcp_params:params ~network:W.Ethernet ~org:Uln_core.Organization.User_library () in
  let sched = W.sched w in
  let data = pattern n in
  let received = Buffer.create n in
  let server_app = W.app w ~host:1 "sink" in
  let client_app = W.app w ~host:0 "source" in
  Sched.spawn sched ~name:"sink" (fun () ->
      let l = server_app.Sockets.listen ~port:7001 in
      let conn = l.Sockets.accept () in
      let rec drainloop () =
        match conn.Sockets.recv_loan ~max:65536 with
        | None -> ()
        | Some v ->
            Buffer.add_string received (View.to_string v);
            conn.Sockets.return_loan v;
            drainloop ()
      in
      drainloop ();
      conn.Sockets.close ());
  Sched.block_on sched (fun () ->
      match client_app.Sockets.connect ~src_port:0 ~dst:(W.host_ip w 1) ~dst_port:7001 with
      | Error e -> failwith e
      | Ok conn ->
          let off = ref 0 in
          while !off < n do
            let len = Stdlib.min (n - !off) 997 in
            (match conn.Sockets.alloc_tx len with
            | Some owned ->
                View.blit_from_string data !off owned 0 len;
                conn.Sockets.send_owned owned
            | None -> conn.Sockets.send (View.of_string (String.sub data !off len)));
            off := !off + len
          done;
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  let segments =
    match (W.host_stacks w 0, W.host_stacks w 1) with
    | s0 :: _, s1 :: _ ->
        Tcp.segments_out s0.Stack.tcp + Tcp.segments_out s1.Stack.tcp
    | _ -> -1
  in
  (Buffer.contents received, data, segments, w)

let test_userlib_zero_copy_end_to_end () =
  let got_z, want, segs_z, _ = userlib_transfer ~zero_copy:true 50_000 in
  let got_c, _, segs_c, _ = userlib_transfer ~zero_copy:false 50_000 in
  check_str "zero-copy delivery byte-identical" want got_z;
  check_str "copying delivery byte-identical" want got_c;
  check "identical segment counts" segs_c segs_z

let test_zero_copy_charges_no_copy_bytes () =
  (* The accounting acceptance criterion: with [zero_copy] on, a userlib
     bulk transfer charges zero copy time on either host — every payload
     byte is touched exactly once, by the checksum pass. *)
  let w =
    W.create ~tcp_params:userlib_zc_params ~network:W.Ethernet
      ~org:Uln_core.Organization.User_library ()
  in
  let r = Uln_workload.Bulk.run ~total_bytes:200_000 ~write_size:4096 w in
  check_bool "transfer completed" true (r.Uln_workload.Bulk.bytes >= 200_000);
  for host = 0 to 1 do
    let cpu = (W.machine w host).Machine.cpu in
    check (Printf.sprintf "host %d: zero copy ns" host) 0 (Cpu.copy_ns cpu);
    check (Printf.sprintf "host %d: zero fused copy+checksum ns" host) 0
      (Cpu.copy_checksum_ns cpu);
    check_bool
      (Printf.sprintf "host %d: checksum pass still charged" host)
      true
      (Cpu.checksum_ns cpu > 0)
  done

let test_copying_oracle_still_copies () =
  (* The differential partner: the same transfer with [zero_copy] off
     must charge copy time — otherwise the assertion above is vacuous. *)
  let w =
    W.create ~tcp_params:Tcp_params.default ~network:W.Ethernet
      ~org:Uln_core.Organization.User_library ()
  in
  let r = Uln_workload.Bulk.run ~total_bytes:200_000 ~write_size:4096 w in
  check_bool "transfer completed" true (r.Uln_workload.Bulk.bytes >= 200_000);
  let copied =
    (Cpu.copy_ns (W.machine w 0).Machine.cpu + Cpu.copy_checksum_ns (W.machine w 0).Machine.cpu)
    + Cpu.copy_ns (W.machine w 1).Machine.cpu
    + Cpu.copy_checksum_ns (W.machine w 1).Machine.cpu
  in
  check_bool "copying path charges copy time" true (copied > 0)

(* --- bench JSON emission ----------------------------------------------- *)

module Jout = Uln_workload.Jout

let test_jout_non_finite () =
  check_str "nan is null" "null" (Jout.float Float.nan);
  check_str "+inf is null" "null" (Jout.float Float.infinity);
  check_str "-inf is null" "null" (Jout.float Float.neg_infinity);
  check_str "integer float" "6.0" (Jout.float 6.0);
  check_str "none is null" "null" (Jout.opt None)

let test_jout_validate () =
  check_bool "object parses" true
    (Jout.validate "{\"a\": [1, 2.5, null, \"x\\n\"], \"b\": {}}" = Ok ());
  check_bool "nan literal rejected" true (Jout.validate "{\"a\": nan}" <> Ok ());
  check_bool "trailing garbage rejected" true (Jout.validate "[1] x" <> Ok ());
  check_bool "truncated rejected" true (Jout.validate "[1, 2" <> Ok ());
  let row = Printf.sprintf "[{\"v\": %s, \"w\": %s}]" (Jout.float Float.nan) (Jout.float 3.25) in
  check_bool "emitted row round-trips" true (Jout.validate row = Ok ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "fastpath"
    [ ( "checksum",
        [ qc prop_of_view_matches_reference;
          qc prop_of_mbuf_matches_reference;
          qc prop_blit_sum;
          qc prop_peek_sum;
          qc prop_encode_with_payload_sum ] );
      ( "flow-cache",
        [ qc prop_cache_matches_scan;
          Alcotest.test_case "hit cost flat in table size" `Quick test_hit_cost_flat;
          Alcotest.test_case "invalidation on install/remove" `Quick test_cache_invalidation;
          Alcotest.test_case "shadow-unsafe accepts skipped" `Quick
            test_shadowed_filter_not_cached ] );
      ( "single-input-path",
        [ Alcotest.test_case "clean link" `Quick test_input_path_clean_link;
          qc prop_input_path_under_faults ] );
      ( "fused-checksum",
        [ Alcotest.test_case "transparent end to end" `Quick test_fused_checksum_transparent;
          qc prop_fused_checksum_survives_corruption ] );
      ( "zero-copy",
        [ qc prop_zero_copy_differential;
          Alcotest.test_case "loan back-pressure reopens" `Quick test_loan_backpressure_reopens;
          Alcotest.test_case "userlib end to end identical" `Quick
            test_userlib_zero_copy_end_to_end;
          Alcotest.test_case "charges no copy bytes" `Quick test_zero_copy_charges_no_copy_bytes;
          Alcotest.test_case "copying oracle still copies" `Quick
            test_copying_oracle_still_copies ] );
      ( "bench-json",
        [ Alcotest.test_case "non-finite floats are null" `Quick test_jout_non_finite;
          Alcotest.test_case "validator" `Quick test_jout_validate ] ) ]
