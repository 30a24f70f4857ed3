module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Rng = Uln_engine.Rng
module Semaphore = Uln_engine.Semaphore
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Mac = Uln_addr.Mac
module Machine = Uln_host.Machine
module Costs = Uln_host.Costs
module Link = Uln_net.Link
module Frame = Uln_net.Frame
module Fault = Uln_net.Fault
module Lance = Uln_net.Lance
module An1_nic = Uln_net.An1_nic
module Nic = Uln_net.Nic

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mac_a = Mac.of_int 0xa
let mac_b = Mac.of_int 0xb

let frame ?(len = 100) ?(bqi = 0) () =
  Frame.make ~src:mac_a ~dst:mac_b ~ethertype:0x0800 ~bqi (Mbuf.of_view (View.create len))

(* --- link timing ------------------------------------------------------ *)

let test_ethernet_serialization_time () =
  (* 1500-byte payload: (38 + 1500) * 8 bits at 10 Mb/s = 1230.4 us. *)
  let s = Sched.create () in
  let link = Link.ethernet s in
  check "frame time" 1_230_400 (Link.frame_time link 1500)

let test_ethernet_min_frame_padding () =
  let s = Sched.create () in
  let link = Link.ethernet s in
  (* A 1-byte payload is padded to the 46-byte minimum. *)
  check "padded" (Link.frame_time link 46) (Link.frame_time link 1)

let test_an1_faster () =
  let s = Sched.create () in
  let eth = Link.ethernet s and an1 = Link.an1 s in
  check_bool "10x" true (Link.frame_time eth 1000 > 9 * Link.frame_time an1 1000)

let test_link_delivers_to_others_only () =
  let s = Sched.create () in
  let link = Link.ethernet s in
  let got_a = ref 0 and got_b = ref 0 in
  let sta = Link.attach link ~addr:mac_a (fun _ -> incr got_a) in
  let _stb = Link.attach link ~addr:mac_b (fun _ -> incr got_b) in
  Link.transmit link sta (frame ()) ~on_done:(fun () -> ());
  Sched.run s;
  check "sender excluded" 0 !got_a;
  check "peer got it" 1 !got_b

let test_addressed_delivery () =
  (* Three stations on one segment; [a] sends to [b], to [c], to
     broadcast, and to an address nobody holds.  Each station hears its
     own frames and broadcast, and the monitor sees every frame on the
     wire. *)
  let s = Sched.create () in
  let link = Link.ethernet s in
  let mac_c = Mac.of_int 0xc and nobody = Mac.of_int 0xd in
  let station addr =
    let heard = ref [] in
    let st = Link.attach link ~addr (fun (f : Frame.t) -> heard := Mac.to_int f.dst :: !heard) in
    (st, heard)
  in
  let sta, heard_a = station mac_a in
  let _, heard_b = station mac_b in
  let _, heard_c = station mac_c in
  let monitored = ref 0 in
  Link.set_monitor link (fun _ _ -> incr monitored);
  List.iter
    (fun dst ->
      let f = Frame.make ~src:mac_a ~dst ~ethertype:0x0800 ~bqi:0 (Mbuf.of_view (View.create 64)) in
      Link.transmit link sta f ~on_done:(fun () -> ()))
    [ mac_b; mac_c; Mac.broadcast; nobody ];
  Sched.run s;
  let got heard = List.rev !heard in
  let ints = List.map Mac.to_int in
  Alcotest.(check (list int)) "sender hears nothing" [] (got heard_a);
  Alcotest.(check (list int)) "b: own + broadcast" (ints [ mac_b; Mac.broadcast ]) (got heard_b);
  Alcotest.(check (list int)) "c: own + broadcast" (ints [ mac_c; Mac.broadcast ]) (got heard_c);
  check "monitor sees every frame" 4 !monitored

let test_half_duplex_queueing () =
  (* Two frames queued back-to-back: second delivery happens one frame
     time after the first. *)
  let s = Sched.create () in
  let link = Link.ethernet s in
  let deliveries = ref [] in
  let sta = Link.attach link ~addr:mac_a (fun _ -> ()) in
  let _stb = Link.attach link ~addr:mac_b (fun _ -> deliveries := Time.to_ns (Sched.now s) :: !deliveries) in
  Link.transmit link sta (frame ~len:1000 ()) ~on_done:(fun () -> ());
  Link.transmit link sta (frame ~len:1000 ()) ~on_done:(fun () -> ());
  Sched.run s;
  match List.rev !deliveries with
  | [ t1; t2 ] -> check "spacing = frame time" (Link.frame_time link 1000) (t2 - t1)
  | _ -> Alcotest.fail "expected two deliveries"

let test_saturation_sanity () =
  let s = Sched.create () in
  let link = Link.ethernet s in
  let sat = Link.saturation_mbps link 1500 in
  check_bool "between 9.5 and 10" true (sat > 9.5 && sat < 10.0)

(* --- fault injection -------------------------------------------------- *)

let test_fault_drop_rate () =
  let rng = Rng.create ~seed:42 in
  let f = Fault.create ~rng ~drop:0.3 () in
  let drops = ref 0 in
  for _ = 1 to 10_000 do
    match Fault.judge f with Fault.Drop -> incr drops | _ -> ()
  done;
  check_bool "around 30%" true (!drops > 2_700 && !drops < 3_300);
  check "counter matches" !drops (Fault.dropped f)

let test_fault_deterministic () =
  let run seed =
    let f = Fault.create ~rng:(Rng.create ~seed) ~drop:0.2 ~corrupt:0.1 () in
    List.init 100 (fun _ -> Fault.judge f)
  in
  check_bool "same seed, same verdicts" true (run 7 = run 7);
  check_bool "different seed differs" true (run 7 <> run 8)

let test_corrupt_changes_payload () =
  let rng = Rng.create ~seed:3 in
  let f = Fault.create ~rng ~corrupt:1.0 () in
  let original = frame ~len:64 () in
  let corrupted = Fault.corrupt_frame f original in
  check_bool "payload differs" false
    (Mbuf.to_string original.Frame.payload = Mbuf.to_string corrupted.Frame.payload)

(* --- NIC models -------------------------------------------------------- *)

let machine s = Machine.create s ~name:"h" ~costs:Costs.r3000 ~rng:(Rng.create ~seed:9)

let test_lance_filters_by_mac () =
  let s = Sched.create () in
  let link = Link.ethernet s in
  let m1 = machine s and m2 = machine s in
  let nic_b = Lance.create m2 link ~mac:mac_b () in
  let nic_c = Lance.create m1 link ~mac:(Mac.of_int 0xc) () in
  let got_b = ref 0 and got_c = ref 0 in
  nic_b.Nic.install_rx (fun _ -> incr got_b);
  nic_c.Nic.install_rx (fun _ -> incr got_c);
  let sender = Lance.create m1 link ~mac:mac_a () in
  Sched.spawn s (fun () -> sender.Nic.send (frame ()));
  Sched.run s;
  check "addressed nic got it" 1 !got_b;
  check "other nic ignored it" 0 !got_c

let test_lance_broadcast () =
  let s = Sched.create () in
  let link = Link.ethernet s in
  let m1 = machine s and m2 = machine s in
  let nic_b = Lance.create m2 link ~mac:mac_b () in
  let got = ref 0 in
  nic_b.Nic.install_rx (fun _ -> incr got);
  let sender = Lance.create m1 link ~mac:mac_a () in
  Sched.spawn s (fun () ->
      sender.Nic.send
        (Frame.make ~src:mac_a ~dst:Mac.broadcast ~ethertype:0x0806
           (Mbuf.of_view (View.create 28))));
  Sched.run s;
  check "broadcast received" 1 !got

let test_an1_bqi_delivery () =
  let s = Sched.create () in
  let link = Link.an1 s in
  let m1 = machine s and m2 = machine s in
  let nic_b = An1_nic.create m2 link ~mac:mac_b () in
  let ops = Option.get nic_b.Nic.bqi in
  let ring = ops.Nic.alloc_ring ~capacity:4 in
  check_bool "non-zero bqi" true (ring > 0);
  check_bool "buffer accepted" true (ops.Nic.provide_buffer ring (View.create 1600));
  let got = ref None in
  nic_b.Nic.install_rx (fun info -> got := Some info);
  let sender = An1_nic.create m1 link ~mac:mac_a () in
  Sched.spawn s (fun () -> sender.Nic.send (frame ~len:200 ~bqi:ring ()));
  Sched.run s;
  match !got with
  | Some info ->
      check "matched ring" ring info.Nic.bqi;
      check_bool "buffer attached" true (info.Nic.buffer <> None);
      check "buffer holds payload" 200 (View.length (Option.get info.Nic.buffer))
  | None -> Alcotest.fail "no delivery"

let test_an1_unknown_bqi_defaults_to_kernel () =
  let s = Sched.create () in
  let link = Link.an1 s in
  let m1 = machine s and m2 = machine s in
  let nic_b = An1_nic.create m2 link ~mac:mac_b () in
  let got = ref None in
  nic_b.Nic.install_rx (fun info -> got := Some info);
  let sender = An1_nic.create m1 link ~mac:mac_a () in
  Sched.spawn s (fun () -> sender.Nic.send (frame ~len:64 ~bqi:17 ()));
  Sched.run s;
  match !got with
  | Some info ->
      check "fell back to bqi 0" 0 info.Nic.bqi;
      check_bool "no buffer" true (info.Nic.buffer = None)
  | None -> Alcotest.fail "no delivery"

let test_an1_empty_ring_drops () =
  let s = Sched.create () in
  let link = Link.an1 s in
  let m1 = machine s and m2 = machine s in
  let nic_b = An1_nic.create m2 link ~mac:mac_b () in
  let ops = Option.get nic_b.Nic.bqi in
  let ring = ops.Nic.alloc_ring ~capacity:4 in
  (* No buffers provided: the controller has nowhere to DMA. *)
  let got = ref 0 in
  nic_b.Nic.install_rx (fun _ -> incr got);
  let sender = An1_nic.create m1 link ~mac:mac_a () in
  Sched.spawn s (fun () -> sender.Nic.send (frame ~len:64 ~bqi:ring ()));
  Sched.run s;
  check "dropped" 0 !got;
  check "counted" 1 (nic_b.Nic.rx_drops ())

let test_lance_pio_charges_cpu () =
  let s = Sched.create () in
  let link = Link.ethernet s in
  let m1 = machine s in
  let sender = Lance.create m1 link ~mac:mac_a () in
  Sched.spawn s (fun () -> sender.Nic.send (frame ~len:1000 ()));
  Sched.run s;
  (* PIO of 1014 bytes at 600 ns/B plus driver overhead. *)
  check_bool "cpu busy >= pio" true (Uln_host.Cpu.busy_ns m1.Machine.cpu >= 1014 * 600)

let () =
  Alcotest.run "netsim"
    [ ( "link",
        [ Alcotest.test_case "serialization time" `Quick test_ethernet_serialization_time;
          Alcotest.test_case "min frame" `Quick test_ethernet_min_frame_padding;
          Alcotest.test_case "an1 faster" `Quick test_an1_faster;
          Alcotest.test_case "delivery fanout" `Quick test_link_delivers_to_others_only;
          Alcotest.test_case "addressed delivery" `Quick test_addressed_delivery;
          Alcotest.test_case "half duplex queueing" `Quick test_half_duplex_queueing;
          Alcotest.test_case "saturation" `Quick test_saturation_sanity ] );
      ( "fault",
        [ Alcotest.test_case "drop rate" `Quick test_fault_drop_rate;
          Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
          Alcotest.test_case "corruption" `Quick test_corrupt_changes_payload ] );
      ( "nic",
        [ Alcotest.test_case "mac filter" `Quick test_lance_filters_by_mac;
          Alcotest.test_case "broadcast" `Quick test_lance_broadcast;
          Alcotest.test_case "an1 bqi" `Quick test_an1_bqi_delivery;
          Alcotest.test_case "an1 unknown bqi" `Quick test_an1_unknown_bqi_defaults_to_kernel;
          Alcotest.test_case "an1 empty ring" `Quick test_an1_empty_ring_drops;
          Alcotest.test_case "lance pio cost" `Quick test_lance_pio_charges_cpu ] ) ]
