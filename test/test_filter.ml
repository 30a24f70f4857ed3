module View = Uln_buf.View
module Ip = Uln_addr.Ip
module Insn = Uln_filter.Insn
module Program = Uln_filter.Program
module Interp = Uln_filter.Interp
module Compile = Uln_filter.Compile
module Template = Uln_filter.Template
module Demux = Uln_filter.Demux
module Verify = Uln_filter.Verify
module Optimize = Uln_filter.Optimize
module Absint = Uln_filter.Absint

let check_bool = Alcotest.(check bool)
let check = Alcotest.(check int)

(* Build the wire image of an Ethernet+IP+TCP packet, enough for the
   standard filters: we only fill the fields the filters inspect. *)
let fake_tcp_packet ~src_ip ~dst_ip ~src_port ~dst_port =
  let v = View.create 54 in
  View.set_uint16 v 12 0x0800;
  View.set_uint8 v 14 0x45;
  View.set_uint8 v 23 6;
  View.set_uint32 v 26 (Ip.to_int32 src_ip);
  View.set_uint32 v 30 (Ip.to_int32 dst_ip);
  View.set_uint16 v 34 src_port;
  View.set_uint16 v 36 dst_port;
  v

let ip_a = Ip.of_string "10.1.0.1"
let ip_b = Ip.of_string "10.1.0.2"
let ip_c = Ip.of_string "10.1.0.3"

(* --- program validation ------------------------------------------------ *)

let test_validation_rejects_underflow () =
  Alcotest.check_raises "underflow" (Program.Invalid "stack underflow at instruction 0")
    (fun () -> ignore (Program.of_insns [ Insn.Eq ]))

let test_validation_rejects_empty_result () =
  let raises f = try f (); false with Program.Invalid _ -> true in
  check_bool "no result" true (raises (fun () ->
      ignore (Program.of_insns [ Insn.Push_lit 1; Insn.Cand ])))

let test_validation_rejects_bad_literal () =
  let raises f = try f (); false with Program.Invalid _ -> true in
  check_bool "literal" true (raises (fun () -> ignore (Program.of_insns [ Insn.Push_lit 70000 ])))

let test_validation_accepts_standard () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "has instructions" true (Program.length p > 10);
  check_bool "max offset covers ports" true (Program.max_offset p >= 38)

(* --- interpreter --------------------------------------------------------- *)

let test_tcp_filter_matches_own_connection () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let pkt = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "accepts" true (Interp.run p pkt)

let test_tcp_filter_rejects_other_port () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let pkt = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1235 ~dst_port:80 in
  check_bool "rejects" false (Interp.run p pkt)

let test_tcp_filter_rejects_other_host () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let pkt = fake_tcp_packet ~src_ip:ip_c ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "rejects" false (Interp.run p pkt)

let test_short_packet_rejected () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "short" false (Interp.run p (View.create 20))

let test_arp_filter () =
  let p = Program.arp () in
  let pkt = View.create 42 in
  View.set_uint16 pkt 12 0x0806;
  check_bool "arp" true (Interp.run p pkt);
  View.set_uint16 pkt 12 0x0800;
  check_bool "not arp" false (Interp.run p pkt)

let test_arithmetic_insns () =
  let run insns pkt = Interp.run (Program.of_insns insns) pkt in
  let pkt = View.create 2 in
  check_bool "add" true (run [ Insn.Push_lit 2; Insn.Push_lit 3; Insn.Add; Insn.Push_lit 5; Insn.Eq ] pkt);
  check_bool "sub" true (run [ Insn.Push_lit 9; Insn.Push_lit 4; Insn.Sub; Insn.Push_lit 5; Insn.Eq ] pkt);
  check_bool "shl" true (run [ Insn.Push_lit 1; Insn.Shl 4; Insn.Push_lit 16; Insn.Eq ] pkt);
  check_bool "shr" true (run [ Insn.Push_lit 16; Insn.Shr 2; Insn.Push_lit 4; Insn.Eq ] pkt);
  check_bool "and" true (run [ Insn.Push_lit 0xF0; Insn.Push_lit 0x3C; Insn.And; Insn.Push_lit 0x30; Insn.Eq ] pkt);
  check_bool "or" true (run [ Insn.Push_lit 0xF0; Insn.Push_lit 0x0F; Insn.Or; Insn.Push_lit 0xFF; Insn.Eq ] pkt);
  check_bool "lt" true (run [ Insn.Push_lit 3; Insn.Push_lit 5; Insn.Lt ] pkt);
  check_bool "ge" false (run [ Insn.Push_lit 3; Insn.Push_lit 5; Insn.Ge ] pkt)

let test_cor_short_circuit () =
  (* Cor accepts immediately: the OOB load after it must not matter. *)
  let p = Program.of_insns [ Insn.Push_lit 1; Insn.Cor; Insn.Push_word 1000 ] in
  check_bool "accepted early" true (Interp.run p (View.create 4))

(* --- compiled form ---------------------------------------------------------- *)

let gen_insns =
  (* Random but valid programs: track stack depth during generation. *)
  let open QCheck.Gen in
  let rec build depth acc n =
    if n = 0 then
      if depth >= 1 then return (List.rev acc)
      else build depth acc 1
    else
      let pushes =
        [ (1, map (fun v -> Insn.Push_lit (abs v mod 65536)) small_int);
          (1, map (fun o -> Insn.Push_word (abs o mod 64)) small_int);
          (1, map (fun o -> Insn.Push_byte (abs o mod 64)) small_int) ]
      in
      let binops =
        [ Insn.Eq; Insn.Ne; Insn.Lt; Insn.Le; Insn.Gt; Insn.Ge; Insn.And; Insn.Or; Insn.Xor;
          Insn.Add; Insn.Sub ]
      in
      let choices =
        if depth >= 2 then
          (3, map (fun i -> List.nth binops (abs i mod List.length binops)) small_int)
          :: (1, map (fun s -> Insn.Shl (abs s mod 16)) small_int)
          :: (1, return Insn.Cand)
          :: (1, return Insn.Cor)
          :: pushes
        else if depth >= 1 then (1, map (fun s -> Insn.Shr (abs s mod 16)) small_int) :: pushes
        else pushes
      in
      frequency choices >>= fun insn ->
      let pops, push = Insn.stack_effect insn in
      build (depth - pops + push) (insn :: acc) (n - 1)
  in
  small_int >>= fun n -> build 0 [] (1 + (abs n mod 20))

let prop_compiled_equals_interpreted =
  QCheck.Test.make ~name:"compiled filter = interpreter on random programs/packets" ~count:300
    (QCheck.make
       (QCheck.Gen.pair gen_insns (QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.( -- ) 0 80))))
    (fun (insns, pkt_str) ->
      match Program.of_insns insns with
      | exception Program.Invalid _ -> QCheck.assume_fail ()
      | p ->
          let pkt = View.of_string pkt_str in
          Compile.compile p pkt = Interp.run p pkt)

let test_compiled_cheaper () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "compiled cost < interp cost" true
    (Program.compiled_cycles p < Program.interp_cycles p)

(* --- templates ----------------------------------------------------------------- *)

let test_template_accepts_own_header () =
  let t = Template.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 () in
  let pkt = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "own packet" true (Template.matches t pkt)

let test_template_blocks_impersonation () =
  let t = Template.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 () in
  (* Forged source port — pretending to be another connection. *)
  let forged = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:999 ~dst_port:80 in
  check_bool "forged port" false (Template.matches t forged);
  (* Forged destination. *)
  let forged2 = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_c ~src_port:1234 ~dst_port:80 in
  check_bool "forged dst" false (Template.matches t forged2)

let test_template_short_packet () =
  let t = Template.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 () in
  check_bool "short" false (Template.matches t (View.create 10))

let test_template_carries_bqi () =
  let t = Template.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1 ~dst_port:2 ~bqi:7 () in
  check "bqi" 7 (Template.bqi t)

(* --- demux table ------------------------------------------------------------------ *)

let test_demux_dispatches_first_match () =
  let d = Demux.create ~mode:Demux.Interpreted () in
  ignore (Demux.install_exn d (Program.ip_proto 6) "any-tcp");
  ignore
    (Demux.install_exn d
       (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80)
       "conn");
  let pkt = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let ep, cost = Demux.dispatch d pkt in
  Alcotest.(check (option string)) "specific entry wins (most recent first)" (Some "conn") ep;
  check_bool "cost accounted" true (cost > 0)

let test_demux_falls_through () =
  let d = Demux.create ~mode:Demux.Compiled () in
  ignore
    (Demux.install_exn d
       (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80)
       "conn");
  let pkt = fake_tcp_packet ~src_ip:ip_c ~dst_ip:ip_b ~src_port:5 ~dst_port:6 in
  let ep, _ = Demux.dispatch d pkt in
  Alcotest.(check (option string)) "no match" None ep

let test_demux_remove () =
  let d = Demux.create ~mode:Demux.Interpreted () in
  let k = Demux.install_exn d (Program.arp ()) "arp" in
  check "installed" 1 (Demux.entries d);
  Demux.remove d k;
  check "removed" 0 (Demux.entries d)

let test_demux_isolation () =
  (* Two connections' filters: each packet reaches only its owner. *)
  let d = Demux.create ~mode:Demux.Interpreted () in
  ignore
    (Demux.install_exn d (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:10 ~dst_port:20)
       "app1");
  ignore
    (Demux.install_exn d (Program.tcp_conn ~src_ip:ip_c ~dst_ip:ip_b ~src_port:30 ~dst_port:40)
       "app2");
  let p1 = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:10 ~dst_port:20 in
  let p2 = fake_tcp_packet ~src_ip:ip_c ~dst_ip:ip_b ~src_port:30 ~dst_port:40 in
  Alcotest.(check (option string)) "app1 gets its packet" (Some "app1") (fst (Demux.dispatch d p1));
  Alcotest.(check (option string)) "app2 gets its packet" (Some "app2") (fst (Demux.dispatch d p2))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run ~and_exit:false "pktfilter"
    [ ( "validation",
        [ Alcotest.test_case "underflow" `Quick test_validation_rejects_underflow;
          Alcotest.test_case "empty result" `Quick test_validation_rejects_empty_result;
          Alcotest.test_case "bad literal" `Quick test_validation_rejects_bad_literal;
          Alcotest.test_case "standard programs" `Quick test_validation_accepts_standard ] );
      ( "interp",
        [ Alcotest.test_case "matches own connection" `Quick test_tcp_filter_matches_own_connection;
          Alcotest.test_case "rejects other port" `Quick test_tcp_filter_rejects_other_port;
          Alcotest.test_case "rejects other host" `Quick test_tcp_filter_rejects_other_host;
          Alcotest.test_case "short packet" `Quick test_short_packet_rejected;
          Alcotest.test_case "arp" `Quick test_arp_filter;
          Alcotest.test_case "arithmetic" `Quick test_arithmetic_insns;
          Alcotest.test_case "cor short-circuit" `Quick test_cor_short_circuit ] );
      ( "compile",
        [ qc prop_compiled_equals_interpreted;
          Alcotest.test_case "cheaper than interp" `Quick test_compiled_cheaper ] );
      ( "template",
        [ Alcotest.test_case "accepts own" `Quick test_template_accepts_own_header;
          Alcotest.test_case "blocks impersonation" `Quick test_template_blocks_impersonation;
          Alcotest.test_case "short packet" `Quick test_template_short_packet;
          Alcotest.test_case "carries bqi" `Quick test_template_carries_bqi ] );
      ( "demux",
        [ Alcotest.test_case "first match" `Quick test_demux_dispatches_first_match;
          Alcotest.test_case "falls through" `Quick test_demux_falls_through;
          Alcotest.test_case "remove" `Quick test_demux_remove;
          Alcotest.test_case "isolation" `Quick test_demux_isolation ] ) ]

(* --- template soundness/completeness over random tuples (appended) -------- *)

let prop_template_sound_and_complete =
  QCheck.Test.make ~name:"tcp template accepts own tuple, rejects others" ~count:300
    QCheck.(quad (1 -- 0xffff) (1 -- 0xffff) (1 -- 0xffff) (1 -- 0xffff))
    (fun (sp, dp, sp', dp') ->
      QCheck.assume (sp <> sp' || dp <> dp');
      let t = Template.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:sp ~dst_port:dp () in
      let own = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:sp ~dst_port:dp in
      let other = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:sp' ~dst_port:dp' in
      Template.matches t own && not (Template.matches t other))

let prop_filter_matches_only_own_tuple =
  QCheck.Test.make ~name:"conn filter accepts own tuple, rejects others" ~count:300
    QCheck.(quad (1 -- 0xffff) (1 -- 0xffff) (1 -- 0xffff) (1 -- 0xffff))
    (fun (sp, dp, sp', dp') ->
      QCheck.assume (sp <> sp' || dp <> dp');
      let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:sp ~dst_port:dp in
      let own = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:sp ~dst_port:dp in
      let other = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:sp' ~dst_port:dp' in
      Interp.run p own
      && (not (Interp.run p other))
      && Compile.compile p own
      && not (Compile.compile p other))

(* --- validator edge cases (appended) --------------------------------------- *)

let raises_invalid f = try f (); false with Program.Invalid _ -> true

let test_validation_depth_limit () =
  let pushes n = List.init n (fun _ -> Insn.Push_lit 1) in
  let collapse n = List.init (n - 1) (fun _ -> Insn.Or) in
  (* exactly max_stack deep is legal... *)
  ignore (Program.of_insns (pushes Program.max_stack @ collapse Program.max_stack));
  (* ...one more is a static overflow *)
  check_bool "33 deep rejected" true
    (raises_invalid (fun () ->
         ignore (Program.of_insns (pushes (Program.max_stack + 1) @ collapse (Program.max_stack + 1)))))

let test_validation_cor_empty_mid () =
  (* Cor may drain the stack mid-program as long as something is pushed
     again before the end... *)
  let p = Program.of_insns [ Insn.Push_lit 0; Insn.Cor; Insn.Push_lit 1 ] in
  check_bool "falls through the cor" true (Interp.run p (View.create 0));
  (* ...but a trailing Cor leaves no result. *)
  check_bool "trailing cor rejected" true
    (raises_invalid (fun () -> ignore (Program.of_insns [ Insn.Push_lit 0; Insn.Cor ])))

let test_word_load_at_len_minus_1 () =
  (* A 16-bit load whose second byte is out of bounds must reject the
     packet — in both execution modes. *)
  let pkt = View.create 54 in
  View.set_uint8 pkt 52 0xff;
  View.set_uint8 pkt 53 0xff;
  let oob = Program.of_insns [ Insn.Push_word 53 ] in
  check_bool "interp rejects" false (Interp.run oob pkt);
  check_bool "compiled rejects" false (Compile.compile oob pkt);
  let fits = Program.of_insns [ Insn.Push_word 52 ] in
  check_bool "interp in-range" true (Interp.run fits pkt);
  check_bool "compiled in-range" true (Compile.compile fits pkt)

(* --- disassembly round-trip ------------------------------------------------- *)

let test_insn_parse_forms () =
  check_bool "hex lit" true (Insn.parse "pushlit 0x0800" = Some (Insn.Push_lit 0x800));
  check_bool "dec lit" true (Insn.parse "pushlit 42" = Some (Insn.Push_lit 42));
  check_bool "word" true (Insn.parse "pushword @36" = Some (Insn.Push_word 36));
  check_bool "shift" true (Insn.parse "shl 4" = Some (Insn.Shl 4));
  check_bool "garbage" true (Insn.parse "jmp 3" = None)

let test_program_of_string_listing () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  match Program.of_string (Format.asprintf "%a" Program.pp p) with
  | Ok p' -> check_bool "same instructions" true (Program.insns p' = Program.insns p)
  | Error e -> Alcotest.fail e

let prop_print_parse_roundtrip =
  QCheck.Test.make ~name:"pp/of_string round-trip on random programs" ~count:500
    (QCheck.make gen_insns) (fun insns ->
      match Program.of_insns insns with
      | exception Program.Invalid _ -> QCheck.assume_fail ()
      | p -> (
          match Program.of_string (Format.asprintf "%a" Program.pp p) with
          | Ok p' -> Program.insns p' = Program.insns p
          | Error _ -> false))

(* --- verifier --------------------------------------------------------------- *)

let always_false_prog () = Program.of_insns [ Insn.Push_byte 0; Insn.Push_lit 300; Insn.Eq ]

let expensive_prog () =
  (* Long load/or chain: not foldable, certified cost ~4342 cycles. *)
  let rec chain n acc =
    if n = 0 then acc else chain (n - 1) (Insn.Push_word 0 :: Insn.Or :: acc)
  in
  Program.of_insns (Insn.Push_word 0 :: chain 120 [])

let test_verify_always_false () =
  let p = always_false_prog () in
  let r = Verify.analyze p in
  check_bool "vacuity" true (r.Verify.vacuity = Verify.Always_false);
  match Verify.admit p with
  | Error Verify.Vacuous_always_false -> ()
  | _ -> Alcotest.fail "expected vacuity rejection"

let test_verify_always_true () =
  let r = Verify.analyze (Program.of_insns [ Insn.Push_lit 1 ]) in
  check_bool "always true" true (r.Verify.vacuity = Verify.Always_true)

let test_verify_min_accept_len () =
  let p = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let r = Verify.analyze p in
  check_bool "satisfiable" true (r.Verify.vacuity = Verify.Satisfiable);
  check "min accept len covers the last port word" 38
    (match r.Verify.min_accept_len with Some n -> n | None -> -1);
  (* the analysis bound agrees with the concrete executor: a packet one
     byte shorter than the certified minimum cannot be accepted *)
  let own = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "at min length accepts" true (Interp.run p (View.sub own 0 38));
  check_bool "below min length rejects" false (Interp.run p (View.sub own 0 37))

let test_verify_over_budget () =
  let p = expensive_prog () in
  (match Verify.admit ~budget:4096 p with
  | Error (Verify.Over_budget { wcet; budget }) ->
      check_bool "wcet exceeds budget" true (wcet > budget)
  | _ -> Alcotest.fail "expected over-budget rejection");
  let d = Demux.create ~mode:Demux.Interpreted ~budget:4096 () in
  match Demux.install d p "ep" with
  | Error (Verify.Over_budget _) -> check "nothing installed" 0 (Demux.entries d)
  | _ -> Alcotest.fail "demux admitted an over-budget filter"

let test_demux_rejects_always_false () =
  let d = Demux.create ~mode:Demux.Interpreted () in
  match Demux.install d (always_false_prog ()) "ep" with
  | Error Verify.Vacuous_always_false -> ()
  | _ -> Alcotest.fail "demux admitted a vacuous filter"

(* --- overlap / subsumption --------------------------------------------------- *)

let conj_prog tests =
  Program.of_insns
    (List.fold_right
       (fun (off, v) rest -> Insn.Push_word off :: Insn.Push_lit v :: Insn.Eq :: Insn.Cand :: rest)
       tests [ Insn.Push_lit 1 ])

let test_overlap_witness () =
  (* Both require IP ethertype; one pins the source port, the other the
     destination port: a packet with both ports is accepted by both. *)
  let a = conj_prog [ (12, 0x0800); (34, 99) ] in
  let b = conj_prog [ (12, 0x0800); (36, 80) ] in
  (match Verify.overlap_witness a b with
  | None -> Alcotest.fail "expected an overlap witness"
  | Some w ->
      check_bool "a accepts the witness" true (Interp.run a w);
      check_bool "b accepts the witness" true (Interp.run b w));
  check_bool "neither subsumes the other" true
    ((not (Verify.subsumes ~general:a ~specific:b))
    && not (Verify.subsumes ~general:b ~specific:a))

let test_overlap_disjoint () =
  let a = Program.udp_port ~dst_ip:ip_b ~dst_port:80 in
  let b = Program.udp_port ~dst_ip:ip_b ~dst_port:81 in
  check_bool "different ports cannot overlap" true (Verify.overlap_witness a b = None)

let test_subsumption_not_flagged () =
  let listener = Program.tcp_dst_port ~dst_ip:ip_b ~dst_port:80 in
  let conn = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  check_bool "listener subsumes its connections" true
    (Verify.subsumes ~general:listener ~specific:conn);
  let d = Demux.create ~mode:Demux.Interpreted () in
  ignore (Demux.install_exn d listener "listener");
  check_bool "benign shadowing not flagged" true (Demux.conflicts d (conn, Absint.analyze conn) = []);
  (* a genuine partial overlap against an installed entry is flagged,
     with a concrete packet both accept *)
  let a = conj_prog [ (12, 0x0800); (34, 99) ] in
  ignore (Demux.install_exn d a "odd");
  let b = conj_prog [ (12, 0x0800); (36, 80) ] in
  match Demux.conflicts d (b, Absint.analyze b) with
  | [ c ] ->
      check_bool "witness accepted by both" true
        (Interp.run a c.Demux.witness && Interp.run b c.Demux.witness)
  | cs -> Alcotest.fail (Printf.sprintf "expected exactly one conflict, got %d" (List.length cs))

(* --- overlap check by program group ------------------------------------------- *)

(* The concrete program a stamp stands for: [p] with the literal of every
   load-vs-literal equality test rewritten from [pins] where they pin the
   bytes its load reads (first pin of an offset wins; a stamp refuses
   two).  Written against the instruction text, not the demux. *)
let bind_program p pins =
  let byte o dflt = match List.assoc_opt o pins with Some v -> v | None -> dflt in
  let lit (l : Insn.t) v =
    match l with
    | Insn.Push_byte o -> byte o v
    | Insn.Push_word o -> (byte o (v lsr 8) lsl 8) lor byte (o + 1) (v land 0xff)
    | _ -> v
  in
  let is_load = function Insn.Push_byte _ | Insn.Push_word _ -> true | _ -> false in
  let rec go = function
    | l :: Insn.Push_lit v :: Insn.Eq :: rest when is_load l ->
        l :: Insn.Push_lit (lit l v) :: Insn.Eq :: go rest
    | Insn.Push_lit v :: l :: Insn.Eq :: rest when is_load l ->
        Insn.Push_lit (lit l v) :: l :: Insn.Eq :: go rest
    | i :: rest -> i :: go rest
    | [] -> []
  in
  Program.of_insns (go (Program.insns p))

(* The per-entry walk [Demux.conflicts] replaced, kept as the reference:
   every live entry, newest first, checked against [program] on its own. *)
let reference_conflicts live (program, a) =
  List.filter_map
    (fun (k, (p, pa), ep) ->
      match Verify.overlap_witness_analyzed (program, a) (p, pa) with
      | Some w
        when not
               (Verify.subsumes_analyzed ~general:a ~specific:pa
               || Verify.subsumes_analyzed ~general:pa ~specific:a) ->
          Some (k, ep, View.to_string w)
      | _ -> None)
    live

(* Overlapping, disjoint, subsuming (a listener with connection filters
   under it) and non-conjunctive programs, chosen to load every part of
   the overlap index: 16 connection filters that share their addresses
   and differ in ports (one shape, many buckets; a repeated install puts
   several groups in one bucket), listeners and port filters whose
   shapes are subsets of the connection shape, programs that pin one
   offset twice, and multi-path [Cor] programs whose paths fall in
   different shapes. *)
let overlap_pool =
  let conns =
    Array.init 16 (fun i ->
        Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:(1000 + (i mod 4)) ~dst_port:(80 + (i / 4)))
  in
  let either first second = Program.of_insns (first @ (Insn.Cor :: Program.insns second)) in
  Array.append
    [| conj_prog [ (12, 0x0800); (34, 99) ];
       conj_prog [ (12, 0x0800); (36, 80) ];
       conj_prog [ (12, 0x0800); (34, 99); (36, 80) ];
       conj_prog [ (12, 0x0800) ];
       conj_prog [ (12, 0x0806) ];
       Program.tcp_dst_port ~dst_ip:ip_b ~dst_port:80;
       Program.tcp_dst_port ~dst_ip:ip_b ~dst_port:81;
       Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80;
       Program.tcp_conn ~src_ip:ip_c ~dst_ip:ip_b ~src_port:1234 ~dst_port:80;
       Program.udp_port ~dst_ip:ip_b ~dst_port:80;
       Program.arp ();
       Program.of_insns
         Insn.[ Push_word 34; Push_lit 99; Eq; Cor; Push_word 36; Push_lit 80; Eq ];
       (* one offset pinned twice: by the same word, and by a word and
          the byte inside it *)
       conj_prog [ (36, 81); (12, 0x0800); (36, 81) ];
       Program.of_insns
         Insn.[ Push_word 36; Push_lit 80; Eq; Cand; Push_byte 37; Push_lit 80; Eq ];
       either Insn.[ Push_word 12; Push_lit 0x0806; Eq ] conns.(5);
       either Insn.[ Push_word 36; Push_lit 81; Eq ]
         (Program.tcp_conn ~src_ip:ip_c ~dst_ip:ip_b ~src_port:1001 ~dst_port:80) |]
    conns

let overlap_pool_analyzed = Array.map (fun p -> (p, Absint.analyze p)) overlap_pool

type table_op = Install of int | Stamp of int * int | Remove of int

(* Each op is followed by a query of the pool program it names. *)
let gen_table_ops =
  let open QCheck.Gen in
  list_size (1 -- 150)
    (pair
       (frequency
          [ (4, map (fun i -> Install i) nat);
            (4, map2 (fun i v -> Stamp (i, v)) nat nat);
            (3, map (fun i -> Remove i) nat) ])
       nat)

let pp_table_op (op, q) =
  (match op with
  | Install i -> Printf.sprintf "install %d" i
  | Stamp (i, v) -> Printf.sprintf "stamp %d %d" i v
  | Remove i -> Printf.sprintf "remove %d" i)
  ^ Printf.sprintf ", query %d" q

let prop_conflicts_match_reference =
  QCheck.Test.make ~name:"grouped conflicts = per-entry walk (install/stamp/remove)" ~count:300
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_table_op ops)) gen_table_ops)
    (fun ops ->
      let d = Demux.create ~mode:Demux.Interpreted ~hier:true () in
      let live = ref [] (* (key, program as installed and its analysis, endpoint), newest first *) in
      let next_ep = ref 0 in
      let pick l i = List.nth l (i mod List.length l) in
      let agrees probe =
        let got =
          List.map
            (fun (c : int Demux.conflict) ->
              (c.Demux.against, c.Demux.with_endpoint, View.to_string c.Demux.witness))
            (Demux.conflicts d probe)
        in
        got = reference_conflicts !live probe
      in
      let n = Array.length overlap_pool_analyzed in
      List.for_all
        (fun (op, q) ->
          (match op with
          | Install i -> (
              (* Alternate the lazily analysed install with the analysed
                 one, which indexes its group at once. *)
              let ((p, _) as pa) = overlap_pool_analyzed.(i mod n) in
              incr next_ep;
              match
                if i / n mod 2 = 0 then Demux.install d p !next_ep
                else Demux.install_analyzed d pa !next_ep
              with
              | Ok k -> live := (k, pa, !next_ep) :: !live
              | Error _ -> ())
          | Stamp (i, v) when !live <> [] -> (
              (* a stamp of the shape of a live entry's program, binding
                 the source port; the reference is that program with the
                 port written in, analysed as if installed *)
              let _, (tp, _), _ = pick !live i in
              let pins = [ (34, v land 0xff); (35, (v lsr 8) land 0xff) ] in
              incr next_ep;
              match Demux.shape d tp with
              | Error _ -> ()
              | Ok sh -> (
                  match Demux.stamp d sh pins !next_ep with
                  | Ok k ->
                      let bp = bind_program tp pins in
                      live := (k, (bp, Absint.analyze bp), !next_ep) :: !live
                  | Error _ -> ()))
          | Remove i when !live <> [] ->
              let k, _, _ = pick !live i in
              Demux.remove d k;
              live := List.filter (fun (k', _, _) -> k' <> k) !live
          | Stamp _ | Remove _ -> ());
          agrees overlap_pool_analyzed.(q mod n))
        ops
      && Array.for_all agrees overlap_pool_analyzed)

(* The merge [Verify.merge_constraints] replaced: a table of pins. *)
let merge_constraints_tbl c1 c2 =
  let tbl = Hashtbl.create 16 in
  let add c =
    List.for_all
      (fun (o, v) ->
        match Hashtbl.find_opt tbl o with
        | Some v' -> v' = v
        | None ->
            Hashtbl.replace tbl o v;
            true)
      c
  in
  if add c1 && add c2 then
    Some (List.sort compare (Hashtbl.fold (fun o v acc -> (o, v) :: acc) tbl []))
  else None

let prop_merge_matches_table =
  (* Few offsets and values, so duplicate pins and self-contradicting
     offsets within one list are common. *)
  let pins = QCheck.Gen.(list_size (0 -- 8) (pair (0 -- 7) (0 -- 2)) >|= List.sort compare) in
  QCheck.Test.make ~name:"linear merge_constraints = table merge" ~count:2000
    QCheck.(make ~print:Print.(pair (list (pair int int)) (list (pair int int))) Gen.(pair pins pins))
    (fun (c1, c2) -> Verify.merge_constraints c1 c2 = merge_constraints_tbl c1 c2)

(* Words allocated so far, minor and direct-major (as in test_datapath). *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* The overlap index makes a clean install's check cost the same however
   many connection groups are live: the probe's connection shape selects
   one (empty) bucket.  Checked against every group, the words grew
   linearly, one overlap check per group. *)
let test_conflicts_flat_in_groups () =
  let probe =
    let p = Program.tcp_conn ~src_ip:ip_c ~dst_ip:ip_b ~src_port:4242 ~dst_port:80 in
    (p, Absint.analyze p)
  in
  let words_for n =
    let d = Demux.create ~mode:Demux.Interpreted () in
    ignore (Demux.install_exn d (Program.tcp_dst_port ~dst_ip:ip_b ~dst_port:80) 0);
    for i = 1 to n do
      ignore
        (Demux.install_exn d
           (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:(1000 + i) ~dst_port:80)
           i)
    done;
    check "one group per install" (n + 1) (Demux.live_groups d);
    (* the first check indexes the groups, whose analyses it forces *)
    check_bool "clean" true (Demux.conflicts d probe = []);
    Gc.minor ();
    let before = allocated_words () in
    let got = Demux.conflicts d probe in
    let words = allocated_words () -. before in
    check_bool "still clean" true (got = []);
    words
  in
  let small = words_for 16 and large = words_for 1024 in
  check_bool
    (Printf.sprintf "conflicts: %.0f words at 16 groups, %.0f at 1024; bound 2x" small large)
    true
    (large <= 2. *. small)

let test_stamped_population_one_group () =
  let d = Demux.create ~mode:Demux.Interpreted ~hier:true () in
  let tk =
    Demux.install_exn d (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9999 ~dst_port:80) 0
  in
  let sh =
    match Demux.shape d (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9999 ~dst_port:80) with
    | Ok sh -> sh
    | Error _ -> Alcotest.fail "tcp_conn has no shape"
  in
  for i = 1 to 65_536 do
    match
      Demux.stamp d sh
        (Program.tcp_conn_pins
           ~src_ip:(Ip.make 10 1 ((i lsr 8) land 0xff) (i land 0xff))
           ~dst_ip:ip_b ~src_port:9999 ~dst_port:80)
        i
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Format.asprintf "%a" Demux.pp_stamp_error e)
  done;
  check "entries" 65_537 (Demux.entries d);
  check "the installed program is the one group; stamps found none" 1 (Demux.live_groups d);
  let lk = Demux.install_exn d (Program.tcp_dst_port ~dst_ip:ip_b ~dst_port:81) (-1) in
  check "an install founds its own group" 2 (Demux.live_groups d);
  Demux.remove d tk;
  check "a removed install leaves; the stamps still found none" 1 (Demux.live_groups d);
  Demux.remove d lk;
  check "no group is left" 0 (Demux.live_groups d)

(* --- dispatch cost accounting ------------------------------------------------- *)

let test_dispatch_charges_executed_only () =
  let d = Demux.create ~mode:Demux.Interpreted () in
  let conn = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let k = Demux.install_exn d conn "conn" in
  let wcet = match Demux.wcet d k with Some w -> w | None -> -1 in
  (* An ARP packet fails the very first ethertype test: only that
     prefix (load+lit+eq+cand = 58 cycles) is charged, not the 400+
     cycle worst case. *)
  let arp_pkt = View.create 42 in
  View.set_uint16 arp_pkt 12 0x0806;
  let ep, cost = Demux.dispatch d arp_pkt in
  check_bool "no match" true (ep = None);
  check "charged only the first test" 58 cost;
  check_bool "well under the certified worst case" true (cost < wcet);
  (* a matching packet runs the whole optimized program: exactly the
     certified worst case, no more *)
  let own = fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let _, full = Demux.dispatch d own in
  check "matching packet costs the certified wcet" wcet full

(* --- stamped entries: charged cycles and footprint ------------------------ *)

(* Random stamped tables.  Templates are tcp_conn filters, installed as
   programs, each with its shape; stamps bind bytes at offsets drawn from
   a small pool, so bindings arrive unsorted, with duplicate offsets
   (a contradictory pair is refused) and now and then an offset the
   shape does not pin (refused too).  Templates may be dropped while
   their stamps live. *)
type stamp_op =
  | Template of int  (* install tcp_conn from source port 1000 + i *)
  | Stamp of int * (int * int) list  (* template pick, pins *)
  | Drop of int  (* remove a live template *)
  | Probe of int * int * int option  (* entry pick, length, flipped pin offset *)

let pp_stamp_op = function
  | Template i -> Printf.sprintf "template %d" i
  | Stamp (i, cs) ->
      Printf.sprintf "stamp %d [%s]" i
        (String.concat ";" (List.map (fun (o, v) -> Printf.sprintf "%d=%d" o v) cs))
  | Drop i -> Printf.sprintf "drop %d" i
  | Probe (e, len, flip) ->
      Printf.sprintf "probe %d len %d%s" e len
        (match flip with Some o -> Printf.sprintf " flip %d" o | None -> "")

let template_program i =
  Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:(1000 + i) ~dst_port:80

let template_packet i =
  fake_tcp_packet ~src_ip:ip_a ~dst_ip:ip_b ~src_port:(1000 + i) ~dst_port:80

let pin_offsets = [ 12; 13; 14; 23; 27; 29; 31; 33; 34; 35; 36; 37 ]

(* The offsets a tcp_conn shape pins. *)
let tcp_pinned = List.map fst (Program.tcp_conn_pins ~src_ip:ip_a ~dst_ip:ip_b ~src_port:0 ~dst_port:0)

(* Mostly the bytes some template expects, so that a near-miss packet
   gets a varying way into the program before it fails. *)
let gen_pin =
  let open QCheck.Gen in
  oneofl pin_offsets >>= fun o ->
  map (fun v -> (o, v))
    (frequency [ (3, map (fun i -> View.get_uint8 (template_packet i) o) (0 -- 7)); (1, 0 -- 3) ])

let gen_stamp_ops =
  let open QCheck.Gen in
  list_size (1 -- 40)
    (frequency
       [ (1, map (fun i -> Template i) (0 -- 7));
         (4, map2 (fun i cs -> Stamp (i, cs)) (0 -- 7) (list_size (1 -- 8) gen_pin));
         (1, map (fun i -> Drop i) (0 -- 7));
         ( 4,
           map3
             (fun e len flip -> Probe (e, len, flip))
             (0 -- 63) (30 -- 64)
             (option (oneofl pin_offsets)) ) ])

(* [p] optimized, as the table runs it, in [mode]'s cost model. *)
let counted mode p =
  let o = Optimize.run p in
  match mode with
  | Demux.Interpreted -> Interp.run_counted o
  | Demux.Compiled -> Compile.compile_counted o

let write_pins v cs = List.iter (fun (o, b) -> View.set_uint8 v o b) cs

(* On the scan path every packet's (endpoint, cycles) equals a reference
   walk in priority order in which a template runs its own optimized
   program and a stamp runs the bound concrete program: the template's
   with the stamp's bytes written into its literals. *)
let prop_stamped_cycles_match_eager =
  QCheck.Test.make ~name:"stamped scan cycles = eager reference (interp/compiled)" ~count:300
    (QCheck.make
       ~print:(fun (compiled, ops) ->
         (if compiled then "compiled: " else "interpreted: ")
         ^ String.concat "; " (List.map pp_stamp_op ops))
       QCheck.Gen.(pair bool gen_stamp_ops))
    (fun (compiled, ops) ->
      let mode = if compiled then Demux.Compiled else Demux.Interpreted in
      let d = Demux.create ~mode ~hier:true () in
      Demux.set_hier d false;
      (* reference entries, newest first: key, endpoint and its run *)
      let live = ref [] in
      let templates = ref [] (* (key, i, shape), newest first *) in
      let probes = ref [] (* every packet an entry was built around *) in
      let next_ep = ref 0 in
      let pick l i = List.nth l (i mod List.length l) in
      List.for_all
        (fun op ->
          match op with
          | Template i ->
              incr next_ep;
              let k = Demux.install_exn d (template_program i) !next_ep in
              let sh =
                match Demux.shape d (template_program i) with
                | Ok sh -> sh
                | Error _ -> QCheck.Test.fail_reportf "tcp_conn has no shape"
              in
              templates := (k, i, sh) :: !templates;
              live := (k, !next_ep, counted mode (template_program i)) :: !live;
              probes := template_packet i :: !probes;
              true
          | Stamp (i, cs) when !templates <> [] -> (
              let _, ti, sh = pick !templates i in
              let refused =
                List.exists (fun (o, _) -> not (List.mem o tcp_pinned)) cs
                || List.exists (fun (o, v) -> List.exists (fun (o', v') -> o = o' && v <> v') cs) cs
              in
              let before = Demux.entries d in
              incr next_ep;
              match Demux.stamp d sh cs !next_ep with
              | Ok k when not refused ->
                  live := (k, !next_ep, counted mode (bind_program (template_program ti) cs)) :: !live;
                  let pkt = template_packet ti in
                  write_pins pkt cs;
                  probes := pkt :: !probes;
                  true
              | Error _ when refused -> Demux.entries d = before
              | Ok _ -> QCheck.Test.fail_reportf "a refusable stamp was made"
              | Error e -> QCheck.Test.fail_reportf "stamp: %a" Demux.pp_stamp_error e)
          | Drop i when !templates <> [] ->
              let tk, _, _ = pick !templates i in
              Demux.remove d tk;
              templates := List.filter (fun (k, _, _) -> k <> tk) !templates;
              live := List.filter (fun (k, _, _) -> k <> tk) !live;
              true
          | Probe (e, len, flip) when !probes <> [] ->
              let base = pick !probes e in
              let pkt = View.create len in
              View.blit base 0 pkt 0 (min len (View.length base));
              (match flip with
              | Some o when o < len -> View.set_uint8 pkt o (View.get_uint8 pkt o lxor 1)
              | _ -> ());
              let rec walk cost = function
                | [] -> (None, cost)
                | (_, ep, run) :: rest ->
                    let ok, c = run pkt in
                    if ok then (Some ep, cost + c) else walk (cost + c) rest
              in
              Demux.dispatch d pkt = walk 0 !live
          | Stamp _ | Drop _ | Probe _ -> true)
        ops)

(* The exactness oracle.  Random shapes — tcp_conn of a random 4-tuple,
   or a chain of word and byte equality tests at random offsets whose
   literals come from one random packet — random bindings of their
   pinned bytes, and packets around the stamp's own: itself, a near miss
   at every pinned byte, every shorter length down past the shape's
   minimum, and random flipped bytes.  In both modes a stamp's
   (accepted, cycles) equals the bound concrete program's, optimized;
   and the hierarchical index, which trusts the stamp's bytes, agrees. *)
type shape_case =
  | Conn of int * int * int * int  (* remote ip, local ip, remote port, local port *)
  | Chain of (int * int) list  (* (offset, width) tests *)

let pp_shape_case = function
  | Conn (a, b, sp, dp) -> Printf.sprintf "conn %x %x %d %d" a b sp dp
  | Chain ts -> "chain " ^ String.concat ";" (List.map (fun (o, w) -> Printf.sprintf "%d/%d" o w) ts)

let gen_shape_case =
  let open QCheck.Gen in
  frequency
    [ ( 1,
        map
          (fun (a, b, sp, dp) -> Conn (a, b, sp, dp))
          (quad (0 -- 0x3fffffff) (0 -- 0x3fffffff) (0 -- 0xffff) (0 -- 0xffff)) );
      (2, map (fun ts -> Chain ts) (list_size (1 -- 5) (pair (10 -- 40) (1 -- 2)))) ]

let ip_of_int i = Ip.make ((i lsr 24) land 0xff) ((i lsr 16) land 0xff) ((i lsr 8) land 0xff) (i land 0xff)

let prop_stamp_exact =
  QCheck.Test.make ~name:"stamp = bound concrete program (interp/compiled)" ~count:500
    (QCheck.make
       ~print:(fun (compiled, case, base, binds, flips) ->
         Printf.sprintf "%s %s base %S binds [%s] flips [%s]"
           (if compiled then "compiled" else "interpreted")
           (pp_shape_case case) base
           (String.concat ";" (List.map (fun (k, v) -> Printf.sprintf "%d=%d" k v) binds))
           (String.concat ";" (List.map string_of_int flips)))
       QCheck.Gen.(
         tup5 bool gen_shape_case (string_size (return 48))
           (list_size (0 -- 6) (pair nat (0 -- 255)))
           (list_size (0 -- 6) (0 -- 47))))
    (fun (compiled, case, base, binds, flips) ->
      let mode = if compiled then Demux.Compiled else Demux.Interpreted in
      let byte o = Char.code base.[o] in
      let program, pinned =
        match case with
        | Conn (a, b, sp, dp) ->
            let pins =
              Program.tcp_conn_pins ~src_ip:(ip_of_int a) ~dst_ip:(ip_of_int b) ~src_port:sp
                ~dst_port:dp
            in
            ( Program.tcp_conn ~src_ip:(ip_of_int a) ~dst_ip:(ip_of_int b) ~src_port:sp
                ~dst_port:dp,
              List.map fst pins )
        | Chain ts ->
            let test (o, w) =
              if w = 1 then [ Insn.Push_byte o; Insn.Push_lit (byte o); Insn.Eq; Insn.Cand ]
              else [ Insn.Push_word o; Insn.Push_lit ((byte o lsl 8) lor byte (o + 1)); Insn.Eq; Insn.Cand ]
            in
            ( Program.of_insns (List.concat_map test ts @ [ Insn.Push_lit 1 ]),
              List.sort_uniq compare (List.concat_map (fun (o, w) -> if w = 1 then [ o ] else [ o; o + 1 ]) ts) )
      in
      let d = Demux.create ~mode () in
      match Demux.shape d program with
      | Error _ -> QCheck.Test.fail_reportf "no shape"
      | Ok sh -> (
          let n = List.length pinned in
          (* one binding per offset, the first drawn *)
          let pins =
            List.fold_left
              (fun acc (k, v) ->
                let o = List.nth pinned (k mod n) in
                if List.mem_assoc o acc then acc else acc @ [ (o, v) ])
              [] binds
          in
          match Demux.stamp d sh pins 1 with
          | Error e -> QCheck.Test.fail_reportf "stamp: %a" Demux.pp_stamp_error e
          | Ok _ ->
              let concrete = bind_program program pins in
              let reference = counted mode concrete in
              (* the stamp's own packet: the shape's bytes, bound *)
              let own = View.create 54 in
              (match case with
              | Conn _ -> write_pins own (Program.tcp_conn_pins ~src_ip:Ip.any ~dst_ip:Ip.any ~src_port:0 ~dst_port:0)
              | Chain _ -> View.blit (View.of_string base) 0 own 0 48);
              (match case with
              | Conn (a, b, sp, dp) ->
                  write_pins own
                    (Program.tcp_conn_pins ~src_ip:(ip_of_int a) ~dst_ip:(ip_of_int b)
                       ~src_port:sp ~dst_port:dp)
              | Chain _ -> ());
              write_pins own pins;
              let variant f =
                let v = View.create (View.length own) in
                View.blit own 0 v 0 (View.length own);
                f v;
                v
              in
              let flip o v = View.set_uint8 v o (View.get_uint8 v o lxor 0x5a) in
              let packets =
                (own :: List.map (fun o -> variant (flip o)) pinned)
                @ List.map (fun o -> variant (flip o)) flips
                @ List.init 54 (fun len -> View.sub own 0 len)
              in
              List.for_all
                (fun pkt ->
                  Demux.set_hier d false;
                  let ep, cycles = Demux.dispatch d pkt in
                  Demux.set_hier d true;
                  let hier_ep, _ = Demux.dispatch d pkt in
                  (ep <> None, cycles) = reference pkt && hier_ep = ep)
                packets))

(* [tcp_conn_pins] is the byte image of [tcp_conn], and [tcp_conn_bytes]
   its bytes in the same order; a stamp of them is the program itself. *)
let test_tcp_conn_pins () =
  let args = (ip_a, ip_b, 1234, 80) in
  let src_ip, dst_ip, src_port, dst_port = args in
  let pins = Program.tcp_conn_pins ~src_ip ~dst_ip ~src_port ~dst_port in
  let a = Absint.analyze (Program.tcp_conn ~src_ip ~dst_ip ~src_port ~dst_port) in
  (match a.Absint.r_accept_paths with
  | [ ap ] -> Alcotest.(check (list (pair int int))) "the program's constraints" ap.Absint.ap_constraints pins
  | _ -> Alcotest.fail "tcp_conn has one accept path");
  Alcotest.(check string) "bytes in pin order"
    (String.init (List.length pins) (fun i -> Char.chr (snd (List.nth pins i))))
    (Program.tcp_conn_bytes ~src_ip ~dst_ip ~src_port ~dst_port)

(* A binding the shape does not pin, two values for one byte, a
   non-byte, and a send template whose source is not the stamp's local
   address are refused with their typed errors before the table
   changes; so is [install_stamped]'s text error. *)
let test_stamp_rejects_non_byte_pin () =
  let d = Demux.create ~mode:Demux.Interpreted ~hier:true () in
  let tk =
    Demux.install_exn d (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9999 ~dst_port:80) 0
  in
  List.iter
    (fun pin ->
      match Demux.install_stamped d ~template:tk ~constraints:[ (34, 1); pin ] ~min_len:54 1 with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "a non-byte pin was stamped")
    [ (35, 256); (35, -1); (-1, 0) ];
  let sh =
    match Demux.shape d (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9999 ~dst_port:80) with
    | Ok sh -> sh
    | Error _ -> Alcotest.fail "tcp_conn has no shape"
  in
  let refused what expect ?template pins =
    match Demux.stamp ?template d sh pins 1 with
    | Error e when expect e -> ()
    | Error e -> Alcotest.fail (Format.asprintf "%s: wrong refusal: %a" what Demux.pp_stamp_error e)
    | Ok _ -> Alcotest.fail (what ^ " was stamped")
  in
  refused "an unpinned byte" (function Demux.Unpinned { offset = 14 } -> true | _ -> false) [ (14, 0x45) ];
  refused "two values for one byte"
    (function Demux.Conflicting { offset = 35 } -> true | _ -> false)
    [ (35, 1); (34, 0); (35, 2) ];
  refused "a non-byte" (function Demux.Not_a_byte _ -> true | _ -> false) [ (35, 256) ];
  refused "an impersonating template"
    (function Demux.Impersonation (Verify.Impersonation_hole _) -> true | _ -> false)
    ~template:(Template.tcp_conn ~src_ip:ip_c ~dst_ip:ip_a ~src_port:80 ~dst_port:9999 ())
    [];
  (match
     Demux.stamp d sh
       ~template:(Template.tcp_conn ~src_ip:ip_b ~dst_ip:ip_a ~src_port:80 ~dst_port:9999 ())
       [] 2
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Format.asprintf "an honest template: %a" Demux.pp_stamp_error e));
  check "the template and the honest stamp" 2 (Demux.entries d)

(* Live words a stamped entry keeps in a bare hierarchical table: its
   record, its proof (offsets shared with its shape, one 15-byte key
   string for bucket, flow cache and binding), and its index cells — no
   program, analysis or closure of its own.  Read with this harness on
   x86-64 (dev and release builds alike): 60.5 words when every stamp
   carried a closure over its sorted constraint list, 34.5 with the
   compact proof of 4 pinned bytes, 33.0 as a stamp of the whole
   tcp_conn shape (15 bytes). *)
let test_stamped_retained_words () =
  let n = 4096 in
  let d = Demux.create ~mode:Demux.Interpreted ~hier:true () in
  let sh =
    match Demux.shape d (Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:9999 ~dst_port:80) with
    | Ok sh -> sh
    | Error _ -> Alcotest.fail "tcp_conn has no shape"
  in
  Gc.full_major ();
  let before = (Gc.stat ()).Gc.live_words in
  for i = 1 to n do
    match
      Demux.stamp d sh
        (Program.tcp_conn_pins
           ~src_ip:(Ip.make 10 1 ((i lsr 8) land 0xff) (i land 0xff))
           ~dst_ip:ip_b ~src_port:0x270f ~dst_port:80)
        i
    with
    | Ok _ -> ()
    | Error e -> Alcotest.fail (Format.asprintf "%a" Demux.pp_stamp_error e)
  done;
  Gc.full_major ();
  let per_entry =
    float_of_int ((Gc.stat ()).Gc.live_words - before) /. float_of_int n
  in
  check "entries" n (Demux.entries (Sys.opaque_identity d));
  check_bool (Printf.sprintf "%.1f live words per stamped entry; bound 45" per_entry) true
    (per_entry < 45.)

(* --- optimizer --------------------------------------------------------------- *)

let test_optimize_folds_constants () =
  let p =
    Program.of_insns [ Insn.Push_lit 2; Insn.Push_lit 3; Insn.Add; Insn.Push_lit 5; Insn.Eq ]
  in
  check_bool "folded to a constant" true (Program.insns (Optimize.run p) = [ Insn.Push_lit 1 ])

let test_optimize_dead_branch () =
  let p = Program.of_insns [ Insn.Push_lit 0; Insn.Cand; Insn.Push_word 1000 ] in
  check_bool "truncated after decided cand" true
    (Program.insns (Optimize.run p) = [ Insn.Push_lit 0 ])

let test_optimize_redundant_load () =
  (* The second load of a byte pinned by an earlier passed equality
     becomes a literal, and the re-test then folds away entirely. *)
  let p =
    Program.of_insns
      [ Insn.Push_byte 23; Insn.Push_lit 6; Insn.Eq; Insn.Cand;
        Insn.Push_byte 23; Insn.Push_lit 6; Insn.Eq ]
  in
  check_bool "re-test eliminated" true
    (Program.insns (Optimize.run p) = [ Insn.Push_byte 23; Insn.Push_lit 6; Insn.Eq ])

let test_optimize_reduces_standard_filters () =
  List.iter
    (fun (name, p) ->
      let o = Optimize.run p in
      check_bool (name ^ " optimized is cheaper") true
        (Program.interp_cycles o < Program.interp_cycles p))
    [ ("tcp_conn", Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80);
      ("udp_port", Program.udp_port ~dst_ip:ip_b ~dst_port:53);
      ("arp", Program.arp ()) ]

let prop_optimizer_preserves_semantics =
  QCheck.Test.make
    ~name:"interp = compiled = optimized interp = optimized compiled (random programs/packets)"
    ~count:1000
    (QCheck.make
       (QCheck.Gen.pair gen_insns
          (QCheck.Gen.string_size ~gen:QCheck.Gen.char (QCheck.Gen.( -- ) 0 80))))
    (fun (insns, pkt_str) ->
      match Program.of_insns insns with
      | exception Program.Invalid _ -> QCheck.assume_fail ()
      | p ->
          let pkt = View.of_string pkt_str in
          let o = Optimize.run p in
          let reference = Interp.run p pkt in
          Compile.compile p pkt = reference
          && Interp.run o pkt = reference
          && Compile.compile o pkt = reference)

(* --- template cross-check ------------------------------------------------------ *)

let test_check_template_consistent () =
  (* Filter receives ip_a->ip_b; the matching send capability sources
     from ip_b.  This is exactly what the registry installs. *)
  let filter = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  let tpl = Template.tcp_conn ~src_ip:ip_b ~dst_ip:ip_a ~src_port:80 ~dst_port:1234 () in
  check_bool "accepted" true (Verify.check_template ~filter:(Absint.analyze filter) tpl = Ok ())

let test_check_template_impersonation () =
  let filter = Program.tcp_conn ~src_ip:ip_a ~dst_ip:ip_b ~src_port:1234 ~dst_port:80 in
  (* Claims to send from ip_c while the receive side is bound to ip_b:
     granting this template would let the holder impersonate ip_c. *)
  let forged = Template.tcp_conn ~src_ip:ip_c ~dst_ip:ip_a ~src_port:80 ~dst_port:1234 () in
  match Verify.check_template ~filter:(Absint.analyze filter) forged with
  | Error (Verify.Impersonation_hole _) -> ()
  | _ -> Alcotest.fail "expected an impersonation hole"

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run ~and_exit:false "pktfilter-props"
    [ ( "tuple-isolation",
        [ qc prop_template_sound_and_complete; qc prop_filter_matches_only_own_tuple ] );
      ( "validation-edges",
        [ Alcotest.test_case "stack depth limit" `Quick test_validation_depth_limit;
          Alcotest.test_case "cor empties stack mid-program" `Quick test_validation_cor_empty_mid;
          Alcotest.test_case "word load at len-1" `Quick test_word_load_at_len_minus_1 ] );
      ( "disasm",
        [ Alcotest.test_case "insn parse forms" `Quick test_insn_parse_forms;
          Alcotest.test_case "listing round-trip" `Quick test_program_of_string_listing;
          qc prop_print_parse_roundtrip ] );
      ( "verify",
        [ Alcotest.test_case "always-false rejected" `Quick test_verify_always_false;
          Alcotest.test_case "always-true detected" `Quick test_verify_always_true;
          Alcotest.test_case "min accept length" `Quick test_verify_min_accept_len;
          Alcotest.test_case "over-budget rejected" `Quick test_verify_over_budget;
          Alcotest.test_case "demux rejects vacuous" `Quick test_demux_rejects_always_false ] );
      ( "overlap",
        [ Alcotest.test_case "partial overlap witness" `Quick test_overlap_witness;
          Alcotest.test_case "disjoint ports" `Quick test_overlap_disjoint;
          Alcotest.test_case "subsumption not flagged" `Quick test_subsumption_not_flagged;
          qc prop_conflicts_match_reference;
          qc prop_merge_matches_table;
          Alcotest.test_case "stamped population is one group" `Quick
            test_stamped_population_one_group;
          Alcotest.test_case "conflicts cost flat in live groups" `Quick
            test_conflicts_flat_in_groups ] );
      ( "cost",
        [ Alcotest.test_case "charges executed cycles" `Quick test_dispatch_charges_executed_only;
          qc prop_stamped_cycles_match_eager;
          qc prop_stamp_exact;
          Alcotest.test_case "tcp_conn pins and bytes" `Quick test_tcp_conn_pins;
          Alcotest.test_case "stamp rejects a non-byte pin" `Quick test_stamp_rejects_non_byte_pin;
          Alcotest.test_case "stamped entry retained words" `Quick test_stamped_retained_words ] );
      ( "optimize",
        [ Alcotest.test_case "constant folding" `Quick test_optimize_folds_constants;
          Alcotest.test_case "dead branch" `Quick test_optimize_dead_branch;
          Alcotest.test_case "redundant load" `Quick test_optimize_redundant_load;
          Alcotest.test_case "standard filters get cheaper" `Quick test_optimize_reduces_standard_filters;
          qc prop_optimizer_preserves_semantics ] );
      ( "template-check",
        [ Alcotest.test_case "consistent pair" `Quick test_check_template_consistent;
          Alcotest.test_case "impersonation hole" `Quick test_check_template_impersonation ] ) ]
