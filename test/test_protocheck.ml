(* The proto-check analysis pass, and the session-typed FSM it checks:
   the green path on the real tree, the seeded failure paths (the lint
   must be able to fail), witness linearity and the shadow oracle, the
   predicate/relation consistency property, and the bench specs the
   switch registry resolves against. *)

open Tutil
module State = Uln_proto.Tcp_state
module Fsm = Uln_proto.Tcp_fsm
module PC = Uln_protocheck.Proto_check

let check_bool = Alcotest.(check bool)

let failing findings = List.filter (fun f -> not f.PC.f_ok) findings

let has_failure findings name =
  List.exists (fun f -> f.PC.f_check = name) (failing findings)

(* --- the analysis pass ------------------------------------------------ *)

let test_fsm_green () =
  let fs = PC.check_fsm () in
  check_bool "fsm checks pass on the real relation" true (PC.ok fs);
  check_bool "nonempty" true (fs <> [])

let test_fsm_seeded_unhandled_fails () =
  let fs = PC.check_fsm ~seed_unhandled:true () in
  check_bool "seeded hole detected" true (has_failure fs "fsm-exhaustive");
  (* Only the tiling breaks; dispatch conformance is judged against the
     same (seeded) view, so the seed isolates the check under test. *)
  check_bool "reachability untouched" false (has_failure fs "fsm-reachable")

let test_locks_green () =
  let fs = PC.check_locks () in
  check_bool "lock checks pass on the declared hierarchy" true (PC.ok fs)

let test_locks_seeded_cycle_fails () =
  let fs = PC.check_locks ~seed_cycle:true () in
  check_bool "inverted edge detected" true (has_failure fs "lock-monotone");
  check_bool "cycle detected" true (has_failure fs "lock-acyclic")

(* --- witness linearity and typed flows -------------------------------- *)

let test_witness_linear () =
  let w = Fsm.closed () in
  let listen = Fsm.step w Fsm.Passive_open in
  check_bool "stepped to LISTEN" true (Fsm.state_of listen = State.Listen);
  (* The same witness again: dynamically linear, so the alias is dead. *)
  check_bool "spent witness refused" true
    (try
       ignore (Fsm.step w Fsm.Active_open);
       false
     with Fsm.Violation (Fsm.Reused _) -> true)

let test_packed_wrong_source () =
  let p = Fsm.Packed.active_open () in
  check_bool "SYN_SENT" true (Fsm.Packed.state p = State.Syn_sent);
  check_bool "wrong-source transition refused" true
    (try
       ignore (Fsm.Packed.apply p Fsm.Rcv_ack_of_syn);
       false
     with Fsm.Violation (Fsm.Wrong_source _) -> true)

let test_shadow_divergence_raises () =
  let p = Fsm.Packed.active_open () in
  Fsm.Packed.check_shadow p State.Syn_sent;
  check_bool "divergent shadow refused" true
    (try
       Fsm.Packed.check_shadow p State.Established;
       false
     with Fsm.Violation (Fsm.Shadow_divergence _) -> true)

let test_permits_follow_state () =
  let p = Fsm.Packed.active_open () in
  check_bool "no send permit in SYN_SENT" true (Fsm.Packed.send_permit p = None);
  check_bool "bqi permit in SYN_SENT" true (Fsm.Packed.bqi_permit p <> None);
  let p = Fsm.Packed.apply p Fsm.Rcv_syn_ack in
  check_bool "send permit in ESTABLISHED" true (Fsm.Packed.send_permit p <> None);
  check_bool "no bqi permit in ESTABLISHED" true (Fsm.Packed.bqi_permit p = None);
  let p = Fsm.Packed.retire p ~clean:false in
  check_bool "retired witness shadows CLOSED" true (Fsm.Packed.state p = State.Closed);
  check_bool "no permits after retirement" true
    (Fsm.Packed.send_permit p = None && Fsm.Packed.bqi_permit p = None)

(* --- the shadow oracle is exercised by real traffic ------------------- *)

let test_shadow_oracle_exercised () =
  Fsm.reset_counters ();
  let w = make_world () in
  let received = ref "" in
  Sched.spawn w.sched ~name:"server" (fun () ->
      let l = Tcp.listen w.b.stack.Stack.tcp ~port:80 in
      let conn, _witness = Tcp.accept l in
      received := read_all conn;
      Tcp.close conn);
  run_to_completion w (fun () ->
      match Tcp.connect w.a.stack.Stack.tcp ~src_port:5000 ~dst:w.b.ip ~dst_port:80 with
      | Error e -> failwith e
      | Ok (c, _witness) ->
          Tcp.write c (View.of_string "through the witness");
          Tcp.close c;
          Tcp.await_closed c);
  Alcotest.(check string) "payload" "through the witness" !received;
  (* A full handshake + orderly release on both sides: at least
     Closed->{Listen,Syn_sent} and on through the FIN exchange.  The
     exact count is the FSM's business; that it is substantial — and
     that every step also ran a shadow comparison — is the oracle's. *)
  check_bool "witness transitions applied" true (Fsm.transitions_applied () >= 10);
  check_bool "shadow checks ran" true (Fsm.shadow_checks_made () >= 10)

(* --- predicate/relation consistency (qcheck) -------------------------- *)

let arb_state = QCheck.oneofl ~print:State.to_string State.all

let prop_predicates_consistent =
  QCheck.Test.make ~name:"Tcp_state predicates are mutually consistent and mirror the FSM"
    ~count:200 arb_state (fun s ->
      (* Implications among the predicates themselves. *)
      ((not (State.can_send_data s)) || State.synchronized s)
      && ((not (State.have_received_fin s)) || State.synchronized s)
      && ((not (State.can_receive_data s)) || not (State.have_received_fin s))
      (* The typed permit rows are the same sets. *)
      && List.mem s Fsm.send_states = State.can_send_data s
      && List.mem s Fsm.recv_states = State.can_receive_data s
      && List.mem s Fsm.bqi_states = ((not (State.synchronized s)) && s <> State.Closed))

let prop_relation_respects_predicates =
  (* Along every declared edge: receiving a FIN lands in a state that
     remembers it, and no edge leaves a FIN-seen state for a state that
     has forgotten it (the engine reports EOF exactly once). *)
  QCheck.Test.make ~name:"declared edges preserve FIN knowledge" ~count:50
    (QCheck.oneofl Fsm.edges) (fun e ->
      (e.Fsm.e_event <> Fsm.Ev_rcv_fin || State.have_received_fin e.Fsm.e_to)
      && ((not (State.have_received_fin e.Fsm.e_from))
         || e.Fsm.e_to = State.Closed
         || State.have_received_fin e.Fsm.e_to))

(* --- the bench specs behind the switch registry ------------------------ *)

module B = Uln_workload.Bench_spec
module Params = Uln_proto.Tcp_params

let test_spec_names_unique () =
  let names = List.map (fun s -> s.B.name) (B.all_specs ()) in
  List.iter
    (fun n ->
      Alcotest.(check int) ("one spec named " ^ n) 1 (List.length (List.filter (( = ) n) names)))
    names

let spec_of (sw : Params.switch) =
  match B.find_spec sw.Params.sw_bench_row with
  | Some s -> s
  | None -> Alcotest.failf "%s: no spec named %S" sw.Params.sw_field sw.Params.sw_bench_row

let test_switch_rows_resolve () = List.iter (fun sw -> ignore (spec_of sw)) Params.switches

(* Leaving a switch out of its spec's preset must change the preset,
   or the leave-one-out row would measure nothing. *)
let test_switch_off_changes_preset () =
  List.iter
    (fun (sw : Params.switch) ->
      let s = spec_of sw in
      check_bool
        (Printf.sprintf "%s off differs from preset %s" sw.Params.sw_field s.B.preset_name)
        true
        (sw.Params.sw_off s.B.preset <> s.B.preset))
    Params.switches

(* The dead-export lint on a two-file tree: a val named only in its own
   module (or in a comment elsewhere) fails until it is allowlisted. *)
let test_dead_export_seeded () =
  let root = Filename.temp_dir "deadexport" "" in
  let write rel text =
    let path = Filename.concat root rel in
    let rec mkdirs d =
      if not (Sys.file_exists d) then begin
        mkdirs (Filename.dirname d);
        Sys.mkdir d 0o755
      end
    in
    mkdirs (Filename.dirname path);
    Out_channel.with_open_bin path (fun oc -> output_string oc text)
  in
  write "lib/m/m.mli" "val used : int\nval dead : int\n";
  write "lib/m/m.ml" "let used = 1\nlet dead = used\n";
  write "bin/main.ml" "(* M.dead *)\nlet () = print_int M.used\n";
  let fs = PC.check_dead_exports ~allow:[] ~root () in
  check_bool "dead val flagged" true
    (List.map (fun f -> f.PC.f_detail) (failing fs) = [ "M.dead: not named outside its module" ]);
  check_bool "allowlisted with a reason" true
    (PC.ok (PC.check_dead_exports ~allow:[ ("M.dead", "kept for debugging") ] ~root ()))

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run ~and_exit:false "protocheck"
    [ ( "analysis",
        [ Alcotest.test_case "fsm checks green" `Quick test_fsm_green;
          Alcotest.test_case "seeded unhandled pair fails" `Quick
            test_fsm_seeded_unhandled_fails;
          Alcotest.test_case "lock checks green" `Quick test_locks_green;
          Alcotest.test_case "seeded lock cycle fails" `Quick
            test_locks_seeded_cycle_fails;
          Alcotest.test_case "seeded dead export fails" `Quick test_dead_export_seeded ] );
      ( "witnesses",
        [ Alcotest.test_case "witnesses are linear" `Quick test_witness_linear;
          Alcotest.test_case "wrong-source refused" `Quick test_packed_wrong_source;
          Alcotest.test_case "shadow divergence raises" `Quick
            test_shadow_divergence_raises;
          Alcotest.test_case "permits follow state" `Quick test_permits_follow_state;
          Alcotest.test_case "shadow oracle exercised by live traffic" `Quick
            test_shadow_oracle_exercised ] );
      ( "properties",
        [ qc prop_predicates_consistent; qc prop_relation_respects_predicates ] );
      ( "bench-spec",
        [ Alcotest.test_case "spec names unique across targets" `Quick test_spec_names_unique;
          Alcotest.test_case "every switch row resolves to a spec" `Quick
            test_switch_rows_resolve;
          Alcotest.test_case "leaving a switch out changes its preset" `Quick
            test_switch_off_changes_preset ] ) ]
