(* Million-connection control plane: per-tenant quota admission (typed
   and recoverable), the sharded registry against the flat-table oracle
   under random connect/close/churn interleavings, the hierarchical
   demux miss path against the linear-scan oracle, and the quickselect
   percentile helper against a sort-based reference. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module View = Uln_buf.View
module Program = Uln_filter.Program
module Insn = Uln_filter.Insn
module Demux = Uln_filter.Demux
module Ip = Uln_addr.Ip
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Sockets = Uln_core.Sockets
module Registry = Uln_core.Registry
module Protolib = Uln_core.Protolib
module Organization = Uln_core.Organization
module Percentile = Uln_workload.Percentile

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- per-tenant quotas -------------------------------------------------- *)

(* A server that closes each accepted connection immediately, so only
   the client's principal accumulates active grants. *)
let spawn_closing_server w ~port ~conns =
  let app = World.app w ~host:1 "srv" in
  Sched.spawn (World.sched w) ~name:"srv" (fun () ->
      let l = app.Sockets.listen ~port in
      for _ = 1 to conns do
        let c = l.Sockets.accept () in
        c.Sockets.close ()
      done)

let test_quota_typed_and_recoverable () =
  let quota = { Registry.q_max_conns = 4; q_max_mem_bytes = max_int } in
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library
      ~tcp_params:Tcp_params.fast ~quota ~num_hosts:2 ()
  in
  let sched = World.sched w in
  spawn_closing_server w ~port:4100 ~conns:5;
  let lib = Option.get (World.library w ~host:0 "quota-cli") in
  Sched.block_on sched (fun () ->
      let connect () =
        Protolib.connect_q lib ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:4100
      in
      let held =
        List.init 4 (fun i ->
            match connect () with
            | Ok c -> c
            | Error e ->
                Alcotest.failf "connect %d refused: %s" i (Registry.error_to_string e))
      in
      (* The fifth connection trips the ceiling: the denial is typed,
         names the principal, and reports the consumption. *)
      (match connect () with
      | Ok _ -> Alcotest.fail "fifth connect exceeded the quota but was granted"
      | Error (Registry.Quota_exceeded { principal; resource; used; limit }) ->
          check_bool "resource is connections" true (resource = Registry.Conns);
          check "used at ceiling" 4 used;
          check "limit" 4 limit;
          Alcotest.(check string) "principal" "host0.quota-cli" principal
      | Error e -> Alcotest.failf "not a quota denial: %s" (Registry.error_to_string e));
      let reg0 = Option.get (World.registry w 0) in
      let ts =
        List.find
          (fun (s : Registry.tenant_stats) -> s.Registry.ts_principal = "host0.quota-cli")
          (Registry.tenant_stats reg0)
      in
      check "one denial counted" 1 ts.Registry.ts_denied;
      check "peak at ceiling" 4 ts.Registry.ts_peak;
      (* Recoverable: shedding one connection frees the slot. *)
      let victim = List.hd held in
      victim.Sockets.close ();
      victim.Sockets.await_closed ();
      (* Past 2MSL both ends have released their grants. *)
      Sched.sleep sched (Time.span_scale Tcp_params.fast.Tcp_params.msl 3);
      match connect () with
      | Ok c -> c.Sockets.close ()
      | Error e ->
          Alcotest.failf "connect after shedding still refused: %s"
            (Registry.error_to_string e))

(* --- sharded registry vs the flat-table oracle -------------------------- *)

(* One deterministic churn trace on a 4-CPU world: [script] is a list of
   slot indices; a connect fills the lowest free slot, hitting an
   occupied slot closes it.  Returns the per-op outcomes plus the
   registry's final account — everything a caller can observe. *)
let churn_trace ~sharded script =
  let prm = { Tcp_params.fast with Tcp_params.shard_registry = sharded } in
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library ~tcp_params:prm
      ~num_hosts:2 ~cpus:4 ()
  in
  let sched = World.sched w in
  let n_ops = List.length script in
  spawn_closing_server w ~port:4200 ~conns:n_ops;
  let app = World.app w ~host:0 "churn-cli" in
  let slots = Array.make 4 None in
  let outcomes = ref [] in
  Sched.block_on sched (fun () ->
      List.iter
        (fun slot ->
          match slots.(slot) with
          | Some (c : Sockets.conn) ->
              c.Sockets.close ();
              c.Sockets.await_closed ();
              slots.(slot) <- None;
              outcomes := "close" :: !outcomes
          | None -> (
              match
                app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:4200
              with
              | Ok c ->
                  slots.(slot) <- Some c;
                  outcomes := "ok" :: !outcomes
              | Error e -> outcomes := ("err:" ^ e) :: !outcomes))
        script;
      Array.iter
        (function
          | Some (c : Sockets.conn) ->
              c.Sockets.close ();
              c.Sockets.await_closed ()
          | None -> ())
        slots;
      (* Let TIME_WAIT residues and deferred port frees drain. *)
      Sched.sleep sched (Time.span_scale prm.Tcp_params.msl 3));
  let reg = Option.get (World.registry w 0) in
  ( List.rev !outcomes,
    Registry.handshakes_completed reg,
    Registry.ports_in_use reg,
    Registry.num_shards reg )

let prop_shard_flat_differential =
  QCheck.Test.make ~name:"sharded registry = flat-table oracle (random churn)" ~count:12
    QCheck.(list_of_size Gen.(1 -- 10) (0 -- 3))
    (fun script ->
      let o_s, hs_s, pu_s, shards = churn_trace ~sharded:true script in
      let o_f, hs_f, pu_f, one = churn_trace ~sharded:false script in
      shards > 1 && one = 1 && o_s = o_f && hs_s = hs_f && pu_s = pu_f)

let test_shard_stats_populated () =
  let script = [ 0; 1; 2; 0; 3; 1 ] in
  let prm = { Tcp_params.fast with Tcp_params.shard_registry = true } in
  let w =
    World.create ~network:World.Ethernet ~org:Organization.User_library ~tcp_params:prm
      ~num_hosts:2 ~cpus:4 ()
  in
  let sched = World.sched w in
  spawn_closing_server w ~port:4300 ~conns:(List.length script);
  let app = World.app w ~host:0 "stats-cli" in
  Sched.block_on sched (fun () ->
      List.iter
        (fun _ ->
          match
            app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:4300
          with
          | Ok c -> c.Sockets.close ()
          | Error e -> Alcotest.failf "connect: %s" e)
        script);
  let reg = Option.get (World.registry w 0) in
  let ss = Registry.shard_stats reg in
  check "one stats row per shard" (Registry.num_shards reg) (List.length ss);
  let acquisitions =
    List.fold_left (fun a (s : Registry.shard_stats) -> a + s.Registry.ss_lock_acquisitions) 0 ss
  in
  check_bool "shard locks were exercised" true (acquisitions > 0)

(* --- hierarchical demux vs the linear-scan oracle ----------------------- *)

(* Random tables mix three entry kinds: real installed tcp_conn filters
   (conjunctive-exact via the abstract interpreter), stamped filters
   (exact by construction), and an inexact range filter that lands in
   the residual list.  Random packets are drawn from the same byte
   space, so matches, near-misses and shadowing all occur. *)
let range_filter =
  (* TCP to any port >= 4000: not a pure equality conjunction. *)
  Program.of_insns
    [ Insn.Push_word 12; Insn.Push_lit 0x0800; Insn.Eq; Insn.Cand;
      Insn.Push_byte 23; Insn.Push_lit 6; Insn.Eq; Insn.Cand;
      Insn.Push_word 36; Insn.Push_lit 4000; Insn.Ge ]

let mk_packet ~src_last ~src_port ~dst_port ~len =
  let v = View.create len in
  if len > 13 then View.set_uint16 v 12 0x0800;
  if len > 23 then View.set_uint8 v 23 6;
  if len > 33 then begin
    View.set_uint8 v 14 0x45;
    View.set_uint32 v 26 (Ip.to_int32 (Ip.make 10 9 0 src_last));
    View.set_uint32 v 30 (Ip.to_int32 (Ip.make 10 9 0 250))
  end;
  if len > 37 then begin
    View.set_uint16 v 34 src_port;
    View.set_uint16 v 36 dst_port
  end;
  v

let prop_hier_demux_differential =
  let gen =
    QCheck.Gen.(
      triple (0 -- 1_000_000) (1 -- 40) (list_size (1 -- 30) (pair (0 -- 7) (0 -- 7))))
  in
  QCheck.Test.make ~name:"hier demux = linear scan (random tables and packets)"
    ~count:1000
    (QCheck.make gen)
    (fun (seed, n_entries, probes) ->
      let rng = Uln_engine.Rng.create ~seed in
      let rand k = Uln_engine.Rng.int rng k in
      let d = Demux.create ~mode:Demux.Interpreted () in
      let dst_ip = Ip.make 10 9 0 250 in
      let template = ref None in
      let keys = ref [] in
      for i = 0 to n_entries - 1 do
        match rand 4 with
        | 0 ->
            keys := Demux.install_exn d range_filter (1000 + i) :: !keys
        | 1 | 2 ->
            let k =
              Demux.install_exn d
                (Program.tcp_conn ~src_ip:(Ip.make 10 9 0 (rand 8)) ~dst_ip
                   ~src_port:(5000 + rand 8) ~dst_port:(4000 + rand 8))
                i
            in
            keys := k :: !keys;
            if !template = None then template := Some k
        | _ -> (
            match !template with
            | None -> keys := Demux.install_exn d range_filter (1000 + i) :: !keys
            | Some t -> (
                match
                  Demux.install_stamped d ~template:t
                    ~constraints:
                      [ (29, rand 8); (34, 0x13); (35, 0x88 + rand 8); (37, rand 256) ]
                    ~min_len:54 i
                with
                | Ok k -> keys := k :: !keys
                | Error e -> failwith e))
      done;
      (* A removal mid-stream exercises tombstones in both paths (never
         the template: stamped entries outlive it only as tombstones). *)
      (match !keys with
      | _ :: victim :: _ when Some victim <> !template -> Demux.remove d victim
      | _ -> ());
      List.for_all
        (fun (a, b) ->
          let pkt =
            mk_packet ~src_last:a ~src_port:(5000 + b) ~dst_port:(4000 + a)
              ~len:(if b land 1 = 0 then 54 else 38 + (4 * a))
          in
          Demux.set_hier d false;
          let lin, _ = Demux.dispatch d pkt in
          Demux.set_hier d true;
          let hier, _ = Demux.dispatch d pkt in
          lin = hier)
        probes)

(* --- percentile helper vs a sort-based reference ------------------------ *)

let reference_percentile q a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let idx = Stdlib.max 0 (int_of_float (ceil (q *. float_of_int n)) - 1) in
  s.(Stdlib.min (n - 1) idx)

let prop_percentile_matches_sort =
  let gen =
    QCheck.Gen.(
      pair
        (array_size (1 -- 200) (float_bound_inclusive 1e6))
        (float_range 0.001 1.0))
  in
  QCheck.Test.make ~name:"quickselect percentile = sort-based reference" ~count:500
    (QCheck.make gen)
    (fun (a, q) ->
      Percentile.percentile q a = reference_percentile q a)

let test_percentile_summary () =
  let a = Array.init 1000 (fun i -> float_of_int (999 - i)) in
  let s = Percentile.summarize a in
  Alcotest.(check (float 1e-9)) "p50" 499. s.Percentile.p50;
  Alcotest.(check (float 1e-9)) "p99" 989. s.Percentile.p99;
  Alcotest.(check (float 1e-9)) "p999" 998. s.Percentile.p999;
  match Percentile.summary_fields s with
  | [ (n50, _); (n99, _); (n999, _) ] ->
      Alcotest.(check string) "field names" "p50_us p99_us p999_us"
        (String.concat " " [ n50; n99; n999 ])
  | _ -> Alcotest.fail "summary_fields arity"

(* A tiny sparse-scale run end to end (the bench row in miniature). *)
let test_scale_sparse_smoke () =
  match Uln_workload.Experiments.scale_sparse ~pops:[ 512 ] () with
  | [ r ] ->
      let module E = Uln_workload.Experiments in
      check "population" 512 r.E.sp_conns;
      check_bool "hier miss beats linear scan" true
        (r.E.sp_miss_p.Percentile.p999 < r.E.sp_linear_cycles);
      check_bool "setup percentiles ordered" true
        (r.E.sp_setup_p.Percentile.p50 <= r.E.sp_setup_p.Percentile.p999);
      check_bool "delivery measured" true (r.E.sp_delivery_p.Percentile.p50 > 0.);
      check_bool "sharded" true (r.E.sp_shards > 1)
  | _ -> Alcotest.fail "expected one row"

let () =
  Alcotest.run "scale-ctl"
    [ ( "quota",
        [ Alcotest.test_case "typed and recoverable" `Quick
            test_quota_typed_and_recoverable ] );
      ( "shards",
        [ QCheck_alcotest.to_alcotest prop_shard_flat_differential;
          Alcotest.test_case "shard stats populated" `Quick test_shard_stats_populated ] );
      ( "hier-demux",
        [ QCheck_alcotest.to_alcotest prop_hier_demux_differential ] );
      ( "percentile",
        [ QCheck_alcotest.to_alcotest prop_percentile_matches_sort;
          Alcotest.test_case "summary and fields" `Quick test_percentile_summary ] );
      ( "sparse",
        [ Alcotest.test_case "scale_sparse smoke" `Quick test_scale_sparse_smoke ] ) ]
