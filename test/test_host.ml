module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Rng = Uln_engine.Rng
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Capability = Uln_host.Capability
module Addr_space = Uln_host.Addr_space
module Shared_mem = Uln_host.Shared_mem
module Ipc = Uln_host.Ipc
module Machine = Uln_host.Machine

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- cpu -------------------------------------------------------------- *)

let test_cpu_serializes () =
  (* Two threads each burning 1 ms on one CPU finish at 1 ms and 2 ms. *)
  let s = Sched.create () in
  let cpu = Cpu.create s ~name:"cpu" in
  let t1 = ref Time.zero and t2 = ref Time.zero in
  Sched.spawn s (fun () ->
      Cpu.use cpu (Time.ms 1);
      t1 := Sched.now s);
  Sched.spawn s (fun () ->
      Cpu.use cpu (Time.ms 1);
      t2 := Sched.now s);
  Sched.run s;
  check "first" (Time.ms 1) (Time.to_ns !t1);
  check "second serialized" (Time.ms 2) (Time.to_ns !t2);
  check "busy accounted" (Time.ms 2) (Cpu.busy_ns cpu)

let test_cpu_async () =
  let s = Sched.create () in
  let cpu = Cpu.create s ~name:"cpu" in
  let fired = ref Time.zero in
  Cpu.use_async cpu (Time.us 500) (fun () -> fired := Sched.now s);
  Sched.run s;
  check "completion time" (Time.us 500) (Time.to_ns !fired)

let test_cpu_utilization () =
  let s = Sched.create () in
  let cpu = Cpu.create s ~name:"cpu" in
  Sched.spawn s (fun () ->
      Cpu.use cpu (Time.ms 3);
      Sched.sleep s (Time.ms 7));
  Sched.run s;
  Alcotest.(check (float 0.01)) "30%" 0.3 (Cpu.utilization cpu (Sched.now s))

(* --- capabilities ------------------------------------------------------- *)

let test_capability_deref_and_revoke () =
  let cap = Capability.mint ~tag:"chan" 42 in
  check "deref" 42 (Capability.deref cap);
  Capability.revoke cap;
  check_bool "revoked" true
    (try
       ignore (Capability.deref cap);
       false
     with Capability.Violation _ -> true)

let test_capability_identity () =
  let a = Capability.mint ~tag:"x" 0 in
  let b = Capability.mint ~tag:"x" 0 in
  check_bool "distinct" false (Capability.same a b);
  check_bool "self" true (Capability.same a a)

(* --- address spaces -------------------------------------------------------- *)

let test_domain_privilege () =
  let k = Addr_space.create Addr_space.Kernel "k" in
  let s = Addr_space.create Addr_space.Server "s" in
  let u = Addr_space.create Addr_space.User "u" in
  check_bool "kernel" true (Addr_space.is_privileged k);
  check_bool "server" true (Addr_space.is_privileged s);
  check_bool "user" false (Addr_space.is_privileged u)

(* Identity is physical: two domains made alike are still two domains,
   even when each is made in a loop iteration at one call site with
   constant arguments. *)
let test_domain_identity () =
  let make () = Addr_space.create Addr_space.User "same" in
  let a = make () and b = make () in
  check_bool "alike but distinct" false (Addr_space.equal a b);
  check_bool "self" true (Addr_space.equal a a);
  let c = Array.init 2 (fun _ -> Addr_space.create Addr_space.User "loop") in
  check_bool "one call site, two domains" false (Addr_space.equal c.(0) c.(1))

(* --- shared memory ------------------------------------------------------------ *)

let test_shared_mem_mapping_enforced () =
  let region = Shared_mem.create ~name:"r" ~count:4 ~size:128 in
  let a = Addr_space.create Addr_space.User "a" in
  let b = Addr_space.create Addr_space.User "b" in
  Shared_mem.map region a;
  check_bool "mapped alloc works" true (Shared_mem.alloc region a <> None);
  check_bool "unmapped alloc rejected" true
    (try
       ignore (Shared_mem.alloc region b);
       false
     with Capability.Violation _ -> true);
  Shared_mem.unmap region a;
  check_bool "after unmap rejected" true
    (try
       Shared_mem.assert_mapped region a;
       false
     with Capability.Violation _ -> true)

let test_shared_mem_destroy () =
  let region = Shared_mem.create ~name:"r" ~count:2 ~size:64 in
  let a = Addr_space.create Addr_space.User "a" in
  Shared_mem.map region a;
  Shared_mem.destroy region;
  check_bool "destroyed" true
    (try
       Shared_mem.assert_mapped region a;
       false
     with Capability.Violation _ -> true);
  check_bool "alloc after destroy rejected" true
    (try
       ignore (Shared_mem.alloc region a);
       false
     with Capability.Violation _ -> true)

let test_shared_mem_exhaustion () =
  (* Running the pool dry is not an error — the caller sees [None], as a
     driver sees an empty NIC ring — but the event is counted. *)
  let region = Shared_mem.create ~name:"r" ~count:2 ~size:64 in
  let a = Addr_space.create Addr_space.User "a" in
  Shared_mem.map region a;
  let b1 = Shared_mem.alloc region a and b2 = Shared_mem.alloc region a in
  check_bool "two allocs succeed" true (b1 <> None && b2 <> None);
  check "no exhaustion yet" 0 (Shared_mem.exhausted region);
  check_bool "third alloc returns None" true (Shared_mem.alloc region a = None);
  check_bool "fourth alloc returns None" true (Shared_mem.alloc region a = None);
  check "exhaustion counted per failed alloc" 2 (Shared_mem.exhausted region);
  check "all in use" 2 (Shared_mem.in_use region);
  (match b1 with Some v -> Shared_mem.free region a v | None -> ());
  check_bool "free replenishes" true (Shared_mem.alloc region a <> None)

let test_shared_mem_double_free () =
  let region = Shared_mem.create ~name:"r" ~count:2 ~size:64 in
  let a = Addr_space.create Addr_space.User "a" in
  Shared_mem.map region a;
  match Shared_mem.alloc region a with
  | None -> Alcotest.fail "alloc failed"
  | Some v ->
      Shared_mem.free region a v;
      check_bool "double free detected" true
        (try
           Shared_mem.free region a v;
           false
         with Invalid_argument _ -> true);
      check_bool "foreign view rejected" true
        (try
           Shared_mem.free region a (Uln_buf.View.create 64);
           false
         with Invalid_argument _ -> true)

let test_shared_mem_subview_free () =
  (* The loaning socket layer hands out [View.sub] prefixes of pool
     buffers (a loan sized to the write); freeing through the sub-view
     must find the backing buffer. *)
  let region = Shared_mem.create ~name:"r" ~count:1 ~size:128 in
  let a = Addr_space.create Addr_space.User "a" in
  Shared_mem.map region a;
  match Shared_mem.alloc region a with
  | None -> Alcotest.fail "alloc failed"
  | Some v ->
      let sub = Uln_buf.View.sub v 0 40 in
      check_bool "pool owns the sub-view" true (Shared_mem.owns region sub);
      Shared_mem.free region a sub;
      check "buffer back in the pool" 1 (Shared_mem.available region)

(* --- IPC -------------------------------------------------------------------------- *)

let make_machine s = Machine.create s ~name:"m" ~costs:Costs.r3000 ~rng:(Rng.create ~seed:5)

let test_ipc_round_trip () =
  let s = Sched.create () in
  let m = make_machine s in
  let port = Ipc.create s m.Machine.cpu m.Machine.costs ~name:"adder" in
  Ipc.serve port (fun x -> (x + 1, 8));
  let got = Sched.block_on s (fun () -> Ipc.call port ~size:8 41) in
  check "reply" 42 got;
  check "one call" 1 (Ipc.calls port)

let test_ipc_charges_time () =
  let s = Sched.create () in
  let m = make_machine s in
  let port = Ipc.create s m.Machine.cpu m.Machine.costs ~name:"echo" in
  Ipc.serve port (fun x -> (x, 1024));
  let elapsed =
    Sched.block_on s (fun () ->
        let t0 = Sched.now s in
        let _ = Ipc.call port ~size:1024 0 in
        Time.diff (Sched.now s) t0)
  in
  (* At least two fixed transfers, two dispatch latencies, two switches. *)
  let c = Costs.r3000 in
  let floor_ns =
    (2 * c.Costs.ipc_fixed) + (2 * c.Costs.wakeup_latency) + (2 * c.Costs.context_switch)
  in
  check_bool "rpc cost floor" true (elapsed >= floor_ns)

let test_ipc_concurrent_handlers () =
  (* serve_concurrent: a blocked handler must not stall other calls. *)
  let s = Sched.create () in
  let m = make_machine s in
  let port = Ipc.create s m.Machine.cpu m.Machine.costs ~name:"mix" in
  let release = Uln_engine.Semaphore.create () in
  Ipc.serve_concurrent port (fun x ->
      if x = 1 then Uln_engine.Semaphore.wait release;
      (x * 10, 8));
  let results = ref [] in
  Sched.spawn s (fun () ->
      let r = Ipc.call port ~size:8 1 in
      results := ("slow", r) :: !results);
  Sched.spawn s (fun () ->
      let r = Ipc.call port ~size:8 2 in
      results := ("fast", r) :: !results;
      Uln_engine.Semaphore.signal release);
  Sched.run s;
  check "both completed" 2 (List.length !results);
  Alcotest.(check string) "fast finished first" "slow" (fst (List.hd !results))

let () =
  Alcotest.run "host"
    [ ( "cpu",
        [ Alcotest.test_case "serializes" `Quick test_cpu_serializes;
          Alcotest.test_case "async" `Quick test_cpu_async;
          Alcotest.test_case "utilization" `Quick test_cpu_utilization ] );
      ( "capability",
        [ Alcotest.test_case "deref/revoke" `Quick test_capability_deref_and_revoke;
          Alcotest.test_case "identity" `Quick test_capability_identity ] );
      ( "domains",
        [ Alcotest.test_case "privilege" `Quick test_domain_privilege;
          Alcotest.test_case "identity" `Quick test_domain_identity ] );
      ( "shared_mem",
        [ Alcotest.test_case "mapping enforced" `Quick test_shared_mem_mapping_enforced;
          Alcotest.test_case "destroy" `Quick test_shared_mem_destroy;
          Alcotest.test_case "exhaustion counted" `Quick test_shared_mem_exhaustion;
          Alcotest.test_case "double free detected" `Quick test_shared_mem_double_free;
          Alcotest.test_case "sub-view free" `Quick test_shared_mem_subview_free ] );
      ( "ipc",
        [ Alcotest.test_case "round trip" `Quick test_ipc_round_trip;
          Alcotest.test_case "charges time" `Quick test_ipc_charges_time;
          Alcotest.test_case "concurrent handlers" `Quick test_ipc_concurrent_handlers ] ) ]
