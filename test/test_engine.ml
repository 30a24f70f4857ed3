module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Semaphore = Uln_engine.Semaphore
module Mailbox = Uln_engine.Mailbox
module Timer_wheel = Uln_engine.Timer_wheel
module Timers = Uln_engine.Timers
module Rng = Uln_engine.Rng
module Stats = Uln_engine.Stats
module Pheap = Uln_engine.Pheap
module Trace = Uln_engine.Trace
module Machine = Uln_host.Machine
module Costs = Uln_host.Costs
module Proto_env = Uln_proto.Proto_env

let check = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- time ----------------------------------------------------------- *)

let test_time_units () =
  check "us" 1_000 (Time.us 1);
  check "ms" 1_000_000 (Time.ms 1);
  check "sec" 1_000_000_000 (Time.sec 1);
  check "add" 1_500 (Time.to_ns (Time.add (Time.of_ns 500) (Time.us 1)));
  check "diff" (-500) (Time.diff (Time.of_ns 500) (Time.of_ns 1000));
  Alcotest.(check (float 1e-9)) "to_ms" 1.5 (Time.to_ms_f (Time.of_us_f 1500.))

let test_time_round_trip () =
  Alcotest.(check (float 1e-6)) "us round trip" 123.456 (Time.to_us_f (Time.of_us_f 123.456))

(* --- event heap -------------------------------------------------------- *)

(* Pops everything, as (key, value) pairs in pop order. *)
let drain_heap h =
  let rec go acc =
    if Pheap.is_empty h then List.rev acc
    else
      let k = Pheap.min_key h in
      go ((k, Pheap.pop h) :: acc)
  in
  go []

let test_pheap_order () =
  let h = Pheap.create ~dummy:0 in
  List.iteri (fun i k -> Pheap.insert h ~key:k ~seq:i k) [ 5; 3; 8; 1; 9; 2; 7 ];
  Alcotest.(check (list int)) "sorted" [ 1; 2; 3; 5; 7; 8; 9 ] (List.map snd (drain_heap h))

let test_pheap_fifo_ties () =
  let h = Pheap.create ~dummy:"" in
  Pheap.insert h ~key:7 ~seq:1 "first";
  Pheap.insert h ~key:7 ~seq:2 "second";
  Pheap.insert h ~key:7 ~seq:3 "third";
  Alcotest.(check (list string)) "fifo" [ "first"; "second"; "third" ] (List.map snd (drain_heap h))

let prop_pheap_sorts =
  QCheck.Test.make ~name:"pheap pops in sorted order" ~count:200
    QCheck.(list small_int)
    (fun keys ->
      let h = Pheap.create ~dummy:0 in
      List.iteri (fun i k -> Pheap.insert h ~key:k ~seq:i k) keys;
      List.map snd (drain_heap h) = List.sort compare keys)

(* Differential against a reference kept sorted by (key, seq), on
   interleaved insert/pop scripts over a narrow key range so that equal
   keys are the common case.  [None] in a script is a pop. *)
let prop_pheap_matches_reference =
  QCheck.Test.make ~name:"heap = sorted (key, seq) reference on insert/pop scripts" ~count:300
    QCheck.(list_of_size Gen.(0 -- 300) (option (0 -- 7)))
    (fun script ->
      let h = Pheap.create ~dummy:(-1) in
      let reference = ref [] in
      let seq = ref 0 in
      let insert_sorted x l = List.merge compare [ x ] l in
      let ok = ref true in
      let pop_both () =
        match !reference with
        | [] -> if not (Pheap.is_empty h) then ok := false
        | (k, s) :: rest ->
            reference := rest;
            let hk = Pheap.min_key h in
            let v = Pheap.pop h in
            if hk <> k || v <> s then ok := false
      in
      List.iter
        (function
          | Some k ->
              incr seq;
              Pheap.insert h ~key:k ~seq:!seq !seq;
              reference := insert_sorted (k, !seq) !reference
          | None -> pop_both ())
        script;
      while !reference <> [] do
        pop_both ()
      done;
      !ok && Pheap.is_empty h && Pheap.size h = 0)

let test_deep_queue_drains () =
  (* A million pending events run in (time, scheduling) order, with no
     recursion to overflow the stack. *)
  let n = 1_000_000 in
  let s = Sched.create () in
  let rng = Rng.create ~seed:3 in
  let last_t = ref 0 and last_i = ref 0 and fired = ref 0 and ok = ref true in
  for i = 1 to n do
    Sched.at s (Time.of_ns (Rng.int rng 1_000)) (fun () ->
        let t = Time.to_ns (Sched.now s) in
        if t < !last_t || (t = !last_t && i < !last_i) then ok := false;
        last_t := t;
        last_i := i;
        incr fired)
  done;
  check "pending" n (Sched.pending_events s);
  Sched.run s;
  check "all fired" n !fired;
  check_bool "in order" true !ok

let test_pheap_empty_raises () =
  let h = Pheap.create ~dummy:0 in
  Alcotest.check_raises "min_key" (Invalid_argument "Pheap.min_key: empty heap") (fun () ->
      ignore (Pheap.min_key h));
  Alcotest.check_raises "pop" (Invalid_argument "Pheap.pop: empty heap") (fun () ->
      ignore (Pheap.pop h))

(* --- scheduler -------------------------------------------------------- *)

let test_event_order () =
  let s = Sched.create () in
  let log = ref [] in
  Sched.at s (Time.of_ns 300) (fun () -> log := 3 :: !log);
  Sched.at s (Time.of_ns 100) (fun () -> log := 1 :: !log);
  Sched.at s (Time.of_ns 200) (fun () -> log := 2 :: !log);
  Sched.run s;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

let test_clock_advances () =
  let s = Sched.create () in
  let seen = ref Time.zero in
  Sched.after s (Time.ms 5) (fun () -> seen := Sched.now s);
  Sched.run s;
  check "clock" (Time.to_ns (Time.of_ns 5_000_000)) (Time.to_ns !seen)

let test_thread_sleep () =
  let s = Sched.create () in
  let result =
    Sched.block_on s (fun () ->
        Sched.sleep s (Time.ms 10);
        Time.to_ns (Sched.now s))
  in
  check "slept" 10_000_000 result

let test_spawn_interleaving () =
  let s = Sched.create () in
  let log = ref [] in
  Sched.spawn s (fun () ->
      Sched.sleep s (Time.ms 2);
      log := "b" :: !log);
  Sched.spawn s (fun () ->
      Sched.sleep s (Time.ms 1);
      log := "a" :: !log);
  Sched.run s;
  Alcotest.(check (list string)) "by wakeup time" [ "a"; "b" ] (List.rev !log)

let test_thread_exception_propagates () =
  let s = Sched.create () in
  Sched.spawn s ~name:"bad" (fun () -> failwith "boom");
  let raised =
    try
      Sched.run s;
      None
    with Failure msg -> Some msg
  in
  let contains hay needle =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  match raised with
  | Some msg ->
      check_bool "names thread" true (contains msg "bad");
      check_bool "names cause" true (contains msg "boom")
  | None -> Alcotest.fail "expected the thread failure to propagate"

let test_run_until () =
  let s = Sched.create () in
  let fired = ref 0 in
  Sched.at s (Time.of_ns (Time.ms 1)) (fun () -> incr fired);
  Sched.at s (Time.of_ns (Time.ms 10)) (fun () -> incr fired);
  Sched.run_until s (Time.of_ns (Time.ms 5));
  check "only first" 1 !fired;
  check "one pending" 1 (Sched.pending_events s)

let test_block_on_deadlock () =
  let s = Sched.create () in
  let sem = Semaphore.create () in
  Alcotest.check_raises "deadlock"
    (Sched.Deadlock "block_on: simulation quiesced before completion") (fun () ->
      Sched.block_on s (fun () -> Semaphore.wait sem))

let test_sleep_and_at_same_instant () =
  (* A sleeper's wake-up is an event like any other: it runs in the order
     it was scheduled among plain events due at the same instant, under
     its thread's label, and plain events run unlabelled. *)
  let s = Sched.create () in
  let t = Time.of_ns 1_000 in
  let log = ref [] in
  let note what = log := (what, Sched.current_name s) :: !log in
  Sched.spawn s ~name:"sleeper" (fun () ->
      Sched.at s t (fun () -> note "before");
      Sched.sleep s (Time.ns 1_000);
      note "thread";
      Sched.at s t (fun () -> note "late"));
  Sched.spawn s ~name:"other" (fun () -> Sched.at s t (fun () -> note "after"));
  Sched.run s;
  Alcotest.(check (list (pair string (option string))))
    "scheduling order"
    [ ("before", None); ("thread", Some "sleeper"); ("after", None); ("late", None) ]
    (List.rev !log)

(* A popped event's closure is not kept alive by the queue.  Scheduled in
   this order, the event holding [payload] sits in the heap's last slot
   when the 100 ns event pops, so both the slot it moves out of then and
   the root slot it leaves when it runs itself must let go of it. *)
let test_popped_event_collectable () =
  let s = Sched.create () in
  let w = Weak.create 1 in
  let schedule () =
    let payload = Bytes.make 64 'x' in
    Weak.set w 0 (Some payload);
    Sched.at s (Time.of_ns 200) (fun () -> ignore (Sys.opaque_identity payload))
  in
  Sched.at s (Time.of_ns 300) ignore;
  (Sys.opaque_identity schedule) ();
  Sched.at s (Time.of_ns 100) ignore;
  Sched.run_until s (Time.of_ns 250);
  Gc.full_major ();
  check "later event still pending" 1 (Sched.pending_events s);
  check_bool "popped closure collected" true (Weak.get w 0 = None)

(* Words allocated so far, minor and direct-major (as in test_datapath). *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* An [after]+pop allocates nothing beyond the event's own closure, and a
   sleep/wake cycle (21 words) only the effect, its handler closure, the
   continuation and one timer closure.  The bounds fail if a per-event
   heap node, an option result or a run-queue job per wake-up comes
   back: with those, the same loops measured 64 and 63 words. *)
let test_engine_allocation () =
  let n = 10_000 in
  let s = Sched.create () in
  let f = ignore in
  let fill () =
    for i = 1 to n do
      Sched.after s (Time.ns (i land 63)) f
    done;
    Sched.run s
  in
  fill ();
  Gc.minor ();
  let before = allocated_words () in
  fill ();
  let per_event = (allocated_words () -. before) /. float_of_int n in
  check_bool (Printf.sprintf "after+pop: %.2f words per event, bound 1" per_event) true
    (per_event <= 1.);
  let per_sleep = ref nan in
  Sched.spawn s ~name:"sleeper" (fun () ->
      Sched.sleep s (Time.ns 1);
      Gc.minor ();
      let before = allocated_words () in
      for _ = 1 to n do
        Sched.sleep s (Time.ns 1)
      done;
      per_sleep := (allocated_words () -. before) /. float_of_int n);
  Sched.run s;
  check_bool (Printf.sprintf "sleep/wake: %.1f words per cycle, bound 24" !per_sleep) true
    (!per_sleep <= 24.)

let test_trace_formats_only_when_on () =
  let s = Sched.create () in
  let printed = ref 0 in
  let pp ppf n =
    incr printed;
    Format.pp_print_int ppf n
  in
  Trace.set_sink None;
  Trace.debugf s "t" "off %a" pp 1;
  check "nothing formatted with no sink" 0 !printed;
  let got = ref [] in
  Trace.set_sink (Some (fun _ _ tag msg -> got := (tag ^ ": " ^ msg) :: !got));
  Fun.protect
    ~finally:(fun () -> Trace.set_sink None)
    (fun () -> Trace.infof s "t" "on %a" pp 2);
  check "formatted once with a sink" 1 !printed;
  Alcotest.(check (list string)) "emitted" [ "t: on 2" ] !got

(* --- semaphore --------------------------------------------------------- *)

let test_semaphore_counts () =
  let s = Sched.create () in
  let sem = Semaphore.create () in
  Semaphore.signal sem;
  Semaphore.signal sem;
  let got =
    Sched.block_on s (fun () ->
        Semaphore.wait sem;
        Semaphore.wait sem;
        Semaphore.count sem)
  in
  check "drained" 0 got

let test_semaphore_blocks_and_wakes () =
  let s = Sched.create () in
  let sem = Semaphore.create () in
  let woke_at = ref Time.zero in
  Sched.spawn s (fun () ->
      Semaphore.wait sem;
      woke_at := Sched.now s);
  Sched.after s (Time.ms 3) (fun () -> Semaphore.signal sem);
  Sched.run s;
  check "woken at signal time" (Time.ms 3) (Time.to_ns !woke_at)

let test_semaphore_fifo () =
  let s = Sched.create () in
  let sem = Semaphore.create () in
  let log = ref [] in
  Sched.spawn s (fun () ->
      Semaphore.wait sem;
      log := 1 :: !log);
  Sched.spawn s (fun () ->
      Semaphore.wait sem;
      log := 2 :: !log);
  Sched.after s (Time.ms 1) (fun () ->
      Semaphore.signal sem;
      Semaphore.signal sem);
  Sched.run s;
  Alcotest.(check (list int)) "fifo wakeups" [ 1; 2 ] (List.rev !log)

let test_try_wait () =
  let sem = Semaphore.create ~initial:1 () in
  check_bool "first" true (Semaphore.try_wait sem);
  check_bool "second" false (Semaphore.try_wait sem)

(* --- mailbox ------------------------------------------------------------ *)

let test_mailbox_order () =
  let s = Sched.create () in
  let box = Mailbox.create () in
  Mailbox.send box 1;
  Mailbox.send box 2;
  let got =
    Sched.block_on s (fun () ->
        let first = Mailbox.recv box in
        let second = Mailbox.recv box in
        (first, second))
  in
  Alcotest.(check (pair int int)) "fifo" (1, 2) got

let test_mailbox_blocking_recv () =
  let s = Sched.create () in
  let box = Mailbox.create () in
  Sched.after s (Time.ms 2) (fun () -> Mailbox.send box 42);
  let got = Sched.block_on s (fun () -> Mailbox.recv box) in
  check "value" 42 got

(* --- timer wheel --------------------------------------------------------- *)

let test_wheel_fires_in_order () =
  let w = Timer_wheel.create ~granularity:(Time.ms 1) () in
  let log = ref [] in
  ignore (Timer_wheel.schedule w ~after:(Time.ms 5) (fun () -> log := 5 :: !log));
  ignore (Timer_wheel.schedule w ~after:(Time.ms 2) (fun () -> log := 2 :: !log));
  ignore (Timer_wheel.schedule w ~after:(Time.ms 9) (fun () -> log := 9 :: !log));
  Timer_wheel.advance_to w (Time.of_ns (Time.ms 20));
  Alcotest.(check (list int)) "order" [ 2; 5; 9 ] (List.rev !log)

let test_wheel_cancel () =
  let w = Timer_wheel.create ~granularity:(Time.ms 1) () in
  let fired = ref false in
  let h = Timer_wheel.schedule w ~after:(Time.ms 3) (fun () -> fired := true) in
  Timer_wheel.cancel h;
  Timer_wheel.advance_to w (Time.of_ns (Time.ms 10));
  check_bool "cancelled" false !fired

(* [live] drops at the cancel; [pending] keeps the cancelled entry until
   its slot comes round. *)
let test_wheel_live_count () =
  let w = Timer_wheel.create ~granularity:(Time.ms 1) () in
  let a = Timer_wheel.schedule w ~after:(Time.ms 3) ignore in
  ignore (Timer_wheel.schedule w ~after:(Time.ms 5) ignore);
  Timer_wheel.cancel a;
  Timer_wheel.cancel a;
  check "live after one cancel (twice)" 1 (Timer_wheel.live w);
  check "pending keeps the cancelled entry" 2 (Timer_wheel.pending w);
  Timer_wheel.advance_to w (Time.of_ns (Time.ms 4));
  check "cancelled entry drained" 1 (Timer_wheel.pending w);
  Timer_wheel.advance_to w (Time.of_ns (Time.ms 10));
  check "live after firing" 0 (Timer_wheel.live w);
  check "pending after firing" 0 (Timer_wheel.pending w)

let test_wheel_long_delay_cascades () =
  (* A delay of > 256 ticks must land on a higher wheel level and still
     fire at the right tick. *)
  let w = Timer_wheel.create ~granularity:(Time.ms 1) () in
  let fired_at = ref (-1) in
  ignore
    (Timer_wheel.schedule w ~after:(Time.ms 1000) (fun () -> fired_at := Timer_wheel.current_tick w));
  Timer_wheel.advance_to w (Time.of_ns (Time.ms 999));
  check "not yet" (-1) !fired_at;
  Timer_wheel.advance_to w (Time.of_ns (Time.ms 1005));
  check "fired at tick 1000" 1000 !fired_at

let prop_wheel_never_early =
  QCheck.Test.make ~name:"wheel never fires early, never loses timers" ~count:100
    QCheck.(list_of_size Gen.(1 -- 30) (1 -- 5000))
    (fun delays ->
      let w = Timer_wheel.create ~granularity:(Time.ms 1) () in
      let fired = ref 0 in
      let ok = ref true in
      List.iter
        (fun d ->
          ignore
            (Timer_wheel.schedule w ~after:(Time.ms d) (fun () ->
                 incr fired;
                 if Timer_wheel.current_tick w < d then ok := false)))
        delays;
      Timer_wheel.advance_to w (Time.of_ns (Time.ms 6000));
      !ok && !fired = List.length delays)

(* The wheel before levels were allocated on use: every slot of every
   level a [ref] cell made up front.  Kept as the oracle the wheel must
   match firing for firing. *)
module Ref_wheel = struct
  let slots_per_level = 256
  let levels = 4

  type timer = { mutable expiry_tick : int; callback : unit -> unit; mutable live : bool }
  type handle = timer
  type t = { tick_ns : int; wheel : timer list ref array array; mutable tick : int; mutable pending : int }

  let create ~granularity () =
    { tick_ns = granularity;
      wheel = Array.init levels (fun _ -> Array.init slots_per_level (fun _ -> ref []));
      tick = 0;
      pending = 0 }

  let pending t = t.pending
  let current_tick t = t.tick

  let level_width =
    Array.init levels (fun i -> int_of_float (float_of_int slots_per_level ** float_of_int i))

  let insert t timer =
    let delta = Stdlib.max 1 (timer.expiry_tick - t.tick) in
    let rec find_level i =
      if i = levels - 1 || delta < level_width.(i) * slots_per_level then i else find_level (i + 1)
    in
    let level = find_level 0 in
    let cell = t.wheel.(level).(timer.expiry_tick / level_width.(level) mod slots_per_level) in
    cell := timer :: !cell

  let schedule t ~after f =
    let delta_ticks = Stdlib.max 1 ((after + t.tick_ns - 1) / t.tick_ns) in
    let timer = { expiry_tick = t.tick + delta_ticks; callback = f; live = true } in
    insert t timer;
    t.pending <- t.pending + 1;
    timer

  let cancel h = h.live <- false

  let drain_cell t cell =
    let entries = !cell in
    cell := [];
    List.iter
      (fun timer ->
        if not timer.live then t.pending <- t.pending - 1
        else if timer.expiry_tick <= t.tick then begin
          timer.live <- false;
          t.pending <- t.pending - 1;
          timer.callback ()
        end
        else insert t timer)
      (List.rev entries)

  let step t =
    t.tick <- t.tick + 1;
    let slot0 = t.tick mod slots_per_level in
    let rec cascade level =
      if level < levels then begin
        drain_cell t t.wheel.(level).(t.tick / level_width.(level) mod slots_per_level);
        if t.tick mod (level_width.(level) * slots_per_level) = 0 then cascade (level + 1)
      end
    in
    drain_cell t t.wheel.(0).(slot0);
    if slot0 = 0 then cascade 1

  let advance_to t now =
    let target = Time.to_ns now / t.tick_ns in
    if t.pending = 0 then t.tick <- Stdlib.max t.tick target
    else
      while t.tick < target do
        if t.pending = 0 then t.tick <- target else step t
      done
end

module type WHEEL = sig
  type t
  type handle

  val create : granularity:Time.span -> unit -> t
  val schedule : t -> after:Time.span -> (unit -> unit) -> handle
  val cancel : handle -> unit
  val pending : t -> int
  val current_tick : t -> int
  val advance_to : t -> Time.t -> unit
end

(* What a timer does when it fires, besides logging itself. *)
type on_fire = Nothing | Spawn of int | Kill of int

type wheel_op = Schedule of int * on_fire | Cancel of int | Advance of int

let pp_on_fire = function
  | Nothing -> ""
  | Spawn d -> Printf.sprintf " then schedule %d" d
  | Kill i -> Printf.sprintf " then cancel #%d" i

let pp_wheel_op = function
  | Schedule (d, f) -> Printf.sprintf "schedule %d%s" d (pp_on_fire f)
  | Cancel i -> Printf.sprintf "cancel #%d" i
  | Advance dt -> Printf.sprintf "advance %d" dt

(* Run a script on a 1 ns-tick wheel; the trace is every firing as
   (timer id, tick), then the wheel's final tick and pending count. *)
let run_wheel_script (module W : WHEEL) ops =
  let w = W.create ~granularity:1 () in
  let handles = Hashtbl.create 16 in
  let log = ref [] in
  let now = ref 0 in
  let cancel i = if Hashtbl.length handles > 0 then W.cancel (Hashtbl.find handles (i mod Hashtbl.length handles)) in
  let rec schedule d on_fire =
    let id = Hashtbl.length handles in
    let h =
      W.schedule w ~after:d (fun () ->
          log := (id, W.current_tick w) :: !log;
          match on_fire with
          | Nothing -> ()
          | Spawn d' -> schedule d' Nothing
          | Kill i -> cancel i)
    in
    Hashtbl.replace handles id h
  in
  List.iter
    (function
      | Schedule (d, f) -> schedule d f
      | Cancel i -> cancel i
      | Advance dt ->
          now := !now + dt;
          W.advance_to w (Time.of_ns !now))
    ops;
  (List.rev !log, W.current_tick w, W.pending w)

(* Delays land on every level (widths 1, 256, 65536 and 16777216 ticks)
   and past level 3's horizon (2^32 ticks), and short ones often share a
   tick, so firing order within a slot counts; advances stay short enough
   to step tick by tick, so level-2 and level-3 timers are placed,
   cascaded and cancelled but only the nearer ones fire here (the
   deterministic case below fires level 3 and wraps its horizon). *)
let gen_wheel_ops =
  let open QCheck.Gen in
  let delay =
    frequency
      [ (2, 1 -- 8);
        (3, 9 -- 255);
        (3, 256 -- 65_535);
        (2, 65_536 -- ((1 lsl 24) - 1));
        (1, (1 lsl 24) -- ((1 lsl 32) - 1));
        (1, (1 lsl 32) -- (1 lsl 34)) ]
  in
  let on_fire =
    frequency [ (4, return Nothing); (2, map (fun d -> Spawn d) delay); (1, map (fun i -> Kill i) nat) ]
  in
  list_size (1 -- 60)
    (frequency
       [ (5, map2 (fun d f -> Schedule (d, f)) delay on_fire);
         (2, map (fun i -> Cancel i) nat);
         (4, map (fun dt -> Advance dt) (frequency [ (6, 0 -- 300); (3, 300 -- 70_000); (1, 70_000 -- 200_000) ])) ])

let prop_wheel_matches_ref_cells =
  QCheck.Test.make ~name:"wheel = ref-cell wheel (schedule/cancel/advance, all levels)" ~count:100
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map pp_wheel_op ops)) gen_wheel_ops)
    (fun ops ->
      run_wheel_script (module Timer_wheel) ops = run_wheel_script (module Ref_wheel) ops)

let test_wheel_far_matches_ref_cells () =
  let ops =
    [ Schedule ((1 lsl 24) + 3, Spawn 700);
      Schedule ((1 lsl 25) + 11, Nothing);
      (* past the horizon: level 3's slot of this expiry comes round at
         tick 2^24, long before it is due, and must re-insert it *)
      Schedule ((1 lsl 32) + (1 lsl 24) + 9, Nothing);
      Schedule (70_000, Spawn ((1 lsl 24) + 5));
      Schedule (40, Kill 1);
      Advance ((1 lsl 24) + 2);
      Schedule (300, Spawn 3);
      Advance 1_000_000 ]
  in
  let ((fired, _, pending) as got) = run_wheel_script (module Timer_wheel) ops in
  check_bool "same trace as the ref-cell wheel" true (got = run_wheel_script (module Ref_wheel) ops);
  check "fired" 7 (List.length fired);
  (* the far timer, and the cancelled one until its slot comes round *)
  check "pending" 2 pending

(* Whole words allocated per call: over [n] calls the measurement's own
   boxed floats add less than one word per call, and the floor drops
   them. *)
let words_per_call n f =
  let keep = Array.make n (Obj.repr 0) in
  Gc.minor ();
  let before = allocated_words () in
  for i = 0 to n - 1 do
    keep.(i) <- Obj.repr (f ())
  done;
  let words = (allocated_words () -. before) /. float_of_int n in
  ignore (Sys.opaque_identity keep);
  int_of_float words

(* A wheel allocates its slot arrays on first use, so creating one (and
   the per-connection environment that holds one) costs a few words,
   not the 1,024 ref cells (about 3.1k words) every level used to make
   up front. *)
let test_wheel_create_allocation () =
  let wheel = words_per_call 1_000 (fun () -> Timer_wheel.create ~granularity:(Time.ms 10) ()) in
  check_bool (Printf.sprintf "Timer_wheel.create: %d words, bound 16" wheel) true (wheel <= 16);
  let s = Sched.create () in
  let m = Machine.create s ~name:"m" ~costs:Costs.r3000 ~rng:(Rng.create ~seed:5) in
  let env =
    words_per_call 1_000 (fun () ->
        Proto_env.create s m.Machine.cpu m.Machine.costs ~rng:m.Machine.rng ())
  in
  check_bool (Printf.sprintf "Proto_env.create: %d words, bound 16" env) true (env <= 16)

let test_timers_service () =
  let s = Sched.create () in
  let svc = Timers.create s ~granularity:(Time.ms 10) in
  let fired_at = ref Time.zero in
  Sched.spawn s (fun () ->
      ignore (Timers.arm svc (Time.ms 25) (fun () -> fired_at := Sched.now s)));
  Sched.run s;
  (* Rounded up to tick 3 = 30 ms. *)
  check "fired at 30ms" (Time.ms 30) (Time.to_ns !fired_at)

(* A timer cancelled before the next arm leaves no tick phase behind:
   the 25 ms timer armed at 7 ms fires three whole ticks after its own
   arm (37 ms), not on the 30 ms tick of a chain the cancelled timer
   started at 0. *)
let test_timers_cancel_leaves_no_phase () =
  let s = Sched.create () in
  let svc = Timers.create s ~granularity:(Time.ms 10) in
  let fired_at = ref Time.zero in
  Sched.spawn s (fun () ->
      let h = Timers.arm svc (Time.ms 50) ignore in
      Sched.sleep s (Time.ms 3);
      Timers.disarm h;
      check "no live timer after the cancel" 0 (Timers.pending svc);
      Sched.sleep s (Time.ms 4);
      ignore (Timers.arm svc (Time.ms 25) (fun () -> fired_at := Sched.now s)));
  Sched.run s;
  check "fired at 37ms" (Time.ms 37) (Time.to_ns !fired_at)

(* --- rng ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 in
  let b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
  done

let test_rng_bounds () =
  let r = Rng.create ~seed:11 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check_bool "in range" true (v >= 0 && v < 10)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let b = Rng.split a in
  check_bool "different streams" true (Rng.next_int64 a <> Rng.next_int64 b)

let prop_rng_float_range =
  QCheck.Test.make ~name:"rng float stays in range" ~count:200 QCheck.(1 -- 1000)
    (fun seed ->
      let r = Rng.create ~seed in
      let v = Rng.float r 5.0 in
      v >= 0.0 && v < 5.0)

(* --- stats ------------------------------------------------------------------ *)

let test_counter () =
  let c = Stats.Counter.create "c" in
  Stats.Counter.incr c;
  Stats.Counter.add c 4;
  check "value" 5 (Stats.Counter.value c);
  Stats.Counter.reset c;
  check "reset" 0 (Stats.Counter.value c)

let test_dist () =
  let d = Stats.Dist.create "d" in
  List.iter (Stats.Dist.record d) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Dist.mean d);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.Dist.min d);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.Dist.max d);
  check "count" 4 (Stats.Dist.count d);
  Alcotest.(check (float 1e-6)) "stddev" 1.2909944 (Stats.Dist.stddev d)

let test_meter_rate () =
  let m = Stats.Meter.create "m" in
  Stats.Meter.mark m Time.zero 0;
  Stats.Meter.mark m (Time.of_ns (Time.sec 1)) 1_000_000;
  Alcotest.(check (float 1.)) "8 Mb/s" 8.0 (Stats.Meter.megabits_per_sec m)

(* Dropping a lock from the middle of the registry keeps the others in
   their creation order, and a dropped lock can be dropped again. *)
let test_unregister_keeps_order () =
  let s = Sched.create () in
  let locks = List.init 5 (fun i -> Semaphore.create ~name:(Printf.sprintf "l%d" i) ~sched:s ()) in
  let names () = List.map (fun st -> st.Semaphore.s_name) (Semaphore.registered ~sched:s) in
  Semaphore.unregister (List.nth locks 2);
  Alcotest.(check (list string)) "middle dropped" [ "l0"; "l1"; "l3"; "l4" ] (names ());
  Semaphore.unregister (List.nth locks 2);
  Semaphore.unregister (List.nth locks 0);
  ignore (Semaphore.create ~name:"l5" ~sched:s ());
  Alcotest.(check (list string)) "order kept" [ "l1"; "l3"; "l4"; "l5" ] (names ())

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [ ( "time",
        [ Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "round trip" `Quick test_time_round_trip ] );
      ( "pheap",
        [ Alcotest.test_case "sorted pops" `Quick test_pheap_order;
          Alcotest.test_case "fifo ties" `Quick test_pheap_fifo_ties;
          qc prop_pheap_sorts;
          qc prop_pheap_matches_reference;
          Alcotest.test_case "1M pending drain in order" `Quick test_deep_queue_drains;
          Alcotest.test_case "empty heap raises" `Quick test_pheap_empty_raises ] );
      ( "sched",
        [ Alcotest.test_case "event order" `Quick test_event_order;
          Alcotest.test_case "clock advances" `Quick test_clock_advances;
          Alcotest.test_case "thread sleep" `Quick test_thread_sleep;
          Alcotest.test_case "spawn interleaving" `Quick test_spawn_interleaving;
          Alcotest.test_case "thread exception" `Quick test_thread_exception_propagates;
          Alcotest.test_case "run_until" `Quick test_run_until;
          Alcotest.test_case "block_on deadlock" `Quick test_block_on_deadlock;
          Alcotest.test_case "sleep and at at one instant" `Quick test_sleep_and_at_same_instant;
          Alcotest.test_case "popped event collectable" `Quick test_popped_event_collectable;
          Alcotest.test_case "allocation per event and per sleep" `Quick test_engine_allocation;
          Alcotest.test_case "trace formats only when on" `Quick test_trace_formats_only_when_on ] );
      ( "semaphore",
        [ Alcotest.test_case "counts" `Quick test_semaphore_counts;
          Alcotest.test_case "blocks and wakes" `Quick test_semaphore_blocks_and_wakes;
          Alcotest.test_case "fifo" `Quick test_semaphore_fifo;
          Alcotest.test_case "try_wait" `Quick test_try_wait;
          Alcotest.test_case "unregister keeps order" `Quick test_unregister_keeps_order ] );
      ( "mailbox",
        [ Alcotest.test_case "order" `Quick test_mailbox_order;
          Alcotest.test_case "blocking recv" `Quick test_mailbox_blocking_recv ] );
      ( "timers",
        [ Alcotest.test_case "wheel order" `Quick test_wheel_fires_in_order;
          Alcotest.test_case "wheel cancel" `Quick test_wheel_cancel;
          Alcotest.test_case "wheel live count" `Quick test_wheel_live_count;
          Alcotest.test_case "wheel cascade" `Quick test_wheel_long_delay_cascades;
          qc prop_wheel_never_early;
          qc prop_wheel_matches_ref_cells;
          Alcotest.test_case "wheel past level 3's horizon = ref-cell wheel" `Quick
            test_wheel_far_matches_ref_cells;
          Alcotest.test_case "wheel and proto env creation allocate a few words" `Quick
            test_wheel_create_allocation;
          Alcotest.test_case "timer service" `Quick test_timers_service;
          Alcotest.test_case "cancelled timer leaves no tick phase" `Quick
            test_timers_cancel_leaves_no_phase ] );
      ( "rng",
        [ Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "bounds" `Quick test_rng_bounds;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          qc prop_rng_float_range ] );
      ( "stats",
        [ Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "dist" `Quick test_dist;
          Alcotest.test_case "meter" `Quick test_meter_rate ] ) ]
