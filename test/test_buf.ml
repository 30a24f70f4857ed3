module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Pool = Uln_buf.Pool
module Ring = Uln_buf.Ring
module Bytequeue = Uln_buf.Bytequeue

let check = Alcotest.(check int)
let check_s = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* --- view ---------------------------------------------------------- *)

let test_view_accessors () =
  let v = View.create 8 in
  View.set_uint8 v 0 0xAB;
  View.set_uint16 v 2 0x1234;
  View.set_uint32 v 4 0xDEADBEEFl;
  check "u8" 0xAB (View.get_uint8 v 0);
  check "u16" 0x1234 (View.get_uint16 v 2);
  Alcotest.(check int32) "u32" 0xDEADBEEFl (View.get_uint32 v 4)

let test_view_big_endian () =
  let v = View.create 4 in
  View.set_uint16 v 0 0x0102;
  check "hi byte first" 1 (View.get_uint8 v 0);
  check "lo byte second" 2 (View.get_uint8 v 1)

let test_view_sub_shares () =
  let v = View.of_string "hello world" in
  let s = View.sub v 6 5 in
  check_s "window" "world" (View.to_string s);
  View.set_uint8 s 0 (Char.code 'W');
  check_s "aliased" "hello World" (View.to_string v)

let test_view_bounds () =
  let v = View.create 4 in
  let expect_bounds f = try f (); false with View.Bounds _ -> true in
  check_bool "sub" true (expect_bounds (fun () -> ignore (View.sub v 2 3)));
  check_bool "get" true (expect_bounds (fun () -> ignore (View.get_uint16 v 3)));
  check_bool "negative" true (expect_bounds (fun () -> ignore (View.sub v (-1) 2)))

let test_view_concat () =
  let v = View.concat [ View.of_string "ab"; View.of_string "cd"; View.of_string "e" ] in
  check_s "concat" "abcde" (View.to_string v)

let test_view_copy_detaches () =
  let v = View.of_string "abc" in
  let c = View.copy v in
  View.set_uint8 v 0 (Char.code 'z');
  check_s "copy unaffected" "abc" (View.to_string c)

(* --- mbuf ------------------------------------------------------------ *)

let test_mbuf_prepend_drop () =
  let payload = Mbuf.of_string "payload" in
  let hdr = View.of_string "HDR:" in
  let pkt = Mbuf.prepend hdr payload in
  check "len" 11 (Mbuf.length pkt);
  check "segs" 2 (Mbuf.segment_count pkt);
  check_s "strip header" "payload" (Mbuf.to_string (Mbuf.drop pkt 4));
  check_s "original intact" "HDR:payload" (Mbuf.to_string pkt)

let test_mbuf_split_boundaries () =
  let pkt = Mbuf.concat (Mbuf.of_string "abc") (Mbuf.of_string "defgh") in
  let l, r = Mbuf.split pkt 3 in
  check_s "left" "abc" (Mbuf.to_string l);
  check_s "right" "defgh" (Mbuf.to_string r);
  let l2, r2 = Mbuf.split pkt 5 in
  check_s "left mid-segment" "abcde" (Mbuf.to_string l2);
  check_s "right mid-segment" "fgh" (Mbuf.to_string r2)

let test_mbuf_get_uint8_across () =
  let pkt = Mbuf.concat (Mbuf.of_string "ab") (Mbuf.of_string "cd") in
  check "cross-segment byte" (Char.code 'c') (Mbuf.get_uint8 pkt 2)

let test_mbuf_flatten_no_copy_single () =
  let v = View.of_string "xyz" in
  let pkt = Mbuf.of_view v in
  check_bool "same storage" true (Mbuf.flatten pkt == v)

let prop_mbuf_split_rejoin =
  QCheck.Test.make ~name:"mbuf split+concat is identity" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 200)) small_int)
    (fun (s, k) ->
      let pkt = Mbuf.of_string s in
      let n = if String.length s = 0 then 0 else k mod (String.length s + 1) in
      let l, r = Mbuf.split pkt n in
      Mbuf.to_string (Mbuf.concat l r) = s)

let prop_mbuf_drop_take =
  QCheck.Test.make ~name:"drop n . take m consistent with string ops" ~count:200
    QCheck.(triple (string_of_size Gen.(1 -- 100)) small_int small_int)
    (fun (s, a, b) ->
      let len = String.length s in
      let n = a mod (len + 1) in
      let m = b mod (len - n + 1) in
      let got = Mbuf.to_string (Mbuf.take (Mbuf.drop (Mbuf.of_string s) n) m) in
      got = String.sub s n m)

(* --- pool --------------------------------------------------------------- *)

let test_pool_exhaustion () =
  let p = Pool.create ~count:2 ~size:64 in
  let a = Option.get (Pool.alloc p) in
  let _b = Option.get (Pool.alloc p) in
  check_bool "exhausted" true (Pool.alloc p = None);
  Pool.free p a;
  check "one free" 1 (Pool.available p)

let test_pool_double_free_rejected () =
  let p = Pool.create ~count:1 ~size:8 in
  let a = Option.get (Pool.alloc p) in
  Pool.free p a;
  Alcotest.check_raises "double free" (Invalid_argument "Pool.free: double free") (fun () ->
      Pool.free p a)

let test_pool_foreign_view_rejected () =
  let p = Pool.create ~count:1 ~size:8 in
  Alcotest.check_raises "foreign" (Invalid_argument "Pool.free: view does not belong to this pool")
    (fun () -> Pool.free p (View.create 8))

let test_pool_lazy_slots () =
  (* Buffers are allocated on first hand-out: a slot never handed out
     matches no view, not even an empty one, and a fresh buffer is
     zero-filled and full-sized. *)
  let p = Pool.create ~count:3 ~size:16 in
  let empty = View.of_bytes Bytes.empty in
  check_bool "empty view not owned" false (Pool.owns p empty);
  check_bool "fresh empty view not owned" false (Pool.owns p (View.create 0));
  Alcotest.check_raises "free of an empty view"
    (Invalid_argument "Pool.free: view does not belong to this pool") (fun () -> Pool.free p empty);
  (* Leave stale non-zero bytes where the next small allocations land, so
     that a buffer which is not explicitly zero-filled shows it. *)
  for _ = 1 to 1 lsl 20 do
    ignore (Sys.opaque_identity (Bytes.make 16 'x'))
  done;
  let a = Option.get (Pool.alloc p) in
  check "full size" 16 (View.length a);
  check_s "zero-filled" (String.make 16 '\000') (View.to_string a);
  check_bool "handed-out buffer owned" true (Pool.owns p a);
  check_bool "empty sub-view of it owned" true (Pool.owns p (View.sub a 3 0));
  check_bool "unrelated view not owned" false (Pool.owns p (View.create 16));
  check_bool "empty view still not owned" false (Pool.owns p empty);
  Alcotest.check_raises "foreign view"
    (Invalid_argument "Pool.free: view does not belong to this pool") (fun () ->
      Pool.free p (View.create 16));
  let b = Option.get (Pool.alloc p) and c = Option.get (Pool.alloc p) in
  List.iter
    (fun v -> check_s "later buffers zero-filled" (String.make 16 '\000') (View.to_string v))
    [ b; c ];
  Pool.free p a;
  Pool.free p b;
  Pool.free p c;
  check "all free" 3 (Pool.available p)

(* --- ring ------------------------------------------------------------------ *)

let test_ring_fifo () =
  let r = Ring.create ~capacity:4 in
  List.iter (fun i -> ignore (Ring.push r i)) [ 1; 2; 3 ];
  Alcotest.(check (option int)) "pop 1" (Some 1) (Ring.pop r);
  Alcotest.(check (option int)) "pop 2" (Some 2) (Ring.pop r);
  ignore (Ring.push r 4);
  Alcotest.(check (option int)) "pop 3" (Some 3) (Ring.pop r);
  Alcotest.(check (option int)) "pop 4" (Some 4) (Ring.pop r);
  Alcotest.(check (option int)) "empty" None (Ring.pop r)

let test_ring_overflow_drops () =
  let r = Ring.create ~capacity:2 in
  check_bool "1" true (Ring.push r 1);
  check_bool "2" true (Ring.push r 2);
  check_bool "3 rejected" false (Ring.push r 3);
  check "drop count" 1 (Ring.drops r)

let prop_ring_wraparound =
  QCheck.Test.make ~name:"ring behaves as bounded queue" ~count:100
    QCheck.(list (option small_int))
    (fun ops ->
      (* Some n = push n; None = pop.  Compare against a reference queue
         bounded at 3. *)
      let r = Ring.create ~capacity:3 in
      let q = Queue.create () in
      List.for_all
        (fun op ->
          match op with
          | Some v ->
              let pushed = Ring.push r v in
              let expect = Queue.length q < 3 in
              if expect then Queue.push v q;
              pushed = expect
          | None -> Ring.pop r = Queue.take_opt q)
        ops)

(* --- bytequeue --------------------------------------------------------------- *)

let test_bytequeue_fifo () =
  let q = Bytequeue.create () in
  Bytequeue.push_string q "hello ";
  Bytequeue.push_string q "world";
  check "len" 11 (Bytequeue.length q);
  check_s "pop" "hello" (View.to_string (Bytequeue.pop q 5));
  check_s "peek at offset" "wor" (View.to_string (Bytequeue.peek q ~off:1 ~len:3));
  Bytequeue.drop q 1;
  check_s "rest" "world" (View.to_string (Bytequeue.pop q 100))

let test_bytequeue_growth () =
  let q = Bytequeue.create ~capacity:4 () in
  let s = String.make 10_000 'x' in
  Bytequeue.push_string q s;
  check "grew" 10_000 (Bytequeue.length q);
  check_s "contents" s (View.to_string (Bytequeue.pop q 10_000))

let prop_bytequeue_matches_string =
  QCheck.Test.make ~name:"bytequeue = string concatenation" ~count:200
    QCheck.(list (string_of_size Gen.(0 -- 50)))
    (fun chunks ->
      let q = Bytequeue.create ~capacity:8 () in
      List.iter (Bytequeue.push_string q) chunks;
      let expect = String.concat "" chunks in
      View.to_string (Bytequeue.peek q ~off:0 ~len:(Bytequeue.length q)) = expect)

let prop_bytequeue_interleaved =
  QCheck.Test.make ~name:"interleaved push/drop tracks reference" ~count:200
    QCheck.(list (pair (string_of_size Gen.(0 -- 20)) small_int))
    (fun ops ->
      let q = Bytequeue.create ~capacity:4 () in
      let reference = ref "" in
      List.for_all
        (fun (s, d) ->
          Bytequeue.push_string q s;
          reference := !reference ^ s;
          let n = if !reference = "" then 0 else d mod (String.length !reference + 1) in
          Bytequeue.drop q n;
          reference := String.sub !reference n (String.length !reference - n);
          Bytequeue.length q = String.length !reference
          && View.to_string (Bytequeue.peek q ~off:0 ~len:(Bytequeue.length q)) = !reference)
        ops)

(* --- iovec --------------------------------------------------------- *)

module Iovec = Uln_buf.Iovec

let test_iovec_reference_semantics () =
  (* Pushed views are chained by reference: mutating the source after the
     push is visible through a peek — the whole point of the zero-copy
     send queue. *)
  let q = Iovec.create () in
  let v = View.of_string "abcdef" in
  Iovec.push q v;
  View.set_uint8 v 0 (Char.code 'X');
  check_s "no copy on push" "Xbcdef" (Mbuf.to_string (Iovec.peek q ~off:0 ~len:6))

let test_iovec_release_once () =
  let q = Iovec.create () in
  let fired = ref 0 in
  Iovec.push q ~release:(fun () -> incr fired) (View.of_string "0123456789");
  Iovec.push q ~release:(fun () -> incr fired) (View.of_string "ab");
  Iovec.drop q 4;
  check "partial consume holds the release" 0 !fired;
  Iovec.drop q 6;
  check "full consume fires exactly once" 1 !fired;
  check "second slot untouched" 2 (Iovec.length q);
  Iovec.clear q;
  check "clear fires the rest" 2 !fired

let test_iovec_zero_length_release () =
  let q = Iovec.create () in
  let fired = ref 0 in
  Iovec.push q ~release:(fun () -> incr fired) (View.create 0);
  check "empty view releases immediately" 1 !fired;
  check "nothing stored" 0 (Iovec.slot_count q)

let prop_iovec_matches_bytequeue =
  (* Differential against Bytequeue over a random push/peek/drop trace:
     same bytes, same lengths, and peek_sum's composed partial sum equals
     the checksum of the flattened range. *)
  QCheck.Test.make ~name:"iovec = bytequeue over random push/peek/drop traces" ~count:300
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let module Rng = Uln_engine.Rng in
      let module Checksum = Uln_proto.Checksum in
      let rng = Rng.create ~seed in
      let iq = Iovec.create () and bq = Bytequeue.create () in
      let ok = ref true in
      for _ = 1 to 60 do
        match Rng.int rng 3 with
        | 0 ->
            let len = Rng.int rng 97 in
            let v = View.create len in
            for i = 0 to len - 1 do
              View.set_uint8 v i (Rng.int rng 256)
            done;
            Iovec.push iq v;
            Bytequeue.push bq v
        | 1 ->
            let avail = Iovec.length iq in
            let off = Rng.int rng (avail + 1) in
            let len = Rng.int rng (avail - off + 1) in
            let m, sum = Iovec.peek_sum iq ~off ~len in
            let want = Bytequeue.peek bq ~off ~len in
            if
              (not (String.equal (Mbuf.to_string m) (View.to_string want)))
              || Checksum.finish sum <> Checksum.reference_of_view want
            then ok := false
        | _ ->
            let n = Rng.int rng (1 + Iovec.length iq) in
            Iovec.drop iq n;
            Bytequeue.drop bq n
      done;
      !ok && Iovec.length iq = Bytequeue.length bq)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "buf"
    [ ( "view",
        [ Alcotest.test_case "accessors" `Quick test_view_accessors;
          Alcotest.test_case "big endian" `Quick test_view_big_endian;
          Alcotest.test_case "sub shares" `Quick test_view_sub_shares;
          Alcotest.test_case "bounds" `Quick test_view_bounds;
          Alcotest.test_case "concat" `Quick test_view_concat;
          Alcotest.test_case "copy detaches" `Quick test_view_copy_detaches ] );
      ( "mbuf",
        [ Alcotest.test_case "prepend/drop" `Quick test_mbuf_prepend_drop;
          Alcotest.test_case "split boundaries" `Quick test_mbuf_split_boundaries;
          Alcotest.test_case "cross-segment access" `Quick test_mbuf_get_uint8_across;
          Alcotest.test_case "flatten single" `Quick test_mbuf_flatten_no_copy_single;
          qc prop_mbuf_split_rejoin;
          qc prop_mbuf_drop_take ] );
      ( "pool",
        [ Alcotest.test_case "exhaustion" `Quick test_pool_exhaustion;
          Alcotest.test_case "double free" `Quick test_pool_double_free_rejected;
          Alcotest.test_case "foreign view" `Quick test_pool_foreign_view_rejected;
          Alcotest.test_case "lazy slots" `Quick test_pool_lazy_slots ] );
      ( "ring",
        [ Alcotest.test_case "fifo" `Quick test_ring_fifo;
          Alcotest.test_case "overflow drops" `Quick test_ring_overflow_drops;
          qc prop_ring_wraparound ] );
      ( "bytequeue",
        [ Alcotest.test_case "fifo" `Quick test_bytequeue_fifo;
          Alcotest.test_case "growth" `Quick test_bytequeue_growth;
          qc prop_bytequeue_matches_string;
          qc prop_bytequeue_interleaved ] );
      ( "iovec",
        [ Alcotest.test_case "reference semantics" `Quick test_iovec_reference_semantics;
          Alcotest.test_case "release fires once" `Quick test_iovec_release_once;
          Alcotest.test_case "zero-length release" `Quick test_iovec_zero_length_release;
          qc prop_iovec_matches_bytequeue ] ) ]
