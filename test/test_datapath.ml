(* The per-byte real-clock data path against its references: the 8-byte
   checksum kernels against the byte-at-a-time oracle, the copy-free
   GSO cut against "flatten, then cut", the prefix template check
   against the whole-frame one, and the byte queue's direct blits
   against a string model.  An allocation guard keeps the full-frame
   copies from coming back. *)

open Tutil
module Bytequeue = Uln_buf.Bytequeue
module Txq = Uln_net.Txq
module Template = Uln_filter.Template
module Checksum = Uln_proto.Checksum

let check_bool = Alcotest.(check bool)

let random_view rng len =
  let v = View.create len in
  for i = 0 to len - 1 do
    View.set_uint8 v i (Rng.int rng 256)
  done;
  v

(* A view of [len] random bytes at a random (often odd) offset inside a
   larger buffer, so kernels never see only aligned, whole buffers. *)
let random_subview rng len =
  let pad = Rng.int rng 16 in
  View.sub (random_view rng (pad + len + Rng.int rng 16)) pad len

(* [s] cut at random boundaries into a chain of sub-views. *)
let random_chain rng s =
  let n = String.length s in
  let rec go pos acc =
    if pos >= n then List.rev acc
    else begin
      let k = 1 + Rng.int rng (Stdlib.max 1 (Stdlib.min (n - pos) (1 + (n / 3)))) in
      let v = random_subview rng k in
      View.blit_from_string s pos v 0 k;
      go (pos + k) (v :: acc)
    end
  in
  List.fold_left Mbuf.append Mbuf.empty (go 0 [])

let reference_sum v = fst (Checksum.partial_bytes 0 false v)

(* --- checksum kernels ----------------------------------------------------- *)

let kernel_prop ~name ~max_len =
  QCheck.Test.make ~name ~count:300
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let len = Rng.int rng (max_len + 1) in
      let src = random_subview rng len in
      let dst_pad = Rng.int rng 9 in
      let dst_buf = random_view rng (dst_pad + len + 3) in
      let before = View.to_string dst_buf in
      let dst = View.sub dst_buf dst_pad len in
      let reference = reference_sum src in
      let sum = View.blit_sum src 0 dst 0 len in
      let after = View.to_string dst_buf in
      View.sum16 src 0 len = reference
      && sum = reference
      && View.equal dst src
      (* bytes outside the destination window are untouched *)
      && String.sub after 0 dst_pad = String.sub before 0 dst_pad
      && String.sub after (dst_pad + len) 3 = String.sub before (dst_pad + len) 3)

let prop_kernels_short =
  kernel_prop ~name:"sum16/blit_sum = byte oracle, lengths 0-9" ~max_len:9

let prop_kernels_long =
  kernel_prop ~name:"sum16/blit_sum = byte oracle, lengths up to 70 KB" ~max_len:70_000

(* --- GSO cut ---------------------------------------------------------------- *)

(* The controller as it was: flatten the descriptor's packet, then cut
   each wire frame out of the flat copy. *)
let reference_split (frame : Frame.t) =
  let cksum_finish acc =
    let rec fold a = if a lsr 16 <> 0 then fold ((a land 0xffff) + (a lsr 16)) else a in
    lnot (fold acc) land 0xffff
  in
  let wire v = { frame with Frame.gso_size = 0; payload = Mbuf.of_view v } in
  let gso_size = frame.Frame.gso_size in
  if gso_size <= 0 then [ frame ]
  else begin
    let packet = Mbuf.flatten frame.Frame.payload in
    let ihl = 20 in
    let data_off = View.get_uint8 packet (ihl + 12) lsr 4 * 4 in
    let hdrs = ihl + data_off in
    let data_len = View.length packet - hdrs in
    if data_len <= gso_size then [ wire packet ]
    else begin
      let seq0 = Int32.to_int (View.get_uint32 packet (ihl + 4)) land 0xffffffff in
      let pseudo_base =
        View.get_uint16 packet 12 + View.get_uint16 packet 14 + View.get_uint16 packet 16
        + View.get_uint16 packet 18 + 6
      in
      List.init
        ((data_len + gso_size - 1) / gso_size)
        (fun k ->
          let off = k * gso_size in
          let n = Stdlib.min gso_size (data_len - off) in
          let v = View.create (hdrs + n) in
          View.blit packet 0 v 0 hdrs;
          View.blit packet (hdrs + off) v hdrs n;
          View.set_uint16 v 2 (hdrs + n);
          View.set_uint16 v 10 0;
          View.set_uint16 v 10 (cksum_finish (reference_sum (View.sub v 0 ihl)));
          View.set_uint32 v (ihl + 4) (Int32.of_int ((seq0 + off) land 0xffffffff));
          if off + n < data_len then
            View.set_uint8 v (ihl + 13) (View.get_uint8 v (ihl + 13) land lnot 0x09);
          View.set_uint16 v (ihl + 16) 0;
          let tcp_len = data_off + n in
          View.set_uint16 v (ihl + 16)
            (cksum_finish (pseudo_base + tcp_len + reference_sum (View.sub v ihl tcp_len)));
          wire v)
    end
  end

(* One oversized IPv4/TCP packet: random addresses, sequence number,
   options and flags (FIN and PSH often set), [data_len] payload
   bytes. *)
let gso_packet rng ~data_len =
  let opt_words = Rng.int rng 11 in
  let data_off = 20 + (4 * opt_words) in
  let hdrs = 20 + data_off in
  let v = random_view rng (hdrs + data_len) in
  View.set_uint8 v 0 0x45;
  View.set_uint16 v 2 ((hdrs + data_len) land 0xffff);
  View.set_uint8 v 9 6;
  View.set_uint8 v (20 + 12) ((data_off / 4) lsl 4);
  let psh = if Rng.bool rng then 0x08 else 0 and fin = if Rng.bool rng then 0x01 else 0 in
  View.set_uint8 v (20 + 13) (0x10 lor psh lor fin);
  View.to_string v

let gso_frame ~gso_size payload =
  Frame.make ~src:(Mac.of_int 0x5254000001) ~dst:(Mac.of_int 0x5254000002)
    ~ethertype:Frame.ethertype_ip ~bqi:3 ~bqi_hint:5 ~gso_size payload

let same_frames a b =
  List.length a = List.length b
  && List.for_all2
       (fun (x : Frame.t) (y : Frame.t) ->
         Mbuf.to_string x.Frame.payload = Mbuf.to_string y.Frame.payload
         && x.Frame.gso_size = 0 && y.Frame.gso_size = 0
         && Mac.equal x.Frame.src y.Frame.src
         && Mac.equal x.Frame.dst y.Frame.dst
         && x.Frame.ethertype = y.Frame.ethertype
         && x.Frame.bqi = y.Frame.bqi
         && x.Frame.bqi_hint = y.Frame.bqi_hint)
       a b

let prop_split_matches_reference =
  QCheck.Test.make ~name:"Txq.split = flatten, then cut (multi-segment chains)" ~count:300
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let data_len = Rng.int rng 9000 in
      let s = gso_packet rng ~data_len in
      let gso_size = Rng.int rng 1600 in
      let frame = gso_frame ~gso_size (random_chain rng s) in
      same_frames (Txq.split frame) (reference_split frame))

(* --- template check on a prefix -------------------------------------------- *)

let random_template rng wire =
  let len = View.length wire in
  let field () =
    let offset = Rng.int rng 50 in
    let mask = match Rng.int rng 3 with 0 -> 0xffff | 1 -> 0x00ff | _ -> Rng.int rng 0x10000 in
    (* Often the frame's own word, so both verdicts occur. *)
    let value =
      if offset + 2 <= len && Rng.int rng 4 > 0 then View.get_uint16 wire offset land mask
      else Rng.int rng 0x10000 land mask
    in
    { Template.offset; mask; value }
  in
  Template.make (List.init (Rng.int rng 6) (fun _ -> field ()))

let prop_template_prefix =
  QCheck.Test.make ~name:"to_wire = header ^ payload; matches on wire_prefix span = on to_wire"
    ~count:500
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      (* Payloads from empty to past the span: short frames included. *)
      let s = View.to_string (random_view rng (Rng.int rng 60)) in
      let mac () = Mac.of_int ((Rng.int rng 0x1000000 lsl 24) lor Rng.int rng 0x1000000) in
      let src = mac () and dst = mac () and ethertype = Rng.int rng 0x10000 in
      let frame = Frame.make ~src ~dst ~ethertype (random_chain rng s) in
      let wire = Frame.to_wire frame in
      let tpl = random_template rng wire in
      let n = Rng.int rng 80 in
      let whole = View.to_string wire in
      (* the header, from the address octets *)
      let octets m = String.init 6 (fun i -> Char.chr (Mac.to_octets m).(i)) in
      let et = String.init 2 (fun i -> Char.chr ((ethertype lsr (8 - (8 * i))) land 0xff)) in
      whole = octets dst ^ octets src ^ et ^ s
      && Template.matches tpl (Frame.wire_prefix frame (Template.span tpl))
         = Template.matches tpl wire
      && View.to_string (Frame.wire_prefix frame n)
         = String.sub whole 0 (Stdlib.min n (String.length whole)))

let prop_mbuf_blit =
  QCheck.Test.make ~name:"Mbuf.blit = the same range of to_string" ~count:300
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let s = View.to_string (random_view rng (Rng.int rng 300)) in
      let m = random_chain rng s in
      let off = Rng.int rng (String.length s + 1) in
      let len = Rng.int rng (String.length s - off + 1) in
      let dst = View.create (len + 2) in
      Mbuf.blit m off dst 1 len;
      View.to_string (View.sub dst 1 len) = String.sub s off len)

(* --- byte queue -------------------------------------------------------------- *)

let prop_bytequeue_subviews =
  QCheck.Test.make ~name:"Bytequeue push/peek/pop round-trip sub-views" ~count:300
    QCheck.(1 -- 1_000_000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let q = Bytequeue.create ~capacity:(1 + Rng.int rng 64) () in
      let model = ref "" in
      let ok = ref true in
      for _ = 1 to 40 do
        match Rng.int rng 3 with
        | 0 ->
            let v = random_subview rng (Rng.int rng 200) in
            Bytequeue.push q v;
            model := !model ^ View.to_string v;
            (* the queue holds its own copy *)
            View.fill v 'x'
        | 1 ->
            let n = String.length !model in
            let off = Rng.int rng (n + 1) in
            let len = Rng.int rng (n - off + 1) in
            let p = Bytequeue.peek q ~off ~len in
            ok := !ok && View.to_string p = String.sub !model off len;
            (* and hands out a detached one *)
            View.fill p 'y'
        | _ ->
            let k = Rng.int rng 150 in
            let v = Bytequeue.pop q k in
            let n = Stdlib.min k (String.length !model) in
            ok := !ok && View.to_string v = String.sub !model 0 n;
            model := String.sub !model n (String.length !model - n)
      done;
      !ok && Bytequeue.length q = String.length !model
      && View.to_string (Bytequeue.peek q ~off:0 ~len:(Bytequeue.length q)) = !model)

(* --- allocation guard ---------------------------------------------------------- *)

(* Words allocated so far, minor and direct-major.  [Gc.minor_words] is
   exact at any point; [Gc.counters]'s own minor figure (OCaml 5.1)
   under-counts the current minor heap, and [Gc.quick_stat]'s major
   figure lags until the next slice. *)
let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

(* Cutting a 64 KB offload episode, and the send-side template check on
   it, allocate the wire frames and a bounded number of words per frame
   — never a copy of the whole episode, which would add ~8k words here
   on top of the frames. *)
let test_split_allocates_no_full_copy () =
  let rng = Rng.create ~seed:7 in
  let s = gso_packet rng ~data_len:(65_535 - 80) in
  let chain =
    List.fold_left Mbuf.append Mbuf.empty
      (List.init 9 (fun i ->
           let off = i * 7400 in
           View.of_string (String.sub s off (Stdlib.min 7400 (String.length s - off)))))
  in
  let frame = gso_frame ~gso_size:1448 chain in
  let tpl = Template.make [ { Template.offset = 12; mask = 0xffff; value = 0x0800 } ] in
  let run () =
    let frames = Txq.split frame in
    let ok = Uln_core.Netio.conforms tpl frame in
    (frames, ok)
  in
  ignore (run ());
  (* Start on an empty minor heap, so that no collection (which could
     promote older data) falls inside the measurement. *)
  Gc.minor ();
  let before = allocated_words () in
  let frames, ok = run () in
  let words = allocated_words () -. before in
  check_bool "template matches" true ok;
  let nframes = List.length frames in
  let wire_words =
    List.fold_left (fun acc (f : Frame.t) -> acc + (Frame.payload_length f / 8) + 1) 0 frames
  in
  let bound = wire_words + (64 * nframes) + 256 in
  check_bool
    (Printf.sprintf "%d frames: %.0f words allocated, bound %d" nframes words bound)
    true
    (words <= float_of_int bound);
  (* The bound leaves no room for the flatten it guards against. *)
  check_bool "bound is tight" true (bound - wire_words < String.length s / 8);
  let v = View.of_string s in
  Gc.minor ();
  let before = allocated_words () in
  let sum = View.sum16 v 1 (String.length s - 1) in
  let copy = View.create (String.length s) in
  let sum' = View.blit_sum v 0 copy 0 (String.length s) in
  let words = allocated_words () -. before -. float_of_int (String.length s / 8) in
  check_bool "kernels agree" true (sum > 0 && sum' > 0);
  check_bool (Printf.sprintf "kernels allocate nothing per word (%.0f)" words) true (words < 64.)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "datapath"
    [ ("kernels", [ qc prop_kernels_short; qc prop_kernels_long ]);
      ( "gso-cut",
        [ qc prop_split_matches_reference;
          Alcotest.test_case "no full-frame copy" `Quick test_split_allocates_no_full_copy ] );
      ("prefix", [ qc prop_template_prefix; qc prop_mbuf_blit ]);
      ("bytequeue", [ qc prop_bytequeue_subviews ]) ]
