(* Transmit-queue hardware model shared by both NICs: GSO splitting of
   oversized IP/TCP packets into wire frames, and moderated (batched)
   tx-completion events.  Both are "hardware side" mechanisms — the
   protocol stack above sees one descriptor per super-segment and one
   completion event per batch. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf

type conf = { budget : int; delay : Time.span }

type stats = {
  gso_episodes : int;
  gso_frames : int;
  events : int;
  descs : int;
  batch_hist : (int * int) list;
}

type t = {
  sched : Sched.t;
  costs : Costs.t;
  mutable conf : conf option;
  mutable pending : (unit -> unit) list; (* newest first *)
  mutable pending_n : int;
  mutable pending_cpu : Cpu.t option;
  mutable armed : bool;
  mutable gso_episodes : int;
  mutable gso_frames : int;
  mutable events : int;
  mutable descs : int;
  hist : (int, int) Hashtbl.t;
}

let create sched ~costs =
  { sched;
    costs;
    conf = None;
    pending = [];
    pending_n = 0;
    pending_cpu = None;
    armed = false;
    gso_episodes = 0;
    gso_frames = 0;
    events = 0;
    descs = 0;
    hist = Hashtbl.create 8 }

let set t conf = t.conf <- conf
let active t = t.conf <> None

let note_gso t ~frames =
  t.gso_episodes <- t.gso_episodes + 1;
  t.gso_frames <- t.gso_frames + frames

let stats t =
  { gso_episodes = t.gso_episodes;
    gso_frames = t.gso_frames;
    events = t.events;
    descs = t.descs;
    batch_hist =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.hist []
      |> List.sort (fun (a, _) (b, _) -> compare a b) }

(* Reap everything pending as one completion event: a single moderated
   interrupt charge, then the deferred descriptor releases in FIFO
   order. *)
let flush t =
  if t.pending_n > 0 then begin
    let batch = List.rev t.pending in
    let n = t.pending_n in
    let cpu = match t.pending_cpu with Some c -> c | None -> assert false in
    t.pending <- [];
    t.pending_n <- 0;
    t.pending_cpu <- None;
    t.events <- t.events + 1;
    t.descs <- t.descs + n;
    Hashtbl.replace t.hist n (1 + Option.value ~default:0 (Hashtbl.find_opt t.hist n));
    Cpu.use_async cpu t.costs.Costs.tx_complete_irq (fun () -> List.iter (fun f -> f ()) batch)
  end;
  t.armed <- false

(* A transmit descriptor finished serializing: without moderation its
   release fires immediately (the baseline, charge-free as before);
   with moderation it waits for the batch — [budget] finished
   descriptors force an event, else the [delay] settle timer fires
   one. *)
let complete t ~cpu release =
  match t.conf with
  | None -> release ()
  | Some conf ->
      t.pending <- release :: t.pending;
      t.pending_n <- t.pending_n + 1;
      (match t.pending_cpu with None -> t.pending_cpu <- Some cpu | Some _ -> ());
      if t.pending_n >= conf.budget then flush t
      else if not t.armed then begin
        t.armed <- true;
        Sched.after t.sched conf.delay (fun () -> if t.armed then flush t)
      end

(* --- GSO splitting ----------------------------------------------------- *)

let ipv4_header_size = 20

(* Ones-complement fold and invert — deliberately local to the device
   model: the segmenting controller computes its own checksums and must
   not borrow the protocol library's code. *)
let cksum_finish acc =
  let rec fold a = if a lsr 16 <> 0 then fold ((a land 0xffff) + (a lsr 16)) else a in
  lnot (fold acc) land 0xffff

(* Cut one oversized IP/TCP packet into wire packets of at most
   [gso_size] TCP payload bytes each, replaying the header template the
   way a segmenting controller does: sequence numbers advance by the
   bytes already cut, FIN and PSH ride only the last frame, options
   (timestamps included) are replayed verbatim, and both the IP header
   checksum and the TCP checksum are regenerated per frame.  The headers
   are read from a small copy of the chain's front; each cut's payload
   moves straight from the chain's segments into its wire packet — the
   DMA to the wire, the only copy of the payload bytes (into a buffer
   allocated uninitialised: every byte of it is written).  A packet
   that needs no cut goes out as it is. *)
let split_packet ~gso_size packet =
  let ihl = ipv4_header_size in
  let total = Mbuf.length packet in
  let hdr = View.create (Stdlib.min total (ihl + 60)) in
  Mbuf.blit packet 0 hdr 0 (View.length hdr);
  let data_off = View.get_uint8 hdr (ihl + 12) lsr 4 * 4 in
  let hdrs = ihl + data_off in
  let data_len = total - hdrs in
  if data_len <= gso_size then [ packet ]
  else begin
    let seq0 = Int32.to_int (View.get_uint32 hdr (ihl + 4)) land 0xffffffff in
    let pseudo_base =
      View.get_uint16 hdr 12 + View.get_uint16 hdr 14
      + View.get_uint16 hdr 16 + View.get_uint16 hdr 18 + 6
    in
    let rec cut off acc =
      if off >= data_len then List.rev acc
      else begin
        let n = Stdlib.min gso_size (data_len - off) in
        let last = off + n >= data_len in
        let v = View.of_bytes (Bytes.create (hdrs + n)) in
        View.blit hdr 0 v 0 hdrs;
        Mbuf.blit packet (hdrs + off) v hdrs n;
        (* IP: new total length, fresh header checksum. *)
        View.set_uint16 v 2 (hdrs + n);
        View.set_uint16 v 10 0;
        View.set_uint16 v 10 (cksum_finish (View.sum16 v 0 ihl));
        (* TCP: advanced sequence number; FIN (0x01) and PSH (0x08)
           only on the last cut. *)
        View.set_uint32 v (ihl + 4) (Int32.of_int ((seq0 + off) land 0xffffffff));
        if not last then begin
          let flags = View.get_uint8 v (ihl + 13) in
          View.set_uint8 v (ihl + 13) (flags land lnot 0x09)
        end;
        View.set_uint16 v (ihl + 16) 0;
        let tcp_len = data_off + n in
        View.set_uint16 v (ihl + 16)
          (cksum_finish (pseudo_base + tcp_len + View.sum16 v ihl tcp_len));
        cut (off + n) (Mbuf.of_view v :: acc)
      end
    in
    cut 0 []
  end

(* Split a transmit descriptor's frame, if it asks for segmentation.
   The result frames carry [gso_size = 0]: what goes on the wire is
   always ordinary packets. *)
let split (frame : Frame.t) =
  if frame.Frame.gso_size <= 0 then [ frame ]
  else
    split_packet ~gso_size:frame.Frame.gso_size frame.Frame.payload
    |> List.map (fun payload -> { frame with Frame.gso_size = 0; payload })
