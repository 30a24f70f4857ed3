(* ACK policy: the delayed-ACK cadence ([ack_every], [delack]) and the
   receive merge ([rx_coalesce], with [burst_ack] lifting its cadence
   cap).  The only reader of those two switches.  It reaches the
   connection only through [hooks]. *)

module Timers = Uln_engine.Timers
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Costs = Uln_host.Costs

(* Most original segments one merge may absorb once burst_ack lifts the
   ACK-cadence cap. *)
let gro_budget = 32

type t = {
  mutable unacked_segs : int;
  mutable ack_now : bool;
  mutable delack : Timers.handle option;
}

(* An in-progress receive merge: contiguous in-order segments from one
   connection, accumulated during an rx burst and processed as a single
   large segment at flush.  Payload bytes are copied out of each frame
   at absorb time — the frames themselves are recycled by the library
   as soon as its input call returns — and the flush hands the chunks on
   as one multi-segment chain. *)
type 'c run = {
  g_conn : 'c;
  g_first : Tcp_wire.segment; (* metadata template: ports, starting seq *)
  mutable g_chunks : View.t list; (* absorbed payload copies, newest first *)
  mutable g_len : int;
  mutable g_count : int; (* original segments represented *)
  g_limit : int; (* merge cap fixed when the run starts *)
  g_room : int; (* receive window at run start; never merge past it *)
  mutable g_ack : Tcp_seq.t; (* newest (monotone) ack seen *)
  mutable g_wnd : int; (* wire window of the newest segment *)
  mutable g_ts : (int * int) option; (* newest timestamp pair *)
  mutable g_psh : bool;
}

(* How the policy reaches a connection. *)
type 'c hooks = {
  acks : 'c -> t; (* the connection's ACK state *)
  plain : 'c -> Tcp_wire.segment -> bool; (* may join a run *)
  in_order : 'c -> Tcp_wire.segment -> bool;
      (* a plain segment, next in order with nothing queued out of
         order: it may start a run *)
  room : 'c -> int; (* the receive window *)
  alive : 'c -> bool; (* neither closed nor handed off *)
  process : 'c -> Tcp_wire.segment -> unit; (* the per-packet input path *)
  expired : 'c -> unit; (* a delayed ACK fell due: send it *)
}

type 'c rx = {
  prm : Tcp_params.t;
  env : Proto_env.t;
  hooks : 'c hooks;
  mutable in_burst : int;
      (* begin_burst/end_burst nesting depth: receive threads of
         different connections share one engine, and an episode that
         sleeps between ring polls overlaps its siblings' brackets *)
  mutable run : 'c run option;
  mutable segs : int;
      (* original segments represented by the segment currently being
         processed: 1 on the per-packet path, the merge count while a
         flush is being processed — [schedule]'s multiplier *)
  mutable merged : int; (* segments absorbed beyond the first of a run *)
  mutable flushes : int; (* merged runs handed to the input path *)
  mutable elided : int; (* ACKs burst_ack coalescing suppressed *)
}

let create () = { unacked_segs = 0; ack_now = false; delack = None }

let create_rx prm env hooks =
  { prm; env; hooks; in_burst = 0; run = None; segs = 1; merged = 0; flushes = 0; elided = 0 }

let stop_delack t =
  match t.delack with
  | None -> ()
  | Some h ->
      Timers.disarm h;
      t.delack <- None

(* Every emitted segment carries the current cumulative ACK. *)
let sent t =
  t.unacked_segs <- 0;
  t.ack_now <- false;
  stop_delack t

let force t = t.ack_now <- true

(* In-order data arrived on [c]: count it toward the ACK cadence, or
   start the delayed-ACK timer. *)
let schedule rx c =
  let t = rx.hooks.acks c in
  (* A merged run counts as the number of original segments it carries:
     the ACK cadence is computed over wire arrivals, not library calls.
     Outside a flush [segs] is 1 and this is the classic path. *)
  let k = rx.segs in
  t.unacked_segs <- t.unacked_segs + k;
  if t.unacked_segs >= rx.prm.Tcp_params.ack_every then begin
    (* One ACK answers the whole run; per-packet arrival would have
       acknowledged every [ack_every]th segment.  The difference is the
       burst_ack saving (zero when the merge is cadence-capped). *)
    if k > 1 then
      rx.elided <- rx.elided + Stdlib.max 0 ((t.unacked_segs / rx.prm.Tcp_params.ack_every) - 1);
    t.ack_now <- true
  end
  else if t.delack = None then begin
    Proto_env.charge rx.env rx.env.Proto_env.costs.Costs.timer_op;
    t.delack <-
      Some
        (Timers.arm rx.env.Proto_env.timers rx.prm.Tcp_params.delack (fun () ->
             t.delack <- None;
             if rx.hooks.alive c then begin
               t.ack_now <- true;
               rx.hooks.expired c
             end))
  end

(* --- receive coalescing (rx_coalesce) ---------------------------------- *)

let limit rx t =
  if rx.prm.Tcp_params.burst_ack then gro_budget
  else
    (* Without burst_ack a merge may not cross an ACK boundary: the cap
       lets one flush bump the segment count at most to the next
       [ack_every] multiple, so the emitted ACK stream is identical to
       per-packet arrival. *)
    Stdlib.min gro_budget (Stdlib.max 0 (rx.prm.Tcp_params.ack_every - t.unacked_segs))

let charge_input rx = Proto_env.charge rx.env rx.env.Proto_env.costs.Costs.tcp_input

let flush rx =
  match rx.run with
  | None -> ()
  | Some g ->
      rx.run <- None;
      rx.flushes <- rx.flushes + 1;
      (* The run pays the input state machine once; per-frame byte
         touching and absorb costs were charged on arrival. *)
      charge_input rx;
      if rx.hooks.alive g.g_conn then begin
        (* The chunks, oldest first, as one chain. *)
        let payload = List.fold_left (fun m v -> Mbuf.prepend v m) Mbuf.empty g.g_chunks in
        let seg =
          { g.g_first with
            Tcp_wire.ack = g.g_ack;
            wnd = g.g_wnd;
            flags = { Tcp_wire.no_flags with Tcp_wire.ack = true; psh = g.g_psh };
            opts = { Tcp_wire.no_opts with Tcp_wire.ts = g.g_ts };
            payload }
        in
        rx.segs <- g.g_count;
      (* The flushed run flows through the same delayed-ACK accounting
         as per-packet arrival ([schedule] counts its [segs] wire
         segments), so FIN and out-of-order segments still force an
         immediate ACK and a pushed run waits out the cadence exactly
         as it would have packet by packet.  Delaying a reply's ACK
         delays nothing the application sees — the data is delivered at
         flush — it only lets the ACK answer several replies at once,
         which is the burst_ack saving. *)
        Fun.protect ~finally:(fun () -> rx.segs <- 1) (fun () -> rx.hooks.process g.g_conn seg)
      end

(* Copy a frame's payload out of its (soon recycled) receive buffer,
   charging the absorb; every byte of the chunk is written. *)
let copy rx (seg : Tcp_wire.segment) =
  Proto_env.charge rx.env rx.env.Proto_env.costs.Costs.gro_append;
  let n = Mbuf.length seg.Tcp_wire.payload in
  let copy = View.of_bytes (Bytes.create n) in
  Mbuf.blit seg.Tcp_wire.payload 0 copy 0 n;
  copy

let absorb rx g (seg : Tcp_wire.segment) =
  let copy = copy rx seg in
  g.g_chunks <- copy :: g.g_chunks;
  g.g_len <- g.g_len + View.length copy;
  g.g_count <- g.g_count + 1;
  g.g_ack <- seg.Tcp_wire.ack;
  g.g_wnd <- seg.Tcp_wire.wnd;
  (match seg.Tcp_wire.opts.Tcp_wire.ts with Some _ as ts -> g.g_ts <- ts | None -> ());
  if seg.Tcp_wire.flags.Tcp_wire.psh then g.g_psh <- true;
  rx.merged <- rx.merged + 1;
  if g.g_count >= g.g_limit then flush rx

(* The cap and the window are read after the absorb charge, which sleeps:
   the application may have drained the receive queue meanwhile. *)
let start rx c (seg : Tcp_wire.segment) =
  let copy = copy rx seg in
  rx.run <-
    Some
      { g_conn = c;
        g_first = seg;
        g_chunks = [ copy ];
        g_len = View.length copy;
        g_count = 1;
        g_limit = limit rx (rx.hooks.acks c);
        g_room = rx.hooks.room c;
        g_ack = seg.Tcp_wire.ack;
        g_wnd = seg.Tcp_wire.wnd;
        g_ts = seg.Tcp_wire.opts.Tcp_wire.ts;
        g_psh = seg.Tcp_wire.flags.Tcp_wire.psh }

(* One decoded segment for connection [c] inside a burst.  The
   [tcp_input] state-machine charge is deferred: absorbed frames pay the
   cheaper [gro_append] and the merged run pays [tcp_input] once at
   flush. *)
let input rx c (seg : Tcp_wire.segment) =
  let bytes = Mbuf.length seg.Tcp_wire.payload in
  match rx.run with
  | Some g
    when g.g_conn == c
         && rx.hooks.plain c seg
         && seg.Tcp_wire.seq = Tcp_seq.add g.g_first.Tcp_wire.seq g.g_len
         && g.g_count < g.g_limit
         && g.g_len + bytes <= g.g_room
         && Tcp_seq.ge seg.Tcp_wire.ack g.g_ack ->
      absorb rx g seg
  | pending ->
      (* Not a continuation: close out any run first (segments must be
         processed in arrival order), then either start a new run or
         take the ordinary per-packet path. *)
      if Option.is_some pending then flush rx;
      if
        rx.hooks.in_order c seg && bytes <= rx.hooks.room c && limit rx (rx.hooks.acks c) >= 2
      then start rx c seg
      else begin
        charge_input rx;
        rx.hooks.process c seg
      end

let begin_burst rx = if rx.prm.Tcp_params.rx_coalesce then rx.in_burst <- rx.in_burst + 1

let end_burst rx =
  rx.in_burst <- Stdlib.max 0 (rx.in_burst - 1);
  (* The closing episode's run must reach the application before its
     thread goes back to sleep; a sibling's still-open run flushed here
     merely restarts (cheaply) on its next frame. *)
  flush rx
