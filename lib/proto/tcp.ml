module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Timers = Uln_engine.Timers
module Rng = Uln_engine.Rng
module Mailbox = Uln_engine.Mailbox
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Bytequeue = Uln_buf.Bytequeue
module Iovec = Uln_buf.Iovec
module Ip = Uln_addr.Ip
module Costs = Uln_host.Costs
module Cpu = Uln_host.Cpu
module State = Tcp_state

(* Longest single advance of the pacing horizon (see the pacing note in
   [output_once]): bounds the damage of a delayed-ACK-inflated srtt
   sample while leaving real pacing gaps — fractions of an RTT per
   episode — untouched. *)
let pace_max_gap_us = 2000.

(* Assumed peer MSS when the SYN carries no option (RFC 1122). *)
let mss_default = 536

(* Retransmissions of one segment before the connection gives up. *)
let max_backoff = 12

(* Most original segments one rx_coalesce merge may absorb once
   burst_ack lifts the ACK-cadence cap. *)
let gro_budget = 32

(* Largest logical segment one tx_gso episode may build: the IP
   total-length ceiling. *)
let gso_max = 65535

exception Connection_error of string

(* The send queue has two representations: the classic contiguous
   socket buffer (data is copied in on write and copied out per
   segment), and the zero-copy iovec chain (segments re-reference the
   application's buffers; a slot's release callback fires when its last
   byte is acknowledged).  Which one a connection gets is fixed at
   creation by [Tcp_params.zero_copy]. *)
type sendq = Q of Bytequeue.t | I of Iovec.t

let sendq_length = function Q q -> Bytequeue.length q | I i -> Iovec.length i

(* Peek without a checksum (retransmissions, window probes): the encode
   path will sum the payload itself. *)
let sendq_peek sq ~off ~len =
  match sq with
  | Q q -> Mbuf.of_view (Bytequeue.peek q ~off ~len)
  | I i -> Iovec.peek i ~off ~len

(* Peek with the running 16-bit sum.  On the copying path this is the
   fused copy+checksum pass; on the iovec chain it is a pure checksum
   walk over the referenced fragments (parity-correct across odd-length
   boundaries) — no bytes move. *)
let sendq_peek_sum sq ~off ~len =
  match sq with
  | Q q ->
      let v, sum = Bytequeue.peek_sum q ~off ~len in
      (Mbuf.of_view v, sum)
  | I i -> Iovec.peek_sum i ~off ~len

let sendq_drop sq n = match sq with Q q -> Bytequeue.drop q n | I i -> Iovec.drop i n
let sendq_clear = function Q q -> Bytequeue.clear q | I i -> Iovec.clear i

type snapshot = {
  snap_local_port : int;
  snap_remote_ip : Ip.t;
  snap_remote_port : int;
  snap_iss : Tcp_seq.t;
  snap_irs : Tcp_seq.t;
  snap_snd_una : Tcp_seq.t;
  snap_snd_nxt : Tcp_seq.t;
  snap_snd_wnd : int;
  snap_rcv_nxt : Tcp_seq.t;
  snap_mss : int;
  snap_srtt_us : float;
  snap_rttvar_us : float;
  snap_rcv_pending : string;
}

type conn = {
  engine : t;
  local_port : int;
  remote_ip : Ip.t;
  remote_port : int;
  mutable state : State.t;
  mutable fsm : Tcp_fsm.Packed.t;
      (* The session-typed witness; [state] is its shadow oracle,
         asserted equal at every transition. *)
  (* send side *)
  snd_buf : sendq;
  mutable iss : Tcp_seq.t;
  mutable snd_una : Tcp_seq.t;
  mutable snd_nxt : Tcp_seq.t;
  mutable snd_max : Tcp_seq.t; (* highest sequence ever sent *)
  mutable snd_wnd : int;
  mutable snd_wl1 : Tcp_seq.t;
  mutable snd_wl2 : Tcp_seq.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  (* receive side *)
  rcv_buf : Bytequeue.t;
  mutable irs : Tcp_seq.t;
  mutable rcv_nxt : Tcp_seq.t;
  mutable rcv_adv : Tcp_seq.t; (* highest advertised rcv_nxt + window *)
  mutable loaned_bytes : int; (* delivered as loans, not yet returned *)
  mutable fin_received : bool;
  mutable ooseg : (Tcp_seq.t * View.t) list; (* out-of-order, sorted by seq *)
  mutable recent_oo : Tcp_seq.t option; (* newest out-of-order arrival (SACK block 1) *)
  (* congestion control *)
  cc : Cong_control.t;
  mutable dupacks : int;
  (* negotiated options (frozen once the handshake completes) *)
  mutable ws_ok : bool;
  mutable snd_scale : int; (* shift applied to windows the peer advertises *)
  mutable rcv_scale : int; (* shift applied to windows we advertise *)
  mutable sack_ok : bool;
  mutable ts_ok : bool;
  mutable ts_recent : int; (* peer's newest in-window TSval (our TSecr) *)
  (* SACK send-side scoreboard *)
  sb : Sack.t;
  mutable sack_cursor : Tcp_seq.t; (* hole-retransmission cursor *)
  mutable sack_rexmits : int;
  (* recovery-episode accounting (loss detection -> snd_una past the
     frontier at detection), the bench's recovery-time samples *)
  mutable rec_start : Time.t option;
  mutable rec_point : Tcp_seq.t;
  mutable rec_samples_us : float list; (* newest first *)
  (* option diagnostics *)
  mutable unknown_opts : int;
  mutable wnd_clamps : int;
  mutable last_emit : Time.t;
  (* RTT estimation *)
  mutable srtt_us : float;
  mutable rttvar_us : float;
  mutable rtt_min_us : float; (* smallest sample seen; 0 until the first *)
  mutable rto : Time.span;
  mutable backoff : int;
  mutable rtt_timing : (Tcp_seq.t * Time.t) option;
  (* negotiated *)
  mutable mss : int;
  (* timers *)
  mutable rexmt : Timers.handle option;
  mutable persist : Timers.handle option;
  mutable delack : Timers.handle option;
  mutable time_wait : Timers.handle option;
  mutable keepalive : Timers.handle option;
  mutable idle_since : Time.t;
  mutable ka_probes : int;
  mutable unacked_segs : int;
  mutable ack_now : bool;
  (* software pacing (Tcp_params.pacing) *)
  mutable pace_next : Time.t; (* earliest instant the next data send may leave *)
  mutable pacer : Timers.handle option;
  (* engine bookkeeping *)
  mutable output_active : bool;
  mutable output_pending : bool;
  mutable error : string option;
  mutable detached : bool; (* exported: no longer usable *)
  waiters : Sched.waker Queue.t; (* readers, writers, state watchers *)
  mutable closed_callbacks : (unit -> unit) list;
  (* queue to notify on establish, with the witness minted at that instant *)
  mutable accept_box : (conn * [ `Established ] Tcp_fsm.state) Mailbox.t option;
}

and listener = { lport : int; backlog : (conn * [ `Established ] Tcp_fsm.state) Mailbox.t }

(* An in-progress receive merge (rx_coalesce): contiguous in-order
   segments from one connection, accumulated during an rx burst and
   processed as a single large segment at flush.  Payload bytes are
   copied out of each frame at absorb time — the frames themselves are
   recycled by the library as soon as its input call returns — and the
   flush hands the chunks on as one multi-segment chain. *)
and gro_pending = {
  g_conn : conn;
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

and t = {
  env : Proto_env.t;
  ip : Ipv4.t;
  prm : Tcp_params.t;
  pcbs : (int32 * int * int, conn) Hashtbl.t; (* remote ip, remote port, local port *)
  listeners : (int, listener) Hashtbl.t;
  mutable rst_on_unknown : bool;
  mutable unknown_hook : (src:Ip.t -> dst:Ip.t -> Mbuf.t -> bool) option;
  mutable time_wait_hook : (conn -> bool) option;
  mutable segments_in : int;
  mutable segments_out : int;
  mutable retransmissions : int;
  mutable rsts_out : int;
  mutable checksum_failures : int;
  mutable unknown_options : int;
  (* receive coalescing (rx_coalesce) *)
  mutable in_burst : int;
      (* begin_burst/end_burst nesting depth: receive threads of
         different connections share one engine, and an episode that
         sleeps between ring polls overlaps its siblings' brackets *)
  mutable gro : gro_pending option;
  mutable gro_segs : int;
      (* original segments represented by the segment currently inside
         process_segment: 1 on the per-packet path, the merge count
         while a flush is being processed — schedule_ack's multiplier *)
  mutable gro_merged : int; (* segments absorbed beyond the first of a run *)
  mutable gro_flushes : int; (* merged runs handed to process_segment *)
  mutable acks_elided : int; (* ACKs burst_ack coalescing suppressed *)
  (* transmit fast path (tx_gso / pacing) *)
  mutable gso_sends : int; (* oversized logical segments handed to the NIC *)
  mutable gso_fallbacks : int; (* data sends that went per-segment with tx_gso on *)
  mutable pacer_waits : int; (* data sends the pacer deferred *)
  mutable pacer_wait_us : float; (* total deferral *)
  pacer_hist : (int, int) Hashtbl.t; (* log2(deferral in us) -> count *)
}

let params t = t.prm
let set_rst_on_unknown t v = t.rst_on_unknown <- v
let set_unknown_segment_hook t f = t.unknown_hook <- Some f
let set_time_wait_hook t f = t.time_wait_hook <- Some f
let segments_in t = t.segments_in
let segments_out t = t.segments_out
let retransmissions t = t.retransmissions
let rsts_out t = t.rsts_out
let checksum_failures t = t.checksum_failures
let active_connections t = Hashtbl.length t.pcbs
let unknown_options t = t.unknown_options
let gro_merged t = t.gro_merged
let gro_flushes t = t.gro_flushes
let acks_elided t = t.acks_elided
let gso_sends t = t.gso_sends
let gso_fallbacks t = t.gso_fallbacks
let pacer_waits t = t.pacer_waits
let pacer_wait_us t = t.pacer_wait_us

let pacer_hist t =
  List.sort
    (fun (a, _) (b, _) -> Stdlib.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.pacer_hist [])

let state c = c.state
let fsm c = c.fsm
let established_witness c = Tcp_fsm.Packed.established c.fsm
let error c = c.error
let local_port c = c.local_port
let remote_addr c = (c.remote_ip, c.remote_port)
let mss c = c.mss
let srtt_us c = c.srtt_us
let rto c = c.rto
let cwnd c = Cong_control.cwnd c.cc
let bytes_queued c = sendq_length c.snd_buf
let bytes_available c = Bytequeue.length c.rcv_buf
let loaned_bytes c = c.loaned_bytes

type conn_options = {
  co_snd_scale : int;
  co_rcv_scale : int;
  co_sack : bool;
  co_timestamps : bool;
  co_cong : string;
  co_unknown_opts : int;
  co_wnd_clamps : int;
  co_sack_rexmits : int;
  co_recovery_us : float list;
}

let conn_options c =
  { co_snd_scale = c.snd_scale;
    co_rcv_scale = c.rcv_scale;
    co_sack = c.sack_ok;
    co_timestamps = c.ts_ok;
    co_cong = Cong_control.name c.cc;
    co_unknown_opts = c.unknown_opts;
    co_wnd_clamps = c.wnd_clamps;
    co_sack_rexmits = c.sack_rexmits;
    co_recovery_us = c.rec_samples_us }

let key ~remote_ip ~remote_port ~local_port = (Ip.to_int32 remote_ip, remote_port, local_port)
let conn_key c = key ~remote_ip:c.remote_ip ~remote_port:c.remote_port ~local_port:c.local_port

(* --- wakeups ------------------------------------------------------- *)

let wake_all c =
  while not (Queue.is_empty c.waiters) do
    (Queue.pop c.waiters) ()
  done

let wait_on c = Sched.suspend (fun wake -> Queue.push wake c.waiters)

let on_closed c f = c.closed_callbacks <- f :: c.closed_callbacks

(* --- timers --------------------------------------------------------- *)

let stop_timer slot =
  match slot with
  | None -> None
  | Some h ->
      Timers.disarm h;
      None

let charge_timer_op c = Proto_env.charge c.engine.env c.engine.env.Proto_env.costs.Costs.timer_op

(* --- window computation --------------------------------------------- *)

(* Bytes loaned out to the application still occupy receive buffering
   (the pool buffer cannot be reused until returned), so outstanding
   loans shrink the advertised window: a slow application throttles its
   sender instead of starving the receive ring. *)
let rcv_window c =
  let used = Bytequeue.length c.rcv_buf + c.loaned_bytes in
  Stdlib.max 0 (c.engine.prm.Tcp_params.rcv_buf - used)

let snd_window c = Stdlib.min c.snd_wnd (Cong_control.cwnd c.cc)

(* The window a peer's segment grants us: scaled by the negotiated
   shift, except on SYN segments, which RFC 1323 keeps unscaled. *)
let seg_snd_wnd c (seg : Tcp_wire.segment) =
  if seg.Tcp_wire.flags.Tcp_wire.syn then seg.Tcp_wire.wnd
  else seg.Tcp_wire.wnd lsl c.snd_scale

(* How much of [wnd] the 16-bit field can advertise after scaling. *)
let advertisable c wnd =
  if c.rcv_scale > 0 then Stdlib.min (wnd lsr c.rcv_scale) 0xffff lsl c.rcv_scale
  else Stdlib.min wnd 0xffff

(* RFC 1323 timestamp clock: simulated milliseconds, mod 2^32. *)
let ts_now_ms c =
  int_of_float (Time.to_ms_f (Time.diff (Proto_env.now c.engine.env) Time.zero))
  land 0xFFFFFFFF

let now_us c = Time.to_us_f (Time.diff (Proto_env.now c.engine.env) Time.zero)

(* --- segment emission ----------------------------------------------- *)

let emit ?payload_sum ?(gso_size = 0) t ~src_ip ~dst_ip (seg : Tcp_wire.segment) =
  let costs = t.env.Proto_env.costs in
  let payload_bytes = Mbuf.length seg.Tcp_wire.payload in
  Proto_env.charge t.env costs.Costs.tcp_output;
  (* Payload bytes leave the send buffer through one of three passes:
     a checksum-only walk of the referenced iovec chain (zero-copy —
     nothing moves), one fused copy+checksum pass, or two separate
     passes (the unfused ablation).  The header is always a
     checksum-only pass. *)
  if t.prm.Tcp_params.zero_copy then
    Proto_env.charge_bytes ~kind:Cpu.Checksum t.env
      ~per_byte_ns:costs.Costs.checksum_per_byte_ns payload_bytes
  else if t.prm.Tcp_params.fused_checksum then
    Proto_env.charge_bytes ~kind:Cpu.Copy_checksum t.env
      ~per_byte_ns:costs.Costs.copy_checksum_per_byte_ns payload_bytes
  else begin
    Proto_env.charge_bytes ~kind:Cpu.Copy t.env ~per_byte_ns:costs.Costs.copy_per_byte_ns
      payload_bytes;
    Proto_env.charge_bytes ~kind:Cpu.Checksum t.env
      ~per_byte_ns:costs.Costs.checksum_per_byte_ns payload_bytes
  end;
  (* Header checksum pass.  The historical engine charged the bare
     20-byte header even on MSS-bearing SYNs; keep that for the legacy
     option shapes (<= 4 bytes) so the ablation baselines stay
     bit-identical, and charge the true header length once the modern
     options (timestamps, SACK blocks) make it grow. *)
  let opt_len = Tcp_wire.opts_length seg.Tcp_wire.opts in
  Proto_env.charge_bytes ~kind:Cpu.Checksum t.env
    ~per_byte_ns:costs.Costs.checksum_per_byte_ns
    (Tcp_wire.header_size + if opt_len > 4 then opt_len else 0);
  t.segments_out <- t.segments_out + 1;
  if gso_size > 0 then t.gso_sends <- t.gso_sends + 1;
  let m = Tcp_wire.encode ?payload_sum ~src_ip ~dst_ip seg in
  Ipv4.output t.ip ~proto:6 ~dst:dst_ip ~gso_size m

let send_rst_for t ~src ~(seg : Tcp_wire.segment) =
  if t.rst_on_unknown then begin
    t.rsts_out <- t.rsts_out + 1;
    let flags, seq, ack =
      if seg.Tcp_wire.flags.Tcp_wire.ack then
        ({ Tcp_wire.no_flags with Tcp_wire.rst = true }, seg.Tcp_wire.ack, 0)
      else
        ( { Tcp_wire.no_flags with Tcp_wire.rst = true; ack = true },
          0,
          Tcp_seq.add seg.Tcp_wire.seq (Tcp_wire.seg_len seg) )
    in
    emit t ~src_ip:(Ipv4.my_ip t.ip) ~dst_ip:src
      { Tcp_wire.src_port = seg.Tcp_wire.dst_port;
        dst_port = seg.Tcp_wire.src_port;
        seq;
        ack;
        flags;
        wnd = 0;
        opts = Tcp_wire.no_opts;
        payload = Mbuf.empty }
  end

(* Smallest shift that fits the receive buffer into the 16-bit field. *)
let scale_for buf =
  let rec go s = if s >= 14 || buf lsr s <= 0xffff then s else go (s + 1) in
  go 0

(* The out-of-order queue as merged [left, right) sequence ranges — the
   candidate SACK blocks. *)
let oo_ranges c =
  let rec merge = function
    | (s1, e1) :: ((s2, e2) :: rest as tl) ->
        if Tcp_seq.ge e1 s2 then merge ((s1, Tcp_seq.max e1 e2) :: rest)
        else (s1, e1) :: merge tl
    | l -> l
  in
  merge (List.map (fun (s, d) -> (s, Tcp_seq.add s (View.length d))) c.ooseg)

(* Handshake-segment options.  Constructing them requires the FSM's
   option permit: outside Listen/Syn_sent/Syn_received the witness
   yields none and the segment carries only the classic MSS.  A SYN
   carries our offers (from Tcp_params); a SYN-ACK echoes exactly what
   negotiation accepted. *)
let syn_opts c ~syn_ack =
  match Tcp_fsm.Packed.option_permit c.fsm with
  | None -> Tcp_wire.opts_mss c.mss
  | Some _ ->
      let prm = c.engine.prm in
      if syn_ack then
        { Tcp_wire.no_opts with
          Tcp_wire.mss = Some c.mss;
          wscale = (if c.ws_ok then Some c.rcv_scale else None);
          sack_ok = c.sack_ok;
          ts = (if c.ts_ok then Some (ts_now_ms c, c.ts_recent) else None) }
      else
        { Tcp_wire.no_opts with
          Tcp_wire.mss = Some c.mss;
          wscale =
            (if prm.Tcp_params.window_scale then
               Some (scale_for prm.Tcp_params.rcv_buf)
             else None);
          sack_ok = prm.Tcp_params.sack;
          ts = (if prm.Tcp_params.timestamps then Some (ts_now_ms c, c.ts_recent) else None) }

(* Commit to the peer's SYN/SYN-ACK offers.  Gated by the same FSM
   permit: an option offer arriving outside the handshake states cannot
   change a connection's negotiated state. *)
let negotiate_options c (peer : Tcp_wire.opts) =
  match Tcp_fsm.Packed.option_permit c.fsm with
  | None -> ()
  | Some _ ->
      let prm = c.engine.prm in
      (match peer.Tcp_wire.wscale with
      | Some s when prm.Tcp_params.window_scale ->
          c.ws_ok <- true;
          c.snd_scale <- Stdlib.min s 14;
          c.rcv_scale <- scale_for prm.Tcp_params.rcv_buf;
          (* The 64KB cwnd clamp was an artifact of the 16-bit window;
             with scaling in effect the send buffer is the cap. *)
          Cong_control.set_max_cwnd c.cc (Stdlib.max prm.Tcp_params.snd_buf 65535)
      | _ -> ());
      if peer.Tcp_wire.sack_ok && prm.Tcp_params.sack then c.sack_ok <- true;
      (match peer.Tcp_wire.ts with
      | Some (tsval, _) when prm.Tcp_params.timestamps ->
          c.ts_ok <- true;
          c.ts_recent <- tsval
      | _ -> ())

(* Send one segment of this connection.  [seq] is explicit so fast
   retransmit can resend at snd_una without disturbing snd_nxt. *)
let send_segment ?payload_sum ?gso_size c ~seq ~flags ~payload ~with_mss =
  let t = c.engine in
  let wnd = rcv_window c in
  let scaled = c.rcv_scale > 0 && not flags.Tcp_wire.syn in
  let wire_wnd =
    if scaled then Stdlib.min (wnd lsr c.rcv_scale) 0xffff
    else begin
      (* Unscaled connections cannot advertise past 64KB; make the
         clamp observable instead of silent. *)
      if wnd > 0xffff then c.wnd_clamps <- c.wnd_clamps + 1;
      Stdlib.min wnd 0xffff
    end
  in
  let adv = if scaled then wire_wnd lsl c.rcv_scale else wire_wnd in
  c.rcv_adv <- Tcp_seq.max c.rcv_adv (Tcp_seq.add c.rcv_nxt adv);
  c.unacked_segs <- 0;
  c.ack_now <- false;
  c.delack <- stop_timer c.delack;
  c.last_emit <- Proto_env.now t.env;
  let opts =
    if with_mss then syn_opts c ~syn_ack:flags.Tcp_wire.ack
    else begin
      let sack =
        if c.sack_ok && c.ooseg <> [] then
          Sack.select_blocks ~recent:c.recent_oo ~limit:3 (oo_ranges c)
        else []
      in
      let ts = if c.ts_ok then Some (ts_now_ms c, c.ts_recent) else None in
      if sack = [] && ts = None then Tcp_wire.no_opts
      else { Tcp_wire.no_opts with Tcp_wire.sack; ts }
    end
  in
  emit ?payload_sum ?gso_size t ~src_ip:(Ipv4.my_ip t.ip) ~dst_ip:c.remote_ip
    { Tcp_wire.src_port = c.local_port;
      dst_port = c.remote_port;
      seq;
      ack = c.rcv_nxt;
      flags;
      wnd = wire_wnd;
      opts;
      payload }

let flags_ack = { Tcp_wire.no_flags with Tcp_wire.ack = true }
let flags_syn = { Tcp_wire.no_flags with Tcp_wire.syn = true }
let flags_syn_ack = { Tcp_wire.no_flags with Tcp_wire.syn = true; ack = true }

(* --- loss-recovery accounting ----------------------------------------- *)

(* A recovery episode runs from loss detection (fast retransmit or RTO)
   until the cumulative ACK passes the send frontier at detection; the
   elapsed time is the bench's recovery-time sample. *)
let start_recovery c =
  if c.rec_start = None then begin
    c.rec_start <- Some (Proto_env.now c.engine.env);
    c.rec_point <- c.snd_max
  end

(* SACK-based hole retransmission (RFC 6675 flavour): walk the unSACKed
   gaps below the highest SACKed edge, resending one MSS at a time while
   the estimated pipe (bytes still in the network) is below cwnd.  The
   cursor makes each hole eligible once per ACK event, so several
   distinct holes can be repaired within a single RTT.  Returns true if
   anything went out. *)
let sack_retransmit c =
  match Sack.highest c.sb with
  | None -> false
  | Some high ->
      let upto = Tcp_seq.min high c.snd_nxt in
      if Tcp_seq.lt c.sack_cursor c.snd_una then c.sack_cursor <- c.snd_una;
      let sent = ref 0 in
      let stop = ref false in
      while not !stop do
        let pipe =
          Tcp_seq.diff c.snd_nxt c.snd_una - Sack.sacked_bytes c.sb + !sent
        in
        if pipe >= Cong_control.cwnd c.cc then stop := true
        else
          match Sack.next_hole c.sb ~from:c.sack_cursor ~upto with
          | None -> stop := true
          (* RFC 6675 IsLost: the hole only counts as lost — rather than
             still in flight between two freshly SACKed neighbours —
             once three segments' worth of data beyond it has been
             SACKed.  The evidence is monotone in the hole's position,
             so the first ineligible hole ends the walk. *)
          | Some (l, _) when Sack.sacked_above c.sb l < 3 * c.mss -> stop := true
          | Some (l, r) ->
              let off = Tcp_seq.diff l c.snd_una in
              let len = Stdlib.min c.mss (Tcp_seq.diff r l) in
              let len = Stdlib.min len (sendq_length c.snd_buf - off) in
              if off < 0 || len <= 0 then stop := true
              else begin
                c.engine.retransmissions <- c.engine.retransmissions + 1;
                c.sack_rexmits <- c.sack_rexmits + 1;
                c.rtt_timing <- None;
                send_segment c ~seq:l ~flags:flags_ack
                  ~payload:(sendq_peek c.snd_buf ~off ~len)
                  ~with_mss:false;
                c.sack_cursor <- Tcp_seq.add l len;
                sent := !sent + len
              end
      done;
      !sent > 0

(* --- connection teardown -------------------------------------------- *)

let remove_conn c =
  Hashtbl.remove c.engine.pcbs (conn_key c)

(* Every state change goes through a typed witness: assert the shadow
   oracle, apply the transition to the packed witness, and move the
   untyped field to the witness's new shadow.  No [c.state <- ...]
   exists outside this helper and [destroy]. *)
let transition c tr =
  Tcp_fsm.Packed.check_shadow c.fsm c.state;
  c.fsm <- Tcp_fsm.Packed.apply c.fsm tr;
  c.state <- Tcp_fsm.target tr

let destroy c reason =
  c.rexmt <- stop_timer c.rexmt;
  c.persist <- stop_timer c.persist;
  c.delack <- stop_timer c.delack;
  c.time_wait <- stop_timer c.time_wait;
  c.keepalive <- stop_timer c.keepalive;
  c.pacer <- stop_timer c.pacer;
  if c.state <> State.Closed then begin
    (* Retire through the matching edge to the terminal state: clean
       teardown (no error) takes the close/expire/fin-acked edges, an
       errored one the abort edges. *)
    Tcp_fsm.Packed.check_shadow c.fsm c.state;
    c.fsm <- Tcp_fsm.Packed.retire c.fsm ~clean:(reason = None);
    c.state <- State.Closed;
    c.error <- (match c.error with None -> reason | some -> some);
    remove_conn c;
    (* Fire any pending zero-copy releases: buffers queued but never
       acknowledged go back to their pool with the connection. *)
    sendq_clear c.snd_buf;
    wake_all c;
    List.iter (fun f -> f ()) (List.rev c.closed_callbacks)
  end

let trace c fmt =
  Uln_engine.Trace.debugf c.engine.env.Proto_env.sched "tcp"
    ("[:%d<->%d] " ^^ fmt) c.local_port c.remote_port

let drop_with_error c msg =
  trace c "dropped: %s" msg;
  destroy c (Some msg)

let finish_cleanly c =
  trace c "closed";
  destroy c None

(* --- RTT estimation (Jacobson) --------------------------------------- *)

let update_rtt c sample_us =
  let prm = c.engine.prm in
  (* The pacer's rate base: the smallest RTT ever observed.  The
     smoothed estimate tracks queueing delay, and pacing from it is a
     positive feedback loop — queues inflate srtt, the pacer slows
     down, releases bunch behind the timer, queues grow.  The minimum
     is the propagation floor the queue sits on. *)
  if c.rtt_min_us = 0. || sample_us < c.rtt_min_us then c.rtt_min_us <- sample_us;
  if c.srtt_us = 0. then begin
    c.srtt_us <- sample_us;
    c.rttvar_us <- sample_us /. 2.
  end
  else begin
    let err = sample_us -. c.srtt_us in
    c.srtt_us <- c.srtt_us +. (err /. 8.);
    c.rttvar_us <- c.rttvar_us +. ((Float.abs err -. c.rttvar_us) /. 4.)
  end;
  let rto_us = c.srtt_us +. (4. *. c.rttvar_us) in
  let rto = Time.of_us_f rto_us in
  c.rto <-
    Stdlib.max prm.Tcp_params.min_rto (Stdlib.min prm.Tcp_params.max_rto rto);
  c.backoff <- 0

(* --- output engine --------------------------------------------------- *)

let rec arm_rexmt c =
  match c.rexmt with
  | Some _ -> ()
  | None ->
      charge_timer_op c;
      let delay = Time.span_scale c.rto (1 lsl Stdlib.min c.backoff 6) in
      let delay = Stdlib.min delay c.engine.prm.Tcp_params.max_rto in
      (* The handler runs in its own thread; by then the connection may
         have restarted the timer (the ACK arrived between fire and
         run).  Act only if this handle is still the current one. *)
      let mine = ref None in
      let h =
        Timers.arm c.engine.env.Proto_env.timers delay (fun () ->
            Proto_env.spawn_handler c.engine.env ~name:"tcp.rexmt" (fun () ->
                match (c.rexmt, !mine) with
                | Some cur, Some this when cur == this ->
                    c.rexmt <- None;
                    rexmt_fired c
                | _ -> ()))
      in
      mine := Some h;
      c.rexmt <- Some h

and rexmt_fired c =
  if c.state <> State.Closed && not c.detached then begin
    let t = c.engine in
    c.backoff <- c.backoff + 1;
    if c.backoff > max_backoff then drop_with_error c "connection timed out"
    else begin
      t.retransmissions <- t.retransmissions + 1;
      trace c "retransmission timeout (backoff %d, state %s)" c.backoff
        (State.to_string c.state);
      (* Karn: stop timing across retransmissions. *)
      c.rtt_timing <- None;
      c.dupacks <- 0;
      (match c.state with
      | State.Syn_sent ->
          arm_rexmt c;
          send_segment c ~seq:c.iss ~flags:flags_syn ~payload:Mbuf.empty ~with_mss:true
      | State.Syn_received ->
          arm_rexmt c;
          send_segment c ~seq:c.iss ~flags:flags_syn_ack ~payload:Mbuf.empty ~with_mss:true
      | _ ->
          (* Congestion collapse response: shrink and go back to snd_una. *)
          let flight = Stdlib.min (snd_window c) (Tcp_seq.diff c.snd_nxt c.snd_una) in
          Cong_control.on_rto c.cc ~flight;
          (* Reneging safety (RFC 2018 §8): the peer may discard data it
             SACKed, so after a timeout the scoreboard is forgotten and
             everything from snd_una is eligible again. *)
          Sack.clear c.sb;
          c.sack_cursor <- c.snd_una;
          if Tcp_seq.gt c.snd_nxt c.snd_una then start_recovery c;
          c.snd_nxt <- c.snd_una;
          c.fin_sent <- false;
          output c)
    end
  end

and output c =
  if c.output_active then c.output_pending <- true
  else begin
    c.output_active <- true;
    let continue = ref true in
    while !continue do
      c.output_pending <- false;
      let sent = output_once c in
      if not sent && not c.output_pending then continue := false
    done;
    c.output_active <- false
  end

(* Try to emit one segment; true if something was sent. *)
and output_once c =
  if c.detached || c.state = State.Closed then false
  else begin
    let prm = c.engine.prm in
    let off = Tcp_seq.diff c.snd_nxt c.snd_una in
    (* [off] counts the unacked FIN if one is in flight; data offset
       never exceeds the buffer. *)
    let data_off = Stdlib.min (Stdlib.max 0 off) (sendq_length c.snd_buf) in
    let avail = sendq_length c.snd_buf - data_off in
    (* Congestion-window validation: nothing in flight and no segment
       sent for over an RTO means the ACK clock is dead — restart from
       the initial window (no-op under the Reno oracle). *)
    if
      off = 0 && avail > 0
      && Time.diff (Proto_env.now c.engine.env) c.last_emit > c.rto
    then Cong_control.on_idle c.cc;
    let wnd = snd_window c in
    let usable = Stdlib.max 0 (wnd - off) in
    (* Transmit segmentation offload: at the send frontier one
       oversized logical segment covers as many whole MSS units as the
       window allows; the NIC cuts the wire frames ({!Uln_net.Txq}).
       Any sub-MSS tail is left for the next pass, so Nagle and FIN/PSH
       placement behave exactly as on the per-segment path, and a
       rewound snd_nxt (retransmission) always goes per-MSS. *)
    let at_frontier = Tcp_seq.ge c.snd_nxt c.snd_max in
    let seg_cap =
      if prm.Tcp_params.tx_gso && at_frontier && usable >= 2 * c.mss then begin
        (* The offload packet is still one IP datagram: its headers
           bound the payload to the 16-bit total-length field.  It is
           further sized to the peer's ACK cadence (one episode, one
           ACK): frames past the cadence would sit in the peer's
           delayed-ACK timer, stalling the window a full delack period
           every round trip. *)
        let cap =
          Stdlib.min gso_max
            (0xffff - Ipv4.header_size - Tcp_wire.header_size)
        in
        let cap = Stdlib.min cap (Stdlib.max 2 prm.Tcp_params.ack_every * c.mss) in
        Stdlib.max c.mss (Stdlib.min cap usable / c.mss * c.mss)
      end
      else c.mss
    in
    let len = Stdlib.min (Stdlib.min seg_cap avail) usable in
    let len = if len > c.mss then len / c.mss * c.mss else len in
    (* New data needs a send permit from the witness (Established or
       half-closed Close_wait); buffered data drains alongside a queued
       FIN regardless.  proto-check pins the permit row to
       [State.can_send_data]. *)
    let data_allowed = Tcp_fsm.Packed.send_permit c.fsm <> None || c.fin_queued in
    let len = if data_allowed then len else 0 in
    let all_data_sent = data_off + len >= sendq_length c.snd_buf in
    let want_fin =
      (* Also resend from FIN-bearing states: after a retransmit timeout
         snd_nxt returns to snd_una with fin_sent cleared, but the state
         has already advanced. *)
      c.fin_queued && not c.fin_sent && all_data_sent
      && (match c.state with
         | State.Established | State.Close_wait | State.Syn_received | State.Fin_wait_1
         | State.Closing | State.Last_ack ->
             true
         | _ -> false)
      && usable - len > 0
    in
    let nagle_blocks =
      len > 0 && len < c.mss && off > 0 && prm.Tcp_params.nagle && not want_fin
      && avail - len = 0
    in
    (* Software pacing: frontier data may leave no earlier than
       [pace_next] (advanced at the cwnd/srtt rate on each send).
       Retransmissions and pure ACKs are never delayed.  When blocked,
       one pacer shot on the timer wheel re-runs the output engine. *)
    let pace_blocked =
      len > 0 && not nagle_blocks && not want_fin && prm.Tcp_params.pacing
      && at_frontier && c.rtt_min_us > 0.
      && Time.( < ) (Proto_env.now c.engine.env) c.pace_next
    in
    if pace_blocked && c.pacer = None then begin
      let t = c.engine in
      Proto_env.charge t.env t.env.Proto_env.costs.Costs.pacer_sched;
      let delay = Time.diff c.pace_next (Proto_env.now t.env) in
      let us = Time.to_us_f delay in
      t.pacer_waits <- t.pacer_waits + 1;
      t.pacer_wait_us <- t.pacer_wait_us +. us;
      let bucket =
        let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
        go 0 (Stdlib.max 1 (int_of_float us))
      in
      Hashtbl.replace t.pacer_hist bucket
        (1 + Option.value ~default:0 (Hashtbl.find_opt t.pacer_hist bucket));
      c.pacer <-
        Some
          (Timers.arm t.env.Proto_env.timers delay (fun () ->
               c.pacer <- None;
               if c.state <> State.Closed && not c.detached then
                 Proto_env.spawn_handler t.env ~name:"tcp.pacer" (fun () -> output c)))
    end;
    let send_data = len > 0 && not nagle_blocks && not pace_blocked in
    if send_data || want_fin || c.ack_now then begin
      let payload, payload_sum =
        if send_data then
          if prm.Tcp_params.fused_checksum then begin
            (* One pass: copy out of the send buffer (or, zero-copy,
               walk the referenced chain) accumulating the checksum in
               the same loop; encode completes it from the header
               without re-reading the payload. *)
            let m, sum = sendq_peek_sum c.snd_buf ~off:data_off ~len in
            (m, Some sum)
          end
          else (sendq_peek c.snd_buf ~off:data_off ~len, None)
        else (Mbuf.empty, None)
      in
      let len = if send_data then len else 0 in
      let fin_now = want_fin && (send_data || len = 0) in
      let flags =
        { Tcp_wire.no_flags with
          Tcp_wire.ack = true;
          fin = fin_now;
          psh = (send_data && data_off + len >= sendq_length c.snd_buf) }
      in
      let seq = c.snd_nxt in
      (* Time this segment if it is new data at the send frontier. *)
      if send_data && c.rtt_timing = None && Tcp_seq.ge seq c.snd_max then
        c.rtt_timing <- Some (seq, Proto_env.now c.engine.env);
      if Tcp_seq.lt seq c.snd_max && send_data then
        c.engine.retransmissions <- c.engine.retransmissions + 1;
      c.snd_nxt <- Tcp_seq.add c.snd_nxt (len + if fin_now then 1 else 0);
      c.snd_max <- Tcp_seq.max c.snd_max c.snd_nxt;
      if fin_now then begin
        c.fin_sent <- true;
        match c.state with
        | State.Established -> transition c Tcp_fsm.Send_fin_established
        | State.Syn_received -> transition c Tcp_fsm.Send_fin_syn_received
        | State.Close_wait -> transition c Tcp_fsm.Send_fin_close_wait
        | _ -> () (* FIN resend after a retransmit timeout: state already advanced *)
      end;
      if send_data || fin_now then arm_rexmt c;
      let gso_size = if send_data && len > c.mss then c.mss else 0 in
      if send_data && prm.Tcp_params.tx_gso && gso_size = 0 then
        c.engine.gso_fallbacks <- c.engine.gso_fallbacks + 1;
      send_segment ?payload_sum ~gso_size c ~seq ~flags ~payload ~with_mss:false;
      (* Advance the pacing horizon by this send's serialization time
         at twice the cwnd-per-minRTT rate.  The factor of two is the
         usual slow-start headroom, so the pacer spreads bursts without
         ever becoming the flow's rate limiter; the minimum RTT (never
         the smoothed one, which tracks queueing delay and delayed-ACK
         artifacts) keeps the feedback negative.  Each advance is still
         capped — one early minimum taken through a delack wait could
         otherwise stall the flow for tens of milliseconds. *)
      if send_data && prm.Tcp_params.pacing && c.rtt_min_us > 0. then begin
        let cw = Stdlib.max c.mss (Cong_control.cwnd c.cc) in
        let gap_us =
          Stdlib.min pace_max_gap_us
            (float_of_int len *. c.rtt_min_us /. (2. *. float_of_int cw))
        in
        let now = Proto_env.now c.engine.env in
        c.pace_next <- Time.add (Time.max now c.pace_next) (Time.of_us_f gap_us)
      end;
      true
    end
    else begin
      (* Nothing sendable: maybe start the persist probe.  A pending FIN
         with a closed window also needs probing or it would never go
         out. *)
      if
        (sendq_length c.snd_buf > 0 || (c.fin_queued && not c.fin_sent))
        && c.snd_wnd = 0 && c.rexmt = None
        && c.persist = None
        && State.synchronized c.state
      then arm_persist c;
      false
    end
  end

and arm_persist c =
  charge_timer_op c;
  let delay = Time.span_scale c.rto (1 lsl Stdlib.min c.backoff 4) in
  c.persist <-
    Some
      (Timers.arm c.engine.env.Proto_env.timers delay (fun () ->
           c.persist <- None;
           Proto_env.spawn_handler c.engine.env ~name:"tcp.persist" (fun () ->
               persist_fired c)))

and persist_fired c =
  if c.state <> State.Closed && not c.detached && c.snd_wnd = 0 then begin
    if sendq_length c.snd_buf > 0 then begin
      (* Window probe: one byte at snd_una. *)
      let payload = sendq_peek c.snd_buf ~off:0 ~len:1 in
      c.backoff <- Stdlib.min (c.backoff + 1) 10;
      send_segment c ~seq:c.snd_una ~flags:flags_ack ~payload ~with_mss:false;
      arm_persist c
    end
    else if c.fin_queued && not c.fin_sent then begin
      (* Force the FIN out as the probe. *)
      c.backoff <- Stdlib.min (c.backoff + 1) 10;
      let seq = c.snd_nxt in
      c.snd_nxt <- Tcp_seq.add c.snd_nxt 1;
      c.snd_max <- Tcp_seq.max c.snd_max c.snd_nxt;
      c.fin_sent <- true;
      (match c.state with
      | State.Established -> transition c Tcp_fsm.Send_fin_established
      | State.Syn_received -> transition c Tcp_fsm.Send_fin_syn_received
      | State.Close_wait -> transition c Tcp_fsm.Send_fin_close_wait
      | _ -> () (* FIN resend after a retransmit timeout: state already advanced *));
      arm_rexmt c;
      send_segment c ~seq
        ~flags:{ Tcp_wire.no_flags with Tcp_wire.ack = true; fin = true }
        ~payload:Mbuf.empty ~with_mss:false
    end
  end

(* --- delayed ACK ------------------------------------------------------ *)

let schedule_ack c =
  (* A merged run counts as the number of original segments it carries:
     the ACK cadence is computed over wire arrivals, not library calls.
     Outside a flush [gro_segs] is 1 and this is the classic path. *)
  let k = c.engine.gro_segs in
  c.unacked_segs <- c.unacked_segs + k;
  if c.unacked_segs >= c.engine.prm.Tcp_params.ack_every then begin
    (* One ACK answers the whole run; per-packet arrival would have
       acknowledged every [ack_every]th segment.  The difference is the
       burst_ack saving (zero when the merge is cadence-capped). *)
    if k > 1 then
      c.engine.acks_elided <-
        c.engine.acks_elided
        + Stdlib.max 0 ((c.unacked_segs / c.engine.prm.Tcp_params.ack_every) - 1);
    c.ack_now <- true
  end
  else if c.delack = None then begin
    charge_timer_op c;
    c.delack <-
      Some
        (Timers.arm c.engine.env.Proto_env.timers c.engine.prm.Tcp_params.delack (fun () ->
             c.delack <- None;
             if c.state <> State.Closed && not c.detached then begin
               c.ack_now <- true;
               Proto_env.spawn_handler c.engine.env ~name:"tcp.delack" (fun () -> output c)
             end))
  end

(* --- keepalive --------------------------------------------------------- *)

(* BSD-style keepalive: once the connection has been idle for the
   configured time, probe with a segment one byte below snd_una (the
   peer must answer with an ACK); unanswered probes eventually drop the
   connection. *)
let rec arm_keepalive c =
  match c.engine.prm.Tcp_params.keepalive with
  | None -> ()
  | Some idle_limit ->
      if c.keepalive = None then begin
        let delay =
          if c.ka_probes = 0 then idle_limit else c.engine.prm.Tcp_params.keepalive_interval
        in
        c.keepalive <-
          Some
            (Timers.arm c.engine.env.Proto_env.timers delay (fun () ->
                 c.keepalive <- None;
                 Proto_env.spawn_handler c.engine.env ~name:"tcp.keepalive" (fun () ->
                     keepalive_fired c)))
      end

and keepalive_fired c =
  match c.engine.prm.Tcp_params.keepalive with
  | None -> ()
  | Some idle_limit ->
      if c.state = State.Established || c.state = State.Close_wait then begin
        let idle = Time.diff (Proto_env.now c.engine.env) c.idle_since in
        if idle < idle_limit && c.ka_probes = 0 then arm_keepalive c
        else if c.ka_probes >= c.engine.prm.Tcp_params.keepalive_probes then
          drop_with_error c "keepalive timeout"
        else begin
          c.ka_probes <- c.ka_probes + 1;
          send_segment c
            ~seq:(Tcp_seq.add c.snd_una (-1))
            ~flags:flags_ack ~payload:Mbuf.empty ~with_mss:false;
          arm_keepalive c
        end
      end

let touch_keepalive c =
  c.idle_since <- Proto_env.now c.engine.env;
  c.ka_probes <- 0

(* --- TIME_WAIT -------------------------------------------------------- *)

(* Callers take the witness transition into TIME_WAIT first; this only
   arranges the 2MSL machinery. *)
let enter_time_wait c =
  trace c "entering TIME_WAIT";
  Tcp_fsm.Packed.check_shadow c.fsm c.state;
  if c.state <> State.Time_wait then invalid_arg "Tcp.enter_time_wait: not in TIME_WAIT";
  c.rexmt <- stop_timer c.rexmt;
  c.persist <- stop_timer c.persist;
  let claimed =
    (* A claimant (the registry's TIME_WAIT wheel) takes over the 2MSL
       residue: it holds the port and a filter for the quiet period, so
       the engine can retire the control block immediately instead of
       keeping it alive on a per-connection timer. *)
    c.time_wait = None
    && (match c.engine.time_wait_hook with Some hook -> hook c | None -> false)
  in
  if claimed then begin
    (* Flush the final ACK of the peer's FIN before the control block
       can be retired: a claimant frees the connection's resources (a
       leased channel goes back to its cache), so anything still
       pending when the spawned cleanup runs would be lost and the
       peer would retransmit its FIN out of LAST_ACK forever. *)
    if c.ack_now then output c;
    Proto_env.spawn_handler c.engine.env ~name:"tcp.2msl" (fun () -> finish_cleanly c)
  end
  else if c.time_wait = None then
    c.time_wait <-
      Some
        (Timers.arm c.engine.env.Proto_env.timers
           (Time.span_scale c.engine.prm.Tcp_params.msl 2) (fun () ->
             c.time_wait <- None;
             (* Closed-callbacks may block (e.g. releasing the port with
                the registry), so run them in a thread. *)
             Proto_env.spawn_handler c.engine.env ~name:"tcp.2msl" (fun () ->
                 finish_cleanly c)));
  wake_all c

(* Append in-order payload to the receive queue segment by segment: a
   coalesced run arrives as the chain of its absorbed chunks. *)
let push_payload c m = Mbuf.fold_segments (fun () v -> Bytequeue.push c.rcv_buf v) () m

(* --- out-of-order queue ----------------------------------------------- *)

let insert_ooseg c seq data =
  let rec ins = function
    | [] -> [ (seq, data) ]
    | (s, d) :: rest as l ->
        if Tcp_seq.lt seq s then (seq, data) :: l
        else if seq = s then l (* duplicate *)
        else (s, d) :: ins rest
  in
  c.ooseg <- ins c.ooseg;
  (* RFC 2018 §4: the block covering the newest arrival leads the SACK
     option on the next ACK. *)
  c.recent_oo <- Some seq

(* Pull any now-in-order segments into the receive buffer. *)
let drain_ooseg c =
  let rec go () =
    match c.ooseg with
    | (s, d) :: rest when Tcp_seq.le s c.rcv_nxt ->
        let skip = Tcp_seq.diff c.rcv_nxt s in
        let len = View.length d in
        if skip < len then begin
          Bytequeue.push c.rcv_buf (View.sub d skip (len - skip));
          c.rcv_nxt <- Tcp_seq.add s len
        end;
        c.ooseg <- rest;
        go ()
    | _ -> ()
  in
  go ();
  if c.ooseg = [] then c.recent_oo <- None

(* --- ACK processing --------------------------------------------------- *)

(* Retransmit at snd_una, the pre-SACK loss repair shared by fast
   retransmit and the NewReno partial-ACK rule. *)
let retransmit_una c =
  let len = Stdlib.min c.mss (sendq_length c.snd_buf) in
  if len > 0 then begin
    c.engine.retransmissions <- c.engine.retransmissions + 1;
    c.rtt_timing <- None;
    send_segment c ~seq:c.snd_una ~flags:flags_ack
      ~payload:(sendq_peek c.snd_buf ~off:0 ~len)
      ~with_mss:false;
    (* The head hole is now repaired-in-flight: move the scoreboard
       cursor past it so a later (pipe-unblocked) walk does not resend
       the same bytes within the episode. *)
    let high = Tcp_seq.add c.snd_una len in
    if Tcp_seq.lt c.sack_cursor high then c.sack_cursor <- high
  end

let process_ack c (seg : Tcp_wire.segment) =
  let ack = seg.Tcp_wire.ack in
  (* Fold any SACK blocks into the scoreboard first: duplicate and
     advancing ACKs both carry them. *)
  if c.sack_ok && seg.Tcp_wire.opts.Tcp_wire.sack <> [] then begin
    Sack.add c.sb ~una:c.snd_una seg.Tcp_wire.opts.Tcp_wire.sack;
    Cong_control.on_sack c.cc
  end;
  if Tcp_seq.gt ack c.snd_max then begin
    (* Acknowledges data we never sent. *)
    c.ack_now <- true
  end
  else if Tcp_seq.le ack c.snd_una then begin
    (* Duplicate ACK. *)
    if
      Mbuf.length seg.Tcp_wire.payload = 0
      && seg_snd_wnd c seg = c.snd_wnd
      && Tcp_seq.gt c.snd_nxt c.snd_una
    then begin
      c.dupacks <- c.dupacks + 1;
      let flight = Stdlib.min (snd_window c) (Tcp_seq.diff c.snd_nxt c.snd_una) in
      let do_rexmit =
        Cong_control.on_dupack c.cc ~count:c.dupacks ~flight ~snd_max:c.snd_max
      in
      if do_rexmit then begin
        trace c "fast retransmit at %d" c.snd_una;
        start_recovery c;
        (* With a scoreboard, repair the known holes pipe-limited;
           otherwise the classic resend of the first unacked segment. *)
        if not (c.sack_ok && sack_retransmit c) then retransmit_una c
      end
      else if c.sack_ok && c.dupacks > 3 then
        (* Later dupacks refresh the scoreboard: keep filling holes. *)
        ignore (sack_retransmit c)
    end
  end
  else begin
    (* New data acknowledged. *)
    let acked = Tcp_seq.diff ack c.snd_una in
    (* RTT sample.  A timestamp echo measures every ACK (including ones
       for retransmitted data — the echoed value is ours); without
       timestamps, the single-timer scheme under Karn's rule. *)
    (match seg.Tcp_wire.opts.Tcp_wire.ts with
    | Some (_, tsecr) when c.ts_ok && tsecr <> 0 ->
        c.rtt_timing <- None;
        let sample_ms = (ts_now_ms c - tsecr) land 0xFFFFFFFF in
        if sample_ms < 0x80000000 then update_rtt c (float_of_int sample_ms *. 1000.)
    | _ -> (
        match c.rtt_timing with
        | Some (tseq, started) when Tcp_seq.gt ack tseq ->
            c.rtt_timing <- None;
            update_rtt c (Time.to_us_f (Time.diff (Proto_env.now c.engine.env) started))
        | _ -> ()));
    (* Congestion window growth (and the NewReno partial-ACK verdict). *)
    let flight = Stdlib.min (snd_window c) (Tcp_seq.diff c.snd_nxt c.snd_una) in
    let rexmit_hole =
      Cong_control.on_ack c.cc ~ack ~acked ~dupacks:c.dupacks ~flight ~now_us:(now_us c)
    in
    c.dupacks <- 0;
    (* Remove acknowledged bytes; the FIN consumes one unit of sequence
       space that is not in the buffer. *)
    let fin_acked =
      c.fin_sent && Tcp_seq.ge ack c.snd_nxt && Tcp_seq.diff c.snd_nxt c.snd_una > 0
      && acked > sendq_length c.snd_buf
    in
    let data_acked = Stdlib.min (acked - (if fin_acked then 1 else 0)) (sendq_length c.snd_buf) in
    if data_acked > 0 then sendq_drop c.snd_buf data_acked;
    c.snd_una <- ack;
    if Tcp_seq.gt c.snd_una c.snd_nxt then c.snd_nxt <- c.snd_una;
    Sack.forward c.sb ~una:c.snd_una;
    (* Recovery episode ends when the ACK passes the frontier recorded
       at loss detection.  Only then does the hole cursor rewind: each
       hole is scoreboard-retransmitted at most once per episode (the
       cursor is the watermark), and a retransmission that was itself
       lost is rescued by the retransmit timer, not by resending while
       the first repair is still in flight. *)
    (match c.rec_start with
    | Some t0 when Tcp_seq.ge ack c.rec_point ->
        c.rec_samples_us <-
          Time.to_us_f (Time.diff (Proto_env.now c.engine.env) t0) :: c.rec_samples_us;
        c.rec_start <- None;
        c.sack_cursor <- c.snd_una
    | _ -> ());
    (* Retransmit timer: restart while data remains outstanding. *)
    c.rexmt <- stop_timer c.rexmt;
    c.backoff <- 0;
    if Tcp_seq.gt c.snd_nxt c.snd_una then arm_rexmt c;
    (* NewReno partial ACK: another segment of the same loss window is
       missing — repair it now rather than waiting for three more
       dupacks (or the timer). *)
    if rexmit_hole then
      if not (c.sack_ok && sack_retransmit c) then retransmit_una c;
    (* State transitions on FIN acknowledgement. *)
    if fin_acked then begin
      match c.state with
      | State.Fin_wait_1 -> transition c Tcp_fsm.Fin_acked_fin_wait_1
      | State.Closing ->
          transition c Tcp_fsm.Fin_acked_closing;
          enter_time_wait c
      | State.Last_ack -> finish_cleanly c (* retires through Fin_acked_last_ack *)
      | _ -> ()
    end;
    wake_all c
  end

(* --- established-state input ------------------------------------------ *)

let process_segment_established c (seg : Tcp_wire.segment) =
  let payload_len = Mbuf.length seg.Tcp_wire.payload in
  let seg_len = Tcp_wire.seg_len seg in
  let win = rcv_window c in
  let seq = seg.Tcp_wire.seq in
  (* RFC 793 acceptability test. *)
  let acceptable =
    if seg_len = 0 && win = 0 then seq = c.rcv_nxt
    else if seg_len = 0 then Tcp_seq.in_window seq ~base:c.rcv_nxt ~size:win
    else if win = 0 then false
    else
      Tcp_seq.in_window seq ~base:c.rcv_nxt ~size:win
      || Tcp_seq.in_window (Tcp_seq.add seq (seg_len - 1)) ~base:c.rcv_nxt ~size:win
  in
  if not acceptable then begin
    if not seg.Tcp_wire.flags.Tcp_wire.rst then begin
      c.ack_now <- true;
      output c
    end
  end
  else if seg.Tcp_wire.flags.Tcp_wire.rst then drop_with_error c "connection reset by peer"
  else if seg.Tcp_wire.flags.Tcp_wire.syn && Tcp_seq.ge seq c.rcv_nxt then begin
    (* New SYN inside the window: fatal. *)
    c.engine.rsts_out <- c.engine.rsts_out + 1;
    send_segment c ~seq:c.snd_nxt
      ~flags:{ Tcp_wire.no_flags with Tcp_wire.rst = true }
      ~payload:Mbuf.empty ~with_mss:false;
    drop_with_error c "SYN received on synchronized connection"
  end
  else if not seg.Tcp_wire.flags.Tcp_wire.ack then () (* nothing further without ACK *)
  else begin
    (* SYN_RCVD completes here. *)
    if c.state = State.Syn_received then begin
      if Tcp_seq.gt seg.Tcp_wire.ack c.snd_una && Tcp_seq.le seg.Tcp_wire.ack c.snd_max
      then begin
        transition c Tcp_fsm.Rcv_ack_of_syn;
        trace c "established (passive open)";
        arm_keepalive c;
        (match c.accept_box with
        | Some box ->
            c.accept_box <- None;
            (* The witness is minted at the instant of establishment and
               travels with the connection to accept. *)
            let w =
              match Tcp_fsm.Packed.established c.fsm with
              | Some w -> w
              | None -> assert false
            in
            Mailbox.send box (c, w)
        | None -> ());
        wake_all c
      end
      else begin
        send_rst_for c.engine ~src:c.remote_ip ~seg;
        drop_with_error c "bad ACK completing handshake"
      end
    end;
    if c.state = State.Closed then ()
    else begin
      process_ack c seg;
      if c.state = State.Closed then ()
      else begin
        (* Window update (RFC 793 ordering on wl1/wl2). *)
        if
          Tcp_seq.lt c.snd_wl1 seq
          || (c.snd_wl1 = seq && Tcp_seq.le c.snd_wl2 seg.Tcp_wire.ack)
        then begin
          let old_wnd = c.snd_wnd in
          c.snd_wnd <- seg_snd_wnd c seg;
          c.snd_wl1 <- seq;
          c.snd_wl2 <- seg.Tcp_wire.ack;
          if c.snd_wnd > 0 then c.persist <- stop_timer c.persist;
          if c.snd_wnd > old_wnd then wake_all c
        end;
        (* Payload. *)
        if payload_len > 0 then begin
          if State.can_receive_data c.state then begin
            (* Trim any already-received prefix. *)
            let skip = Stdlib.max 0 (Tcp_seq.diff c.rcv_nxt seq) in
            if skip < payload_len then begin
              let seq' = Tcp_seq.add seq skip in
              let data = Mbuf.drop seg.Tcp_wire.payload skip in
              (* Clip to our window. *)
              let room = Tcp_seq.diff (Tcp_seq.add c.rcv_nxt win) seq' in
              let keep = Stdlib.min (Mbuf.length data) (Stdlib.max 0 room) in
              if keep > 0 then begin
                let data = Mbuf.take data keep in
                if seq' = c.rcv_nxt then begin
                  push_payload c data;
                  c.rcv_nxt <- Tcp_seq.add c.rcv_nxt keep;
                  drain_ooseg c;
                  schedule_ack c;
                  wake_all c
                end
                else begin
                  insert_ooseg c seq' (Mbuf.flatten data);
                  c.ack_now <- true (* duplicate ACK for fast retransmit *)
                end
              end
            end
            else c.ack_now <- true
          end
          else c.ack_now <- true
        end;
        (* FIN: only when it lands exactly in order. *)
        if
          seg.Tcp_wire.flags.Tcp_wire.fin && not c.fin_received
          && Tcp_seq.add seq payload_len = c.rcv_nxt
          && c.ooseg = []
        then begin
          c.fin_received <- true;
          c.rcv_nxt <- Tcp_seq.add c.rcv_nxt 1;
          c.ack_now <- true;
          (match c.state with
          | State.Established -> transition c Tcp_fsm.Rcv_fin_established
          | State.Fin_wait_1 ->
              (* Our FIN wasn't acked by this segment (else we'd be in
                 FIN_WAIT_2 already): simultaneous close. *)
              transition c Tcp_fsm.Rcv_fin_fin_wait_1
          | State.Fin_wait_2 ->
              transition c Tcp_fsm.Rcv_fin_fin_wait_2;
              enter_time_wait c
          | _ -> ());
          wake_all c
        end
        else if seg.Tcp_wire.flags.Tcp_wire.fin && c.fin_received then c.ack_now <- true;
        output c
      end
    end
  end

let process_segment c (seg : Tcp_wire.segment) =
  touch_keepalive c;
  (* PAWS (RFC 1323 §4.2): a timestamped segment whose TSval is older
     than the newest in-window timestamp is a stale duplicate from a
     previous window — acknowledge and drop it before any sequence
     processing. *)
  let paws_reject =
    match seg.Tcp_wire.opts.Tcp_wire.ts with
    | Some (tsval, _) when c.ts_ok && not seg.Tcp_wire.flags.Tcp_wire.rst ->
        Tcp_seq.diff tsval c.ts_recent < 0
    | _ -> false
  in
  if paws_reject then begin
    c.ack_now <- true;
    output c
  end
  else begin
    (match seg.Tcp_wire.opts.Tcp_wire.ts with
    | Some (tsval, _)
      when c.ts_ok
           && Tcp_seq.le seg.Tcp_wire.seq c.rcv_nxt
           && Tcp_seq.diff tsval c.ts_recent >= 0 ->
        c.ts_recent <- tsval
    | _ -> ());
    process_segment_established c seg
  end

(* --- SYN_SENT input ---------------------------------------------------- *)

let process_syn_sent c (seg : Tcp_wire.segment) =
  let f = seg.Tcp_wire.flags in
  let ack_ok =
    (not f.Tcp_wire.ack)
    || (Tcp_seq.gt seg.Tcp_wire.ack c.iss && Tcp_seq.le seg.Tcp_wire.ack c.snd_max)
  in
  if not ack_ok then begin
    if not f.Tcp_wire.rst then send_rst_for c.engine ~src:c.remote_ip ~seg
  end
  else if f.Tcp_wire.rst then begin
    if f.Tcp_wire.ack then drop_with_error c "connection refused"
  end
  else if f.Tcp_wire.syn then begin
    c.irs <- seg.Tcp_wire.seq;
    c.rcv_nxt <- Tcp_seq.add seg.Tcp_wire.seq 1;
    (match seg.Tcp_wire.opts.Tcp_wire.mss with
    | Some peer_mss -> c.mss <- Stdlib.min c.mss peer_mss
    | None -> c.mss <- Stdlib.min c.mss mss_default);
    Cong_control.set_mss c.cc c.mss;
    (* Still in SYN_SENT: the witness grants the option permit for both
       the SYN-ACK and the simultaneous-open paths. *)
    negotiate_options c seg.Tcp_wire.opts;
    c.snd_wnd <- seg.Tcp_wire.wnd;
    c.snd_wl1 <- seg.Tcp_wire.seq;
    c.snd_wl2 <- seg.Tcp_wire.ack;
    if f.Tcp_wire.ack then begin
      (* Standard open: SYN-ACK received. *)
      c.snd_una <- seg.Tcp_wire.ack;
      c.rexmt <- stop_timer c.rexmt;
      c.backoff <- 0;
      transition c Tcp_fsm.Rcv_syn_ack;
      trace c "established (active open)";
      arm_keepalive c;
      c.ack_now <- true;
      wake_all c;
      output c
    end
    else begin
      (* Simultaneous open. *)
      transition c Tcp_fsm.Simultaneous_syn;
      arm_rexmt c;
      send_segment c ~seq:c.iss ~flags:flags_syn_ack ~payload:Mbuf.empty ~with_mss:true
    end
  end

(* --- engine input ------------------------------------------------------ *)

let handle_syn_for_listener t l (seg : Tcp_wire.segment) ~src =
  let prm = t.prm in
  let iss = Rng.int t.env.Proto_env.rng 0x0fffffff in
  let c =
    { engine = t;
      local_port = l.lport;
      remote_ip = src;
      remote_port = seg.Tcp_wire.src_port;
      state = State.Syn_received;
      fsm = Tcp_fsm.Packed.passive_accept ();
      snd_buf = (if prm.Tcp_params.zero_copy then I (Iovec.create ()) else Q (Bytequeue.create ()));
      iss;
      snd_una = iss;
      snd_nxt = Tcp_seq.add iss 1;
      snd_max = Tcp_seq.add iss 1;
      snd_wnd = seg.Tcp_wire.wnd;
      snd_wl1 = seg.Tcp_wire.seq;
      snd_wl2 = 0;
      fin_queued = false;
      fin_sent = false;
      rcv_buf = Bytequeue.create ();
      irs = seg.Tcp_wire.seq;
      rcv_nxt = Tcp_seq.add seg.Tcp_wire.seq 1;
      rcv_adv = Tcp_seq.add seg.Tcp_wire.seq 1;
      loaned_bytes = 0;
      fin_received = false;
      ooseg = [];
      recent_oo = None;
      cc =
        Cong_control.create prm.Tcp_params.cong_control ~mss:mss_default
          ~initial_segments:prm.Tcp_params.initial_cwnd_segments;
      dupacks = 0;
      ws_ok = false;
      snd_scale = 0;
      rcv_scale = 0;
      sack_ok = false;
      ts_ok = false;
      ts_recent = 0;
      sb = Sack.create ();
      sack_cursor = iss;
      sack_rexmits = 0;
      rec_start = None;
      rec_point = iss;
      rec_samples_us = [];
      unknown_opts = 0;
      wnd_clamps = 0;
      last_emit = Proto_env.now t.env;
      srtt_us = 0.;
      rttvar_us = 0.;
      rtt_min_us = 0.;
      rto = prm.Tcp_params.initial_rto;
      backoff = 0;
      rtt_timing = None;
      mss = mss_default;
      rexmt = None;
      persist = None;
      delack = None;
      time_wait = None;
      keepalive = None;
      idle_since = Proto_env.now t.env;
      ka_probes = 0;
      unacked_segs = 0;
      ack_now = false;
      output_active = false;
      output_pending = false;
      error = None;
      detached = false;
      waiters = Queue.create ();
      closed_callbacks = [];
      pace_next = Time.zero;
      pacer = None;
      accept_box = Some l.backlog }
  in
  let our_mss = Ipv4.mtu t.ip - Ipv4.header_size - Tcp_wire.header_size in
  c.mss <-
    Stdlib.min
      (match seg.Tcp_wire.opts.Tcp_wire.mss with
      | Some m -> m
      | None -> mss_default)
      our_mss;
  Cong_control.reinit c.cc ~mss:c.mss;
  negotiate_options c seg.Tcp_wire.opts;
  Hashtbl.replace t.pcbs (conn_key c) c;
  arm_rexmt c;
  send_segment c ~seq:c.iss ~flags:flags_syn_ack ~payload:Mbuf.empty ~with_mss:true

(* --- receive coalescing (rx_coalesce) ---------------------------------- *)

(* Merge eligibility is deliberately conservative: anything that could
   change ACK generation, SACK/dupack behavior or option processing
   relative to per-packet arrival flows through the ordinary path.
   Only plain in-order data — flags within ACK|PSH, no SACK blocks, no
   unknown options, a PAWS-fresh timestamp — may join a run; the run
   itself is bounded by the advertised window and a monotone ack
   field. *)
let gro_plain c (seg : Tcp_wire.segment) =
  let f = seg.Tcp_wire.flags in
  let o = seg.Tcp_wire.opts in
  c.state = State.Established
  && f.Tcp_wire.ack
  && (not f.Tcp_wire.syn)
  && (not f.Tcp_wire.rst)
  && (not f.Tcp_wire.fin)
  && o.Tcp_wire.sack = []
  && o.Tcp_wire.unknown = []
  && Mbuf.length seg.Tcp_wire.payload > 0
  && (match o.Tcp_wire.ts with
     | Some (tsval, _) -> c.ts_ok && Tcp_seq.diff tsval c.ts_recent >= 0
     | None -> not c.ts_ok)

let gro_limit c =
  let prm = c.engine.prm in
  if prm.Tcp_params.burst_ack then gro_budget
  else
    (* Without burst_ack a merge may not cross an ACK boundary: the cap
       lets one flush bump the segment count at most to the next
       [ack_every] multiple, so the emitted ACK stream is identical to
       per-packet arrival. *)
    Stdlib.min gro_budget
      (Stdlib.max 0 (prm.Tcp_params.ack_every - c.unacked_segs))

let gro_flush t =
  match t.gro with
  | None -> ()
  | Some g ->
      t.gro <- None;
      let c = g.g_conn in
      t.gro_flushes <- t.gro_flushes + 1;
      (* The run pays the input state machine once; per-frame byte
         touching and absorb costs were charged on arrival. *)
      Proto_env.charge t.env t.env.Proto_env.costs.Costs.tcp_input;
      if c.state <> State.Closed && not c.detached then begin
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
        t.gro_segs <- g.g_count;
        (* ACK policy is untouched here: the flushed run flows through
           the same delayed-ACK accounting as per-packet arrival
           ([schedule_ack] counts its [gro_segs] wire segments), so
           FIN and out-of-order segments still force an immediate ACK
           and a pushed run waits out the cadence exactly as it would
           have packet by packet.  Delaying a reply's ACK delays
           nothing the application sees — the data is delivered at
           flush — it only lets the ACK answer several replies at
           once, which is the burst_ack saving. *)
        Fun.protect
          ~finally:(fun () -> t.gro_segs <- 1)
          (fun () -> process_segment c seg)
      end

(* Copy a frame's payload out of its (soon recycled) receive buffer,
   charging the absorb; every byte of the chunk is written. *)
let gro_copy t (seg : Tcp_wire.segment) =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.gro_append;
  let n = Mbuf.length seg.Tcp_wire.payload in
  let copy = View.of_bytes (Bytes.create n) in
  Mbuf.blit seg.Tcp_wire.payload 0 copy 0 n;
  copy

let gro_absorb t g (seg : Tcp_wire.segment) =
  let copy = gro_copy t seg in
  g.g_chunks <- copy :: g.g_chunks;
  g.g_len <- g.g_len + View.length copy;
  g.g_count <- g.g_count + 1;
  g.g_ack <- seg.Tcp_wire.ack;
  g.g_wnd <- seg.Tcp_wire.wnd;
  (match seg.Tcp_wire.opts.Tcp_wire.ts with Some _ as ts -> g.g_ts <- ts | None -> ());
  if seg.Tcp_wire.flags.Tcp_wire.psh then g.g_psh <- true;
  t.gro_merged <- t.gro_merged + 1;
  if g.g_count >= g.g_limit then gro_flush t

let gro_start t c (seg : Tcp_wire.segment) =
  let copy = gro_copy t seg in
  t.gro <-
    Some
      { g_conn = c;
        g_first = seg;
        g_chunks = [ copy ];
        g_len = View.length copy;
        g_count = 1;
        g_limit = gro_limit c;
        g_room = rcv_window c;
        g_ack = seg.Tcp_wire.ack;
        g_wnd = seg.Tcp_wire.wnd;
        g_ts = seg.Tcp_wire.opts.Tcp_wire.ts;
        g_psh = seg.Tcp_wire.flags.Tcp_wire.psh }

let input_gro t ~src ~dst payload =
  (* The rx_coalesce burst path.  Per-frame byte-touching costs are
     charged exactly as in [input]; the [tcp_input] state-machine
     charge is deferred — absorbed frames pay the cheaper [gro_append]
     and the merged run pays [tcp_input] once at flush. *)
  let costs = t.env.Proto_env.costs in
  let len = Mbuf.length payload in
  if t.prm.Tcp_params.zero_copy then
    Proto_env.charge_bytes ~kind:Cpu.Checksum t.env
      ~per_byte_ns:costs.Costs.checksum_per_byte_ns len
  else if t.prm.Tcp_params.fused_checksum then
    Proto_env.charge_bytes ~kind:Cpu.Copy_checksum t.env
      ~per_byte_ns:costs.Costs.copy_checksum_per_byte_ns len
  else begin
    Proto_env.charge_bytes ~kind:Cpu.Checksum t.env
      ~per_byte_ns:costs.Costs.checksum_per_byte_ns len;
    Proto_env.charge_bytes ~kind:Cpu.Copy t.env ~per_byte_ns:costs.Costs.copy_per_byte_ns
      (Stdlib.max 0 (len - Tcp_wire.header_size))
  end;
  match Tcp_wire.decode ~src_ip:src ~dst_ip:dst payload with
  | None ->
      (* Corruption is still detected per frame — a merge never hides a
         bad checksum; the pending run is unaffected. *)
      Proto_env.charge t.env costs.Costs.tcp_input;
      t.checksum_failures <- t.checksum_failures + 1
  | Some seg -> (
      t.segments_in <- t.segments_in + 1;
      let unknown = List.length seg.Tcp_wire.opts.Tcp_wire.unknown in
      if unknown > 0 then t.unknown_options <- t.unknown_options + unknown;
      let k =
        key ~remote_ip:src ~remote_port:seg.Tcp_wire.src_port
          ~local_port:seg.Tcp_wire.dst_port
      in
      match Hashtbl.find_opt t.pcbs k with
      | Some c -> (
          if unknown > 0 then c.unknown_opts <- c.unknown_opts + unknown;
          let seg_bytes = Mbuf.length seg.Tcp_wire.payload in
          match t.gro with
          | Some g
            when g.g_conn == c
                 && gro_plain c seg
                 && seg.Tcp_wire.seq = Tcp_seq.add g.g_first.Tcp_wire.seq g.g_len
                 && g.g_count < g.g_limit
                 && g.g_len + seg_bytes <= g.g_room
                 && Tcp_seq.ge seg.Tcp_wire.ack g.g_ack ->
              gro_absorb t g seg
          | pending -> (
              (* Not a continuation: close out any run first (segments
                 must be processed in arrival order), then either start
                 a new run or take the ordinary per-packet path. *)
              (match pending with Some _ -> gro_flush t | None -> ());
              if c.state = State.Syn_sent then begin
                Proto_env.charge t.env costs.Costs.tcp_input;
                process_syn_sent c seg
              end
              else if
                gro_plain c seg
                && seg.Tcp_wire.seq = c.rcv_nxt
                && c.ooseg = []
                && seg_bytes <= rcv_window c
                && gro_limit c >= 2
              then gro_start t c seg
              else begin
                Proto_env.charge t.env costs.Costs.tcp_input;
                process_segment c seg
              end))
      | None -> (
          (* Listener / unknown traffic never coalesces; a pending run
             (necessarily another connection) is undisturbed. *)
          Proto_env.charge t.env costs.Costs.tcp_input;
          match Hashtbl.find_opt t.listeners seg.Tcp_wire.dst_port with
          | Some l
            when seg.Tcp_wire.flags.Tcp_wire.syn
                 && (not seg.Tcp_wire.flags.Tcp_wire.ack)
                 && not seg.Tcp_wire.flags.Tcp_wire.rst ->
              handle_syn_for_listener t l seg ~src
          | _ ->
              let claimed =
                match t.unknown_hook with
                | Some hook -> hook ~src ~dst payload
                | None -> false
              in
              if (not claimed) && not seg.Tcp_wire.flags.Tcp_wire.rst then
                send_rst_for t ~src ~seg))

let begin_burst t = if t.prm.Tcp_params.rx_coalesce then t.in_burst <- t.in_burst + 1

let end_burst t =
  t.in_burst <- Stdlib.max 0 (t.in_burst - 1);
  (* The closing episode's run must reach the application before its
     thread goes back to sleep; a sibling's still-open run flushed here
     merely restarts (cheaply) on its next frame. *)
  gro_flush t

let input t ~src ~dst payload =
  let costs = t.env.Proto_env.costs in
  Proto_env.charge t.env costs.Costs.tcp_input;
  let len = Mbuf.length payload in
  if t.prm.Tcp_params.zero_copy then
    (* The frame stays in its loaned receive buffer: one checksum-only
       verification pass; delivery hands the application a reference. *)
    Proto_env.charge_bytes ~kind:Cpu.Checksum t.env
      ~per_byte_ns:costs.Costs.checksum_per_byte_ns len
  else if t.prm.Tcp_params.fused_checksum then
    (* One pass verifies the checksum and moves the payload toward the
       receive buffer. *)
    Proto_env.charge_bytes ~kind:Cpu.Copy_checksum t.env
      ~per_byte_ns:costs.Costs.copy_checksum_per_byte_ns len
  else begin
    (* Two passes: checksum the whole segment, then copy the payload. *)
    Proto_env.charge_bytes ~kind:Cpu.Checksum t.env
      ~per_byte_ns:costs.Costs.checksum_per_byte_ns len;
    Proto_env.charge_bytes ~kind:Cpu.Copy t.env ~per_byte_ns:costs.Costs.copy_per_byte_ns
      (Stdlib.max 0 (len - Tcp_wire.header_size))
  end;
  match Tcp_wire.decode ~src_ip:src ~dst_ip:dst payload with
  | None -> t.checksum_failures <- t.checksum_failures + 1
  | Some seg -> (
      t.segments_in <- t.segments_in + 1;
      (* Unknown option kinds are skipped by the decoder but surfaced
         here: an aggregate engine counter plus a per-connection one
         (visible through [conn_options]). *)
      let unknown = List.length seg.Tcp_wire.opts.Tcp_wire.unknown in
      if unknown > 0 then t.unknown_options <- t.unknown_options + unknown;
      let k =
        key ~remote_ip:src ~remote_port:seg.Tcp_wire.src_port
          ~local_port:seg.Tcp_wire.dst_port
      in
      match Hashtbl.find_opt t.pcbs k with
      | Some c ->
          if unknown > 0 then c.unknown_opts <- c.unknown_opts + unknown;
          if c.state = State.Syn_sent then process_syn_sent c seg else process_segment c seg
      | None -> (
          match Hashtbl.find_opt t.listeners seg.Tcp_wire.dst_port with
          | Some l
            when seg.Tcp_wire.flags.Tcp_wire.syn
                 && (not seg.Tcp_wire.flags.Tcp_wire.ack)
                 && not seg.Tcp_wire.flags.Tcp_wire.rst ->
              handle_syn_for_listener t l seg ~src
          | _ ->
              let claimed =
                match t.unknown_hook with
                | Some hook -> hook ~src ~dst payload
                | None -> false
              in
              if (not claimed) && not seg.Tcp_wire.flags.Tcp_wire.rst then
                send_rst_for t ~src ~seg))

(* --- public API --------------------------------------------------------- *)

let create env ip ?(params = Tcp_params.default) () =
  let t =
    { env;
      ip;
      prm = params;
      pcbs = Hashtbl.create 32;
      listeners = Hashtbl.create 8;
      rst_on_unknown = true;
      unknown_hook = None;
      time_wait_hook = None;
      segments_in = 0;
      segments_out = 0;
      retransmissions = 0;
      rsts_out = 0;
      checksum_failures = 0;
      unknown_options = 0;
      in_burst = 0;
      gro = None;
      gro_segs = 1;
      gro_merged = 0;
      gro_flushes = 0;
      acks_elided = 0;
      gso_sends = 0;
      gso_fallbacks = 0;
      pacer_waits = 0;
      pacer_wait_us = 0.;
      pacer_hist = Hashtbl.create 8 }
  in
  (* [in_burst] is only ever set when rx_coalesce is on; otherwise every
     frame takes [input] — the per-packet path, charge order included. *)
  Ipv4.set_handler ip ~proto:6 (fun ~src ~dst payload ->
      if t.in_burst > 0 then input_gro t ~src ~dst payload else input t ~src ~dst payload);
  t

let fresh_conn t ~local_port ~remote_ip ~remote_port ~fsm ~iss =
  { engine = t;
    local_port;
    remote_ip;
    remote_port;
    state = Tcp_fsm.Packed.state fsm;
    fsm;
    snd_buf = (if t.prm.Tcp_params.zero_copy then I (Iovec.create ()) else Q (Bytequeue.create ()));
    iss;
    snd_una = iss;
    snd_nxt = iss;
    snd_max = iss;
    snd_wnd = 0;
    snd_wl1 = 0;
    snd_wl2 = 0;
    fin_queued = false;
    fin_sent = false;
    rcv_buf = Bytequeue.create ();
    irs = 0;
    rcv_nxt = 0;
    rcv_adv = 0;
    loaned_bytes = 0;
    fin_received = false;
    ooseg = [];
    recent_oo = None;
    cc =
      Cong_control.create t.prm.Tcp_params.cong_control ~mss:mss_default
        ~initial_segments:t.prm.Tcp_params.initial_cwnd_segments;
    dupacks = 0;
    ws_ok = false;
    snd_scale = 0;
    rcv_scale = 0;
    sack_ok = false;
    ts_ok = false;
    ts_recent = 0;
    sb = Sack.create ();
    sack_cursor = iss;
    sack_rexmits = 0;
    rec_start = None;
    rec_point = iss;
    rec_samples_us = [];
    unknown_opts = 0;
    wnd_clamps = 0;
    last_emit = Proto_env.now t.env;
    srtt_us = 0.;
    rttvar_us = 0.;
    rtt_min_us = 0.;
    rto = t.prm.Tcp_params.initial_rto;
    backoff = 0;
    rtt_timing = None;
    mss = mss_default;
    rexmt = None;
    persist = None;
    delack = None;
    time_wait = None;
    keepalive = None;
    idle_since = Proto_env.now t.env;
    ka_probes = 0;
    unacked_segs = 0;
    ack_now = false;
    output_active = false;
    output_pending = false;
    error = None;
    detached = false;
    waiters = Queue.create ();
    closed_callbacks = [];
    pace_next = Time.zero;
    pacer = None;
    accept_box = None }

(* Active open, first half: create the control block in SYN_SENT without
   putting the SYN on the wire.  The returned witness is what setup-plane
   code (the registry) derives its handshake-window BQI permit from
   before launching the handshake. *)
let connect_prepare t ~src_port ~dst ~dst_port =
  let k = key ~remote_ip:dst ~remote_port:dst_port ~local_port:src_port in
  if Hashtbl.mem t.pcbs k then Error "address in use"
  else begin
    let iss = Rng.int t.env.Proto_env.rng 0x0fffffff in
    let c =
      fresh_conn t ~local_port:src_port ~remote_ip:dst ~remote_port:dst_port
        ~fsm:(Tcp_fsm.Packed.active_open ()) ~iss
    in
    c.mss <- Ipv4.mtu t.ip - Ipv4.header_size - Tcp_wire.header_size;
    Cong_control.reinit c.cc ~mss:c.mss;
    c.snd_nxt <- Tcp_seq.add iss 1;
    c.snd_max <- c.snd_nxt;
    Hashtbl.replace t.pcbs k c;
    match Tcp_fsm.Packed.syn_sent c.fsm with
    | Some w -> Ok (c, w)
    | None -> assert false
  end

(* Active open, second half: send the SYN and block until the handshake
   resolves, returning the establishment witness. *)
let connect_launch c =
  arm_rexmt c;
  send_segment c ~seq:c.iss ~flags:flags_syn ~payload:Mbuf.empty ~with_mss:true;
  while c.state = State.Syn_sent || c.state = State.Syn_received do
    wait_on c
  done;
  match Tcp_fsm.Packed.established c.fsm with
  | Some w -> Ok w
  | None -> Error (match c.error with Some e -> e | None -> "connection failed")

let connect t ~src_port ~dst ~dst_port =
  match connect_prepare t ~src_port ~dst ~dst_port with
  | Error e -> Error e
  | Ok (c, _syn_sent) -> (
      match connect_launch c with
      | Ok w -> Ok (c, w)
      | Error e -> Error e)

let listen t ~port =
  if Hashtbl.mem t.listeners port then failwith (Printf.sprintf "Tcp.listen: port %d in use" port);
  let l = { lport = port; backlog = Mailbox.create () } in
  Hashtbl.replace t.listeners port l;
  l

(* A fresh proof that the listener's endpoint went Closed -> Listen; the
   BQI permit for SYN-ACKs of not-yet-accepted connections derives from
   it. *)
let listener_witness (_ : listener) : [ `Listen ] Tcp_fsm.state =
  Tcp_fsm.step (Tcp_fsm.closed ()) Tcp_fsm.Passive_open

let accept l = Mailbox.recv l.backlog
let close_listener t l = Hashtbl.remove t.listeners l.lport

let check_alive c op =
  if c.detached then raise (Connection_error (op ^ ": connection was handed off"));
  match c.error with Some e -> raise (Connection_error e) | None -> ()

let write c data =
  check_alive c "write";
  let prm = c.engine.prm in
  let len = View.length data in
  let sent = ref 0 in
  while !sent < len do
    check_alive c "write";
    (* The runtime double of the typed send permit: data is accepted
       only in Established or half-closed Close_wait. *)
    if Tcp_fsm.Packed.send_permit c.fsm = None then
      raise
        (Connection_error
           (if State.synchronized c.state then "write on closing connection"
            else "write before connection established"));
    let space = prm.Tcp_params.snd_buf - sendq_length c.snd_buf in
    if space <= 0 then wait_on c
    else begin
      let n = Stdlib.min space (len - !sent) in
      (match c.snd_buf with
      | Q q -> Bytequeue.push q (View.sub data !sent n)
      | I i ->
          (* The caller keeps ownership of [data] and may scribble on it
             immediately, so the chain gets a private snapshot.  The
             cost of this copy is the caller's problem (the socket layer
             charges the vm_remap fallback for non-pool buffers); the
             engine itself still runs the chain checksum-only. *)
          Iovec.push i (View.copy (View.sub data !sent n)));
      sent := !sent + n;
      output c
    end
  done

(* Queue an application-owned buffer by reference: the engine reads it
   in place for (re)transmission and fires [release] when its last byte
   is acknowledged (or the queue is torn down).  The caller must not
   touch the buffer until then — this is the contract of
   [Sockets.alloc_tx]/[send_owned].  Requires a zero-copy connection. *)
let write_owned ?release c data =
  check_alive c "write_owned";
  (match c.snd_buf with
  | I _ -> ()
  | Q _ -> raise (Connection_error "write_owned: connection is not zero-copy"));
  let prm = c.engine.prm in
  let len = View.length data in
  let rec wait_for_space () =
    check_alive c "write_owned";
    if Tcp_fsm.Packed.send_permit c.fsm = None then
      raise
        (Connection_error
           (if State.synchronized c.state then "write_owned on closing connection"
            else "write_owned before connection established"));
    (* The view is queued whole (its release must fire exactly once),
       so wait until the whole length fits — or the queue is empty, so
       an oversized view cannot deadlock. *)
    if
      prm.Tcp_params.snd_buf - sendq_length c.snd_buf < len
      && sendq_length c.snd_buf > 0
    then begin
      wait_on c;
      wait_for_space ()
    end
  in
  wait_for_space ();
  (match c.snd_buf with I i -> Iovec.push ?release i data | Q _ -> assert false);
  output c

let maybe_window_update c =
  (* Send a window update once the window has opened significantly
     (2*MSS or half the buffer) beyond what was last advertised. *)
  let avail = rcv_window c in
  let edge = Tcp_seq.add c.rcv_nxt (advertisable c avail) in
  let opening = Tcp_seq.diff edge c.rcv_adv in
  if opening >= 2 * c.mss || opening >= c.engine.prm.Tcp_params.rcv_buf / 2 then begin
    c.ack_now <- true;
    output c
  end

let read c ~max =
  let rec go () =
    if Bytequeue.length c.rcv_buf > 0 then begin
      let v = Bytequeue.pop c.rcv_buf (Stdlib.max 1 max) in
      maybe_window_update c;
      Some v
    end
    else if c.fin_received then None
    else begin
      (match c.error with Some e -> raise (Connection_error e) | None -> ());
      if c.detached then raise (Connection_error "read: connection was handed off");
      if c.state = State.Closed then None
      else begin
        wait_on c;
        go ()
      end
    end
  in
  go ()

(* Loaned delivery: like [read], but the bytes remain charged against
   the receive window until [return_loan] gives them back — the
   buffer-loaning back-pressure.  The engine tracks loan *lengths*; the
   identity of the loaned pool buffer is the socket layer's business.
   The loan is taken before any window update is considered, so the
   advertised window never transiently grows and then shrinks back. *)
let read_loan c ~max =
  let rec go () =
    if Bytequeue.length c.rcv_buf > 0 then begin
      let v = Bytequeue.pop c.rcv_buf (Stdlib.max 1 max) in
      c.loaned_bytes <- c.loaned_bytes + View.length v;
      Some v
    end
    else if c.fin_received then None
    else begin
      (match c.error with Some e -> raise (Connection_error e) | None -> ());
      if c.detached then raise (Connection_error "read_loan: connection was handed off");
      if c.state = State.Closed then None
      else begin
        wait_on c;
        go ()
      end
    end
  in
  go ()

let return_loan c len =
  if len < 0 then invalid_arg "Tcp.return_loan: negative length";
  c.loaned_bytes <- Stdlib.max 0 (c.loaned_bytes - len);
  if c.state <> State.Closed && not c.detached then maybe_window_update c

let close c =
  if not c.detached then
    match c.state with
    | State.Closed | State.Time_wait | State.Fin_wait_1 | State.Fin_wait_2 | State.Closing
    | State.Last_ack ->
        ()
    | State.Listen | State.Syn_sent -> finish_cleanly c
    | State.Syn_received | State.Established | State.Close_wait ->
        c.fin_queued <- true;
        output c

let abort c =
  if (not c.detached) && c.state <> State.Closed then begin
    if State.synchronized c.state then begin
      c.engine.rsts_out <- c.engine.rsts_out + 1;
      send_segment c ~seq:c.snd_nxt
        ~flags:{ Tcp_wire.no_flags with Tcp_wire.rst = true; ack = true }
        ~payload:Mbuf.empty ~with_mss:false
    end;
    drop_with_error c "connection aborted"
  end

let await_closed c =
  while c.state <> State.Closed do
    wait_on c
  done

(* --- handoff ------------------------------------------------------------ *)

let export_common c =
  let snap =
    { snap_local_port = c.local_port;
      snap_remote_ip = c.remote_ip;
      snap_remote_port = c.remote_port;
      snap_iss = c.iss;
      snap_irs = c.irs;
      snap_snd_una = c.snd_una;
      snap_snd_nxt = c.snd_nxt;
      snap_snd_wnd = c.snd_wnd;
      snap_rcv_nxt = c.rcv_nxt;
      snap_mss = c.mss;
      snap_srtt_us = c.srtt_us;
      snap_rttvar_us = c.rttvar_us;
      snap_rcv_pending =
        View.to_string (Bytequeue.peek c.rcv_buf ~off:0 ~len:(Bytequeue.length c.rcv_buf)) }
  in
  c.rexmt <- stop_timer c.rexmt;
  c.persist <- stop_timer c.persist;
  c.delack <- stop_timer c.delack;
  c.detached <- true;
  remove_conn c;
  wake_all c;
  snap

let export c ~witness:(_ : [ `Established ] Tcp_fsm.state) =
  (* The witness proves the caller saw ESTABLISHED; the dynamic check
     stays as the shadow oracle for the window between the two. *)
  if c.state <> State.Established then failwith "Tcp.export: connection not ESTABLISHED";
  if sendq_length c.snd_buf > 0 then failwith "Tcp.export: unsent data in send buffer";
  export_common c

let export_force c =
  if c.state <> State.Established then failwith "Tcp.export_force: connection not ESTABLISHED";
  (* Unacknowledged data is lost with the application; the peer will be
     reset, so the snapshot pretends the stream ends at snd_una. *)
  sendq_clear c.snd_buf;
  Bytequeue.clear c.rcv_buf;
  let snap = export_common c in
  { snap with snap_snd_nxt = snap.snap_snd_una; snap_rcv_pending = "" }

let await_drained c =
  while
    c.state <> State.Closed
    && (sendq_length c.snd_buf > 0 || Tcp_seq.gt c.snd_nxt c.snd_una)
  do
    wait_on c
  done

let import t snap =
  let c =
    fresh_conn t ~local_port:snap.snap_local_port ~remote_ip:snap.snap_remote_ip
      ~remote_port:snap.snap_remote_port ~fsm:(Tcp_fsm.Packed.import ()) ~iss:snap.snap_iss
  in
  c.irs <- snap.snap_irs;
  c.snd_una <- snap.snap_snd_una;
  c.snd_nxt <- snap.snap_snd_nxt;
  c.snd_max <- snap.snap_snd_nxt;
  c.snd_wnd <- snap.snap_snd_wnd;
  c.snd_wl1 <- snap.snap_rcv_nxt;
  c.snd_wl2 <- snap.snap_snd_una;
  c.rcv_nxt <- snap.snap_rcv_nxt;
  c.rcv_adv <- snap.snap_rcv_nxt;
  if snap.snap_rcv_pending <> "" then Bytequeue.push_string c.rcv_buf snap.snap_rcv_pending;
  c.mss <- snap.snap_mss;
  Cong_control.reinit c.cc ~mss:c.mss;
  c.srtt_us <- snap.snap_srtt_us;
  c.rttvar_us <- snap.snap_rttvar_us;
  Hashtbl.replace t.pcbs (conn_key c) c;
  arm_keepalive c;
  c
