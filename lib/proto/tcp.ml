module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Timers = Uln_engine.Timers
module Rng = Uln_engine.Rng
module Mailbox = Uln_engine.Mailbox
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Bytequeue = Uln_buf.Bytequeue
module Ip = Uln_addr.Ip
module Costs = Uln_host.Costs
module State = Tcp_state

(* The spine: the session-typed FSM, window and sequence logic,
   keepalive, TIME_WAIT, the public API and the handoff.  Each behaviour
   switch is read by one plug-in module that owns its state as a record
   held by the connection: [Rtt_est], [Ack_policy], [Loss_recovery],
   [Tx_path] and [Cong_control] (see DESIGN.md). *)

(* Assumed peer MSS when the SYN carries no option (RFC 1122). *)
let mss_default = 536

exception Connection_error of string

(* Window scaling as negotiated on the handshake (frozen once it
   completes), with the option diagnostics [conn_options] reports. *)
type negotiated = {
  mutable ws_ok : bool;
  mutable snd_scale : int; (* shift applied to windows the peer advertises *)
  mutable rcv_scale : int; (* shift applied to windows we advertise *)
  mutable unknown_opts : int;
  mutable wnd_clamps : int;
}

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
  snap_opts : negotiated;
  snap_rtt : Rtt_est.t;
  snap_loss : Loss_recovery.t;
  snap_cc : Cong_control.t;
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
  (* send side; [snd_max] is the highest sequence ever sent *)
  tx : Tx_path.t;
  iss : Tcp_seq.t;
  mutable snd_una : Tcp_seq.t;
  mutable snd_nxt : Tcp_seq.t;
  mutable snd_max : Tcp_seq.t;
  mutable snd_wnd : int;
  mutable snd_wl1 : Tcp_seq.t;
  mutable snd_wl2 : Tcp_seq.t;
  mutable fin_queued : bool;
  mutable fin_sent : bool;
  mutable last_emit : Time.t;
  (* receive side *)
  rcv_buf : Bytequeue.t;
  mutable irs : Tcp_seq.t;
  mutable rcv_nxt : Tcp_seq.t;
  mutable rcv_adv : Tcp_seq.t; (* highest advertised rcv_nxt + window *)
  mutable loaned_bytes : int; (* delivered as loans, not yet returned *)
  mutable fin_received : bool;
  mutable ooseg : (Tcp_seq.t * View.t) list; (* out-of-order, sorted by seq *)
  mutable recent_oo : Tcp_seq.t option; (* newest out-of-order arrival (SACK block 1) *)
  (* the plug-in points *)
  opts : negotiated;
  rtt : Rtt_est.t;
  acks : Ack_policy.t;
  loss : Loss_recovery.t;
  cc : Cong_control.t;
  mutable mss : int;
  (* timers *)
  mutable rexmt : Timers.handle option;
  mutable persist : Timers.handle option;
  mutable time_wait : Timers.handle option;
  mutable keepalive : Timers.handle option;
  mutable idle_since : Time.t;
  mutable ka_probes : int;
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
  mutable fsm_steps : int; (* witness transitions, opening ones included *)
  mutable shadow_checks : int; (* shadow-oracle assertions *)
  rx : conn Ack_policy.rx;
  txs : Tx_path.stats;
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
let unknown_options t = t.unknown_options
let fsm_steps t = t.fsm_steps
let shadow_checks t = t.shadow_checks
let gro_merged t = t.rx.Ack_policy.merged
let gro_flushes t = t.rx.Ack_policy.flushes
let acks_elided t = t.rx.Ack_policy.elided
let gso_sends t = t.txs.Tx_path.gso_sends
let gso_fallbacks t = t.txs.Tx_path.gso_fallbacks
let pacer_waits t = t.txs.Tx_path.pacer_waits
let pacer_wait_us t = t.txs.Tx_path.pacer_wait_us

let pacer_hist t =
  List.sort
    (fun (a, _) (b, _) -> Stdlib.compare a b)
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.txs.Tx_path.pacer_hist [])

let state c = c.state
let fsm c = c.fsm
let established_witness c = Tcp_fsm.Packed.established c.fsm
let error c = c.error
let local_port c = c.local_port
let remote_addr c = (c.remote_ip, c.remote_port)
let mss c = c.mss
let srtt_us c = c.rtt.Rtt_est.srtt_us
let cwnd c = Cong_control.cwnd c.cc
let bytes_queued c = Tx_path.length c.tx
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
  co_rto_rexmits : int;
  co_fast_rexmits : int;
  co_sack_rexmits : int;
  co_recovery_us : float list;
}

let conn_options c =
  let l = c.loss in
  { co_snd_scale = c.opts.snd_scale; co_rcv_scale = c.opts.rcv_scale;
    co_sack = l.Loss_recovery.sack_ok; co_timestamps = c.rtt.Rtt_est.ts_ok;
    co_cong = Cong_control.name c.cc;
    co_unknown_opts = c.opts.unknown_opts; co_wnd_clamps = c.opts.wnd_clamps;
    co_rto_rexmits = l.Loss_recovery.rto_rexmits;
    co_fast_rexmits = l.Loss_recovery.fast_rexmits;
    co_sack_rexmits = l.Loss_recovery.sack_rexmits;
    co_recovery_us = l.Loss_recovery.rec_samples_us }

let key ~remote_ip ~remote_port ~local_port = (Ip.to_int32 remote_ip, remote_port, local_port)
let conn_key c = key ~remote_ip:c.remote_ip ~remote_port:c.remote_port ~local_port:c.local_port
let alive c = c.state <> State.Closed && not c.detached
let now c = Proto_env.now c.engine.env

(* --- wakeups, timers and windows ------------------------------------ *)

let wake_all c = while not (Queue.is_empty c.waiters) do (Queue.pop c.waiters) () done

let wait_on c = Sched.suspend (fun wake -> Queue.push wake c.waiters)

let on_closed c f = c.closed_callbacks <- f :: c.closed_callbacks

let stop_timer slot =
  Option.iter Timers.disarm slot;
  None

let charge_timer_op c = Proto_env.charge c.engine.env c.engine.env.Proto_env.costs.Costs.timer_op

(* Bytes loaned out to the application still occupy receive buffering
   (the pool buffer cannot be reused until returned), so outstanding
   loans shrink the advertised window: a slow application throttles its
   sender instead of starving the receive ring. *)
let rcv_window c =
  let used = Bytequeue.length c.rcv_buf + c.loaned_bytes in
  Stdlib.max 0 (c.engine.prm.Tcp_params.rcv_buf - used)

let snd_window c = Stdlib.min c.snd_wnd (Cong_control.cwnd c.cc)
let flight c = Stdlib.min (snd_window c) (Tcp_seq.diff c.snd_nxt c.snd_una)

(* The window a peer's segment grants us: scaled by the negotiated
   shift, except on SYN segments, which RFC 1323 keeps unscaled. *)
let seg_snd_wnd c (seg : Tcp_wire.segment) =
  if seg.Tcp_wire.flags.Tcp_wire.syn then seg.Tcp_wire.wnd
  else seg.Tcp_wire.wnd lsl c.opts.snd_scale

(* How much of [wnd] the 16-bit field can advertise after scaling. *)
let advertisable c wnd =
  let s = c.opts.rcv_scale in
  if s > 0 then Stdlib.min (wnd lsr s) 0xffff lsl s else Stdlib.min wnd 0xffff

(* --- segment emission ----------------------------------------------- *)

let emit ?payload_sum ?(gso_size = 0) t ~src_ip ~dst_ip (seg : Tcp_wire.segment) =
  Proto_env.charge t.env t.env.Proto_env.costs.Costs.tcp_output;
  Tx_path.charge_out t.env t.prm seg;
  t.segments_out <- t.segments_out + 1;
  let m = Tcp_wire.encode ?payload_sum ~src_ip ~dst_ip seg in
  Ipv4.output t.ip ~proto:6 ~dst:dst_ip ~gso_size m

let send_rst_for t ~src ~(seg : Tcp_wire.segment) =
  if t.rst_on_unknown then begin
    t.rsts_out <- t.rsts_out + 1;
    let has_ack = seg.Tcp_wire.flags.Tcp_wire.ack in
    let flags = { Tcp_wire.no_flags with Tcp_wire.rst = true; ack = not has_ack } in
    let seq, ack =
      if has_ack then (seg.Tcp_wire.ack, 0)
      else (0, Tcp_seq.add seg.Tcp_wire.seq (Tcp_wire.seg_len seg))
    in
    emit t ~src_ip:(Ipv4.my_ip t.ip) ~dst_ip:src
      { Tcp_wire.src_port = seg.Tcp_wire.dst_port; dst_port = seg.Tcp_wire.src_port;
        seq; ack; flags; wnd = 0; opts = Tcp_wire.no_opts; payload = Mbuf.empty }
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
      { Tcp_wire.no_opts with
        Tcp_wire.mss = Some c.mss;
        wscale =
          (if syn_ack then if c.opts.ws_ok then Some c.opts.rcv_scale else None
           else if prm.Tcp_params.window_scale then Some (scale_for prm.Tcp_params.rcv_buf)
           else None);
        sack_ok = Loss_recovery.offer c.loss prm ~syn_ack;
        ts = Rtt_est.option c.rtt prm ~offer:(not syn_ack) ~now:(now c) }

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
          c.opts.ws_ok <- true;
          c.opts.snd_scale <- Stdlib.min s 14;
          c.opts.rcv_scale <- scale_for prm.Tcp_params.rcv_buf;
          (* The 64KB cwnd clamp was an artifact of the 16-bit window;
             with scaling in effect the send buffer is the cap. *)
          Cong_control.set_max_cwnd c.cc (Stdlib.max prm.Tcp_params.snd_buf 65535)
      | _ -> ());
      Loss_recovery.negotiate c.loss prm peer.Tcp_wire.sack_ok;
      Rtt_est.negotiate c.rtt prm peer.Tcp_wire.ts

(* Send one segment of this connection.  [seq] is explicit so fast
   retransmit can resend at snd_una without disturbing snd_nxt. *)
let send_segment ?payload_sum ?gso_size c ~seq ~flags ~payload ~with_mss =
  let t = c.engine in
  let wnd = rcv_window c in
  let s = c.opts.rcv_scale in
  let scaled = s > 0 && not flags.Tcp_wire.syn in
  let wire_wnd =
    if scaled then Stdlib.min (wnd lsr s) 0xffff
    else begin
      (* Unscaled connections cannot advertise past 64KB; make the
         clamp observable instead of silent. *)
      if wnd > 0xffff then c.opts.wnd_clamps <- c.opts.wnd_clamps + 1;
      Stdlib.min wnd 0xffff
    end
  in
  let adv = if scaled then wire_wnd lsl s else wire_wnd in
  c.rcv_adv <- Tcp_seq.max c.rcv_adv (Tcp_seq.add c.rcv_nxt adv);
  Ack_policy.sent c.acks;
  c.last_emit <- now c;
  let opts =
    if with_mss then syn_opts c ~syn_ack:flags.Tcp_wire.ack
    else begin
      let sack =
        if c.loss.Loss_recovery.sack_ok && c.ooseg <> [] then
          Sack.select_blocks ~recent:c.recent_oo ~limit:3 (oo_ranges c)
        else []
      in
      let ts = Rtt_est.option c.rtt t.prm ~offer:false ~now:(now c) in
      if sack = [] && ts = None then Tcp_wire.no_opts
      else { Tcp_wire.no_opts with Tcp_wire.sack; ts }
    end
  in
  emit ?payload_sum ?gso_size t ~src_ip:(Ipv4.my_ip t.ip) ~dst_ip:c.remote_ip
    { Tcp_wire.src_port = c.local_port; dst_port = c.remote_port;
      seq; ack = c.rcv_nxt; flags; wnd = wire_wnd; opts; payload }

let flags_ack = { Tcp_wire.no_flags with Tcp_wire.ack = true }
let flags_syn = { Tcp_wire.no_flags with Tcp_wire.syn = true }
let flags_syn_ack = { Tcp_wire.no_flags with Tcp_wire.syn = true; ack = true }

(* What loss recovery reads of a connection, and how it resends. *)
let loss_view =
  { Loss_recovery.una = (fun c -> c.snd_una); nxt = (fun c -> c.snd_nxt);
    max = (fun c -> c.snd_max); mss = (fun c -> c.mss);
    buffered = (fun c -> Tx_path.length c.tx); cc = (fun c -> c.cc); now;
    resend =
      (fun c ~seq ~off ~len ->
        c.engine.retransmissions <- c.engine.retransmissions + 1;
        Rtt_est.retransmitted c.rtt;
        send_segment c ~seq ~flags:flags_ack ~payload:(Tx_path.peek c.tx ~off ~len)
          ~with_mss:false) }

(* --- connection teardown -------------------------------------------- *)

let check_shadow c =
  c.engine.shadow_checks <- c.engine.shadow_checks + 1;
  Tcp_fsm.Packed.check_shadow c.fsm c.state

(* Every state change goes through a typed witness: assert the shadow
   oracle, apply the transition to the packed witness, and move the
   untyped field to the witness's new shadow.  No [c.state <- ...]
   exists outside this helper and [destroy]. *)
let transition c tr =
  check_shadow c;
  c.fsm <- Tcp_fsm.Packed.apply c.fsm tr;
  c.engine.fsm_steps <- c.engine.fsm_steps + 1;
  c.state <- Tcp_fsm.target tr

(* Our FIN goes out (or is forced out as a window probe). *)
let fin_out c =
  c.fin_sent <- true;
  match c.state with
  | State.Established -> transition c Tcp_fsm.Send_fin_established
  | State.Syn_received -> transition c Tcp_fsm.Send_fin_syn_received
  | State.Close_wait -> transition c Tcp_fsm.Send_fin_close_wait
  | _ -> () (* FIN resend after a retransmit timeout: state already advanced *)

let destroy c reason =
  c.rexmt <- stop_timer c.rexmt;
  c.persist <- stop_timer c.persist;
  Ack_policy.stop_delack c.acks;
  c.time_wait <- stop_timer c.time_wait;
  c.keepalive <- stop_timer c.keepalive;
  Tx_path.stop_pacer c.tx;
  if c.state <> State.Closed then begin
    (* Retire through the matching edge to the terminal state: clean
       teardown (no error) takes the close/expire/fin-acked edges, an
       errored one the abort edges. *)
    check_shadow c;
    c.fsm <- Tcp_fsm.Packed.retire c.fsm ~clean:(reason = None);
    c.engine.fsm_steps <- c.engine.fsm_steps + 1;
    c.state <- State.Closed;
    c.error <- (match c.error with None -> reason | some -> some);
    Hashtbl.remove c.engine.pcbs (conn_key c);
    (* Fire any pending zero-copy releases: buffers queued but never
       acknowledged go back to their pool with the connection. *)
    Tx_path.clear c.tx;
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

(* --- output engine --------------------------------------------------- *)

let rec arm_rexmt c =
  match c.rexmt with
  | Some _ -> ()
  | None ->
      charge_timer_op c;
      let delay = Rtt_est.rexmt_delay c.rtt c.engine.prm in
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
  if alive c then begin
    if not (Rtt_est.timed_out c.rtt) then drop_with_error c "connection timed out"
    else begin
      c.engine.retransmissions <- c.engine.retransmissions + 1;
      Loss_recovery.timed_out c.loss;
      trace c "retransmission timeout (backoff %d, state %s)" c.rtt.Rtt_est.backoff
        (State.to_string c.state);
      match c.state with
      | State.Syn_sent ->
          arm_rexmt c;
          send_segment c ~seq:c.iss ~flags:flags_syn ~payload:Mbuf.empty ~with_mss:true
      | State.Syn_received ->
          arm_rexmt c;
          send_segment c ~seq:c.iss ~flags:flags_syn_ack ~payload:Mbuf.empty ~with_mss:true
      | _ ->
          (* Congestion collapse response: shrink and go back to snd_una. *)
          Cong_control.on_rto c.cc ~flight:(flight c);
          Loss_recovery.rewound c.loss loss_view c;
          c.snd_nxt <- c.snd_una;
          c.fin_sent <- false;
          output c
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
  if not (alive c) then false
  else begin
    let prm = c.engine.prm in
    let buffered = Tx_path.length c.tx in
    let off = Tcp_seq.diff c.snd_nxt c.snd_una in
    (* [off] counts the unacked FIN if one is in flight; data offset
       never exceeds the buffer. *)
    let data_off = Stdlib.min (Stdlib.max 0 off) buffered in
    let avail = buffered - data_off in
    (* Congestion-window validation: nothing in flight and no segment
       sent for over an RTO means the ACK clock is dead — restart from
       the initial window (no-op under the Reno oracle). *)
    if off = 0 && avail > 0 && Time.diff (now c) c.last_emit > c.rtt.Rtt_est.rto then
      Cong_control.on_idle c.cc;
    let usable = Stdlib.max 0 (snd_window c - off) in
    let at_frontier = Tcp_seq.ge c.snd_nxt c.snd_max in
    let seg_cap = Tx_path.segment_cap prm ~mss:c.mss ~usable ~at_frontier in
    let len = Stdlib.min (Stdlib.min seg_cap avail) usable in
    let len = if len > c.mss then len / c.mss * c.mss else len in
    (* New data needs a send permit from the witness (Established or
       half-closed Close_wait); buffered data drains alongside a queued
       FIN regardless.  proto-check pins the permit row to
       [State.can_send_data]. *)
    let data_allowed = Tcp_fsm.Packed.send_permit c.fsm <> None || c.fin_queued in
    let len = if data_allowed then len else 0 in
    let all_data_sent = data_off + len >= buffered in
    let want_fin =
      (* Also resend from FIN-bearing states: after a retransmit timeout
         snd_nxt returns to snd_una with fin_sent cleared, but the state
         has already advanced. *)
      c.fin_queued && (not c.fin_sent) && all_data_sent
      && List.mem c.state
           State.[ Established; Close_wait; Syn_received; Fin_wait_1; Closing; Last_ack ]
      && usable - len > 0
    in
    let nagle_blocks =
      len > 0 && len < c.mss && off > 0 && prm.Tcp_params.nagle && not want_fin
      && avail - len = 0
    in
    let pace_blocked =
      len > 0 && (not nagle_blocks) && (not want_fin) && at_frontier
      && Tx_path.pace_blocked c.tx prm c.engine.env ~rtt_min_us:c.rtt.Rtt_est.rtt_min_us
    in
    if pace_blocked then
      Tx_path.hold c.tx c.engine.txs c.engine.env ~resume:(fun () ->
          if alive c then
            Proto_env.spawn_handler c.engine.env ~name:"tcp.pacer" (fun () -> output c));
    let send_data = len > 0 && (not nagle_blocks) && not pace_blocked in
    if send_data || want_fin || c.acks.Ack_policy.ack_now then begin
      let payload, payload_sum =
        if send_data then Tx_path.payload c.tx prm ~off:data_off ~len else (Mbuf.empty, None)
      in
      let len = if send_data then len else 0 in
      let fin_now = want_fin && (send_data || len = 0) in
      let flags =
        { Tcp_wire.no_flags with
          Tcp_wire.ack = true;
          fin = fin_now;
          psh = send_data && data_off + len >= Tx_path.length c.tx }
      in
      (* After a go-back-N rewind [snd_nxt] sits below [snd_max]; a pure
         ACK carries [snd_max] (4.4BSD's tcp_output does the same), or it
         falls left of the peer's window and is dropped unread: two
         rewound ends would then answer each other's ACKs forever. *)
      let seq = if send_data || fin_now || c.persist <> None then c.snd_nxt else c.snd_max in
      if send_data then begin
        (* Time this segment if it is new data at the send frontier;
           below the frontier it is a go-back-N resend. *)
        Rtt_est.sent c.rtt ~seq ~snd_max:c.snd_max ~now:(now c);
        if Tcp_seq.lt seq c.snd_max then begin
          c.engine.retransmissions <- c.engine.retransmissions + 1;
          Loss_recovery.resent c.loss
        end
      end;
      c.snd_nxt <- Tcp_seq.add c.snd_nxt (len + if fin_now then 1 else 0);
      c.snd_max <- Tcp_seq.max c.snd_max c.snd_nxt;
      if fin_now then fin_out c;
      if send_data || fin_now then arm_rexmt c;
      let gso_size = if send_data then Tx_path.gso_size c.engine.txs prm ~len ~mss:c.mss else 0 in
      send_segment ?payload_sum ~gso_size c ~seq ~flags ~payload ~with_mss:false;
      if send_data then
        Tx_path.paced c.tx c.engine.env prm ~len ~mss:c.mss ~cwnd:(Cong_control.cwnd c.cc)
          ~rtt_min_us:c.rtt.Rtt_est.rtt_min_us;
      true
    end
    else begin
      (* Nothing sendable: maybe start the persist probe.  A pending FIN
         with a closed window also needs probing or it would never go
         out. *)
      if (Tx_path.length c.tx > 0 || (c.fin_queued && not c.fin_sent))
         && c.snd_wnd = 0 && c.rexmt = None && c.persist = None && State.synchronized c.state
      then arm_persist c;
      false
    end
  end

and arm_persist c =
  charge_timer_op c;
  let delay = Rtt_est.persist_delay c.rtt in
  c.persist <-
    Some
      (Timers.arm c.engine.env.Proto_env.timers delay (fun () ->
           c.persist <- None;
           Proto_env.spawn_handler c.engine.env ~name:"tcp.persist" (fun () ->
               persist_fired c)))

and persist_fired c =
  if alive c && c.snd_wnd = 0 then begin
    if Tx_path.length c.tx > 0 then begin
      (* Window probe: one byte at snd_una. *)
      let payload = Tx_path.peek c.tx ~off:0 ~len:1 in
      Rtt_est.probed c.rtt;
      send_segment c ~seq:c.snd_una ~flags:flags_ack ~payload ~with_mss:false;
      arm_persist c
    end
    else if c.fin_queued && not c.fin_sent then begin
      (* Force the FIN out as the probe. *)
      Rtt_est.probed c.rtt;
      let seq = c.snd_nxt in
      c.snd_nxt <- Tcp_seq.add c.snd_nxt 1;
      c.snd_max <- Tcp_seq.max c.snd_max c.snd_nxt;
      fin_out c;
      arm_rexmt c;
      send_segment c ~seq
        ~flags:{ Tcp_wire.no_flags with Tcp_wire.ack = true; fin = true }
        ~payload:Mbuf.empty ~with_mss:false
    end
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
        let idle = Time.diff (now c) c.idle_since in
        if idle < idle_limit && c.ka_probes = 0 then arm_keepalive c
        else if c.ka_probes >= c.engine.prm.Tcp_params.keepalive_probes then
          drop_with_error c "keepalive timeout"
        else begin
          c.ka_probes <- c.ka_probes + 1;
          send_segment c ~seq:(Tcp_seq.add c.snd_una (-1)) ~flags:flags_ack ~payload:Mbuf.empty
            ~with_mss:false;
          arm_keepalive c
        end
      end

let touch_keepalive c =
  c.idle_since <- now c;
  c.ka_probes <- 0

(* --- TIME_WAIT -------------------------------------------------------- *)

(* Callers take the witness transition into TIME_WAIT first; this only
   arranges the 2MSL machinery. *)
let enter_time_wait c =
  trace c "entering TIME_WAIT";
  check_shadow c;
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
    if c.acks.Ack_policy.ack_now then output c;
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

let process_ack c (seg : Tcp_wire.segment) =
  let ack = seg.Tcp_wire.ack in
  Loss_recovery.sacked c.loss ~una:c.snd_una c.cc seg.Tcp_wire.opts.Tcp_wire.sack;
  if Tcp_seq.gt ack c.snd_max then (* Acknowledges data we never sent. *)
    Ack_policy.force c.acks
  else if Tcp_seq.le ack c.snd_una then begin
    (* Duplicate ACK. *)
    if Mbuf.length seg.Tcp_wire.payload = 0 && seg_snd_wnd c seg = c.snd_wnd
       && Tcp_seq.gt c.snd_nxt c.snd_una
       && Loss_recovery.dupack c.loss loss_view c ~flight:(flight c)
    then trace c "fast retransmit at %d" c.snd_una
  end
  else begin
    (* New data acknowledged. *)
    let acked = Tcp_seq.diff ack c.snd_una in
    Rtt_est.acked c.rtt c.engine.prm ~ack ~ts:seg.Tcp_wire.opts.Tcp_wire.ts ~now:(now c);
    (* Congestion window growth (and the NewReno partial-ACK verdict). *)
    let rexmit_hole =
      Cong_control.on_ack c.cc ~ack ~acked ~dupacks:c.loss.Loss_recovery.dupacks
        ~flight:(flight c)
        ~now_us:(Time.to_us_f (Time.diff (now c) Time.zero))
    in
    (* Remove acknowledged bytes; the FIN consumes one unit of sequence
       space that is not in the buffer. *)
    let buffered = Tx_path.length c.tx in
    let fin_acked =
      c.fin_sent && Tcp_seq.ge ack c.snd_nxt && Tcp_seq.diff c.snd_nxt c.snd_una > 0
      && acked > buffered
    in
    let data_acked = Stdlib.min (acked - if fin_acked then 1 else 0) buffered in
    if data_acked > 0 then Tx_path.drop c.tx data_acked;
    c.snd_una <- ack;
    if Tcp_seq.gt c.snd_una c.snd_nxt then c.snd_nxt <- c.snd_una;
    Loss_recovery.advanced c.loss loss_view c;
    (* Retransmit timer: restart while data remains outstanding. *)
    c.rexmt <- stop_timer c.rexmt;
    if Tcp_seq.gt c.snd_nxt c.snd_una then arm_rexmt c;
    (* NewReno partial ACK: another segment of the same loss window is
       missing — repair it now rather than waiting for three more
       dupacks (or the timer). *)
    if rexmit_hole then Loss_recovery.repair c.loss loss_view c;
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
    if not seg.Tcp_wire.flags.Tcp_wire.rst then (Ack_policy.force c.acks; output c)
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
        (* The witness is minted at the instant of establishment and
           travels with the connection to accept. *)
        Option.iter
          (fun box ->
            c.accept_box <- None;
            Mailbox.send box (c, Option.get (Tcp_fsm.Packed.established c.fsm)))
          c.accept_box;
        wake_all c
      end
      else begin
        send_rst_for c.engine ~src:c.remote_ip ~seg;
        drop_with_error c "bad ACK completing handshake"
      end
    end;
    if c.state <> State.Closed then begin
      process_ack c seg;
      if c.state <> State.Closed then begin
        (* Window update (RFC 793 ordering on wl1/wl2). *)
        if Tcp_seq.lt c.snd_wl1 seq || (c.snd_wl1 = seq && Tcp_seq.le c.snd_wl2 seg.Tcp_wire.ack)
        then begin
          let old_wnd = c.snd_wnd in
          c.snd_wnd <- seg_snd_wnd c seg;
          c.snd_wl1 <- seq;
          c.snd_wl2 <- seg.Tcp_wire.ack;
          if c.snd_wnd > 0 then c.persist <- stop_timer c.persist;
          if c.snd_wnd > old_wnd then wake_all c
        end;
        (* Payload: trim any already-received prefix, clip to our
           window, then deliver in order or queue out of order (which
           owes a duplicate ACK for fast retransmit). *)
        if payload_len > 0 then begin
          let skip = Stdlib.max 0 (Tcp_seq.diff c.rcv_nxt seq) in
          if State.can_receive_data c.state && skip < payload_len then begin
            let seq' = Tcp_seq.add seq skip in
            let data = Mbuf.drop seg.Tcp_wire.payload skip in
            let room = Tcp_seq.diff (Tcp_seq.add c.rcv_nxt win) seq' in
            let keep = Stdlib.min (Mbuf.length data) (Stdlib.max 0 room) in
            if keep > 0 then begin
              let data = Mbuf.take data keep in
              if seq' = c.rcv_nxt then begin
                (* A coalesced run arrives as the chain of its chunks. *)
                Mbuf.fold_segments (fun () v -> Bytequeue.push c.rcv_buf v) () data;
                c.rcv_nxt <- Tcp_seq.add c.rcv_nxt keep;
                drain_ooseg c;
                Ack_policy.schedule c.engine.rx c;
                wake_all c
              end
              else begin
                insert_ooseg c seq' (Mbuf.flatten data);
                Ack_policy.force c.acks
              end
            end
          end
          else Ack_policy.force c.acks
        end;
        (* FIN: only when it lands exactly in order. *)
        if seg.Tcp_wire.flags.Tcp_wire.fin && (not c.fin_received)
           && Tcp_seq.add seq payload_len = c.rcv_nxt && c.ooseg = []
        then begin
          c.fin_received <- true;
          c.rcv_nxt <- Tcp_seq.add c.rcv_nxt 1;
          Ack_policy.force c.acks;
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
        else if seg.Tcp_wire.flags.Tcp_wire.fin && c.fin_received then Ack_policy.force c.acks;
        output c
      end
    end
  end

let process_segment c (seg : Tcp_wire.segment) =
  touch_keepalive c;
  if Rtt_est.admit c.rtt seg ~rcv_nxt:c.rcv_nxt then process_segment_established c seg
  else (Ack_policy.force c.acks; output c)

(* --- SYN_SENT input ---------------------------------------------------- *)

let process_syn_sent c (seg : Tcp_wire.segment) =
  let f = seg.Tcp_wire.flags in
  let ack_ok =
    (not f.Tcp_wire.ack)
    || (Tcp_seq.gt seg.Tcp_wire.ack c.iss && Tcp_seq.le seg.Tcp_wire.ack c.snd_max)
  in
  if not ack_ok then (if not f.Tcp_wire.rst then send_rst_for c.engine ~src:c.remote_ip ~seg)
  else if f.Tcp_wire.rst then (if f.Tcp_wire.ack then drop_with_error c "connection refused")
  else if f.Tcp_wire.syn then begin
    c.irs <- seg.Tcp_wire.seq;
    c.rcv_nxt <- Tcp_seq.add seg.Tcp_wire.seq 1;
    c.mss <- Stdlib.min c.mss (Option.value seg.Tcp_wire.opts.Tcp_wire.mss ~default:mss_default);
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
      Rtt_est.syn_acked c.rtt;
      transition c Tcp_fsm.Rcv_syn_ack;
      trace c "established (active open)";
      arm_keepalive c;
      Ack_policy.force c.acks;
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

let dispatch c seg =
  if c.state = State.Syn_sent then process_syn_sent c seg else process_segment c seg

(* --- connection records ------------------------------------------------ *)

(* The one place a control block is built: an active open, a passive
   open off a listener, and an imported handoff all start here.  [from]
   carries a handed-off connection's negotiated state.  The congestion
   window starts from the agreed MSS. *)
let fresh_conn ?from t ~local_port ~remote_ip ~remote_port ~fsm ~iss ~snd_nxt ~irs ~rcv_nxt ~mss =
  let opts, rtt, loss, cc =
    match from with
    | Some s -> (s.snap_opts, s.snap_rtt, s.snap_loss, s.snap_cc)
    | None ->
        ( { ws_ok = false; snd_scale = 0; rcv_scale = 0; unknown_opts = 0; wnd_clamps = 0 },
          Rtt_est.create t.prm,
          Loss_recovery.create ~iss,
          Cong_control.create t.prm.Tcp_params.cong_control ~mss:mss_default
            ~initial_segments:t.prm.Tcp_params.initial_cwnd_segments )
  in
  let c =
    { engine = t; local_port; remote_ip; remote_port;
      state = Tcp_fsm.Packed.state fsm; fsm;
      tx = Tx_path.create t.prm;
      iss; snd_una = iss; snd_nxt; snd_max = snd_nxt;
      snd_wnd = 0; snd_wl1 = 0; snd_wl2 = 0;
      fin_queued = false; fin_sent = false;
      last_emit = Proto_env.now t.env;
      rcv_buf = Bytequeue.create ();
      irs; rcv_nxt; rcv_adv = rcv_nxt;
      loaned_bytes = 0; fin_received = false; ooseg = []; recent_oo = None;
      opts; rtt; acks = Ack_policy.create (); loss; cc; mss;
      rexmt = None; persist = None; time_wait = None; keepalive = None;
      idle_since = Proto_env.now t.env; ka_probes = 0;
      output_active = false; output_pending = false;
      error = None; detached = false;
      waiters = Queue.create (); closed_callbacks = []; accept_box = None }
  in
  Cong_control.reinit c.cc ~mss;
  c

let our_mss t = Ipv4.mtu t.ip - Ipv4.header_size - Tcp_wire.header_size

let handle_syn_for_listener t l (seg : Tcp_wire.segment) ~src =
  let iss = Rng.int t.env.Proto_env.rng 0x0fffffff in
  let seq = seg.Tcp_wire.seq in
  let c =
    fresh_conn t ~local_port:l.lport ~remote_ip:src ~remote_port:seg.Tcp_wire.src_port
      ~fsm:(Tcp_fsm.Packed.passive_accept ()) ~iss ~snd_nxt:(Tcp_seq.add iss 1) ~irs:seq
      ~rcv_nxt:(Tcp_seq.add seq 1)
      ~mss:
        (Stdlib.min (Option.value seg.Tcp_wire.opts.Tcp_wire.mss ~default:mss_default) (our_mss t))
  in
  t.fsm_steps <- t.fsm_steps + 2;
  c.snd_wnd <- seg.Tcp_wire.wnd;
  c.snd_wl1 <- seq;
  c.accept_box <- Some l.backlog;
  negotiate_options c seg.Tcp_wire.opts;
  Hashtbl.replace t.pcbs (conn_key c) c;
  arm_rexmt c;
  send_segment c ~seq:c.iss ~flags:flags_syn_ack ~payload:Mbuf.empty ~with_mss:true

(* --- engine input ------------------------------------------------------ *)

(* Only plain in-order data may join a receive merge: anything that
   could change ACK generation, SACK/dupack behavior or option
   processing relative to per-packet arrival — flags beyond ACK|PSH,
   SACK blocks, unknown options, a PAWS-stale timestamp — flows through
   the ordinary path. *)
let gro_plain c (seg : Tcp_wire.segment) =
  let f = seg.Tcp_wire.flags and o = seg.Tcp_wire.opts in
  c.state = State.Established && f.Tcp_wire.ack
  && (not (f.Tcp_wire.syn || f.Tcp_wire.rst || f.Tcp_wire.fin))
  && o.Tcp_wire.sack = [] && o.Tcp_wire.unknown = []
  && Mbuf.length seg.Tcp_wire.payload > 0
  && Rtt_est.fresh c.rtt o.Tcp_wire.ts

let rx_hooks =
  { Ack_policy.acks = (fun c -> c.acks);
    plain = gro_plain;
    in_order = (fun c seg -> gro_plain c seg && seg.Tcp_wire.seq = c.rcv_nxt && c.ooseg = []);
    room = rcv_window;
    alive;
    process = dispatch;
    expired =
      (fun c -> Proto_env.spawn_handler c.engine.env ~name:"tcp.delack" (fun () -> output c)) }

(* Every frame enters here.  Per-packet, the state machine is charged up
   front; inside an rx_coalesce burst ({!begin_burst}) the charge waits
   for [Ack_policy.input]'s merge decision, and frames that cannot
   merge — corrupt, listener-bound or unknown — pay it after the byte
   pass.  A merge never hides a bad checksum. *)
let charge_input t = Proto_env.charge t.env t.env.Proto_env.costs.Costs.tcp_input

let input t ~src ~dst payload =
  let burst = t.rx.Ack_policy.in_burst > 0 in
  if not burst then charge_input t;
  Tx_path.charge_in t.env t.prm (Mbuf.length payload);
  match Tcp_wire.decode ~src_ip:src ~dst_ip:dst payload with
  | None ->
      if burst then charge_input t;
      t.checksum_failures <- t.checksum_failures + 1
  | Some seg -> (
      t.segments_in <- t.segments_in + 1;
      (* Unknown option kinds are skipped by the decoder but surfaced
         here: an aggregate engine counter plus a per-connection one
         (visible through [conn_options]). *)
      let unknown = List.length seg.Tcp_wire.opts.Tcp_wire.unknown in
      if unknown > 0 then t.unknown_options <- t.unknown_options + unknown;
      let k =
        key ~remote_ip:src ~remote_port:seg.Tcp_wire.src_port ~local_port:seg.Tcp_wire.dst_port
      in
      match Hashtbl.find_opt t.pcbs k with
      | Some c ->
          if unknown > 0 then c.opts.unknown_opts <- c.opts.unknown_opts + unknown;
          if burst then Ack_policy.input t.rx c seg else dispatch c seg
      | None -> (
          if burst then charge_input t;
          let f = seg.Tcp_wire.flags in
          match Hashtbl.find_opt t.listeners seg.Tcp_wire.dst_port with
          | Some l when f.Tcp_wire.syn && not (f.Tcp_wire.ack || f.Tcp_wire.rst) ->
              handle_syn_for_listener t l seg ~src
          | _ ->
              let claimed =
                match t.unknown_hook with Some hook -> hook ~src ~dst payload | None -> false
              in
              if not (claimed || f.Tcp_wire.rst) then send_rst_for t ~src ~seg))

let begin_burst t = Ack_policy.begin_burst t.rx
let end_burst t = Ack_policy.end_burst t.rx

(* --- public API --------------------------------------------------------- *)

let create env ip ?(params = Tcp_params.default) () =
  let t =
    { env; ip; prm = params;
      pcbs = Hashtbl.create 32; listeners = Hashtbl.create 8;
      rst_on_unknown = true; unknown_hook = None; time_wait_hook = None;
      segments_in = 0; segments_out = 0; retransmissions = 0; rsts_out = 0;
      checksum_failures = 0; unknown_options = 0; fsm_steps = 0; shadow_checks = 0;
      rx = Ack_policy.create_rx params env rx_hooks;
      txs = Tx_path.create_stats () }
  in
  Ipv4.set_handler ip ~proto:6 (input t);
  t

(* Active open, first half: SYN_SENT with nothing on the wire yet. *)
let connect_prepare t ~src_port ~dst ~dst_port =
  let k = key ~remote_ip:dst ~remote_port:dst_port ~local_port:src_port in
  if Hashtbl.mem t.pcbs k then Error "address in use"
  else begin
    let iss = Rng.int t.env.Proto_env.rng 0x0fffffff in
    let c =
      fresh_conn t ~local_port:src_port ~remote_ip:dst ~remote_port:dst_port
        ~fsm:(Tcp_fsm.Packed.active_open ()) ~iss ~snd_nxt:(Tcp_seq.add iss 1) ~irs:0 ~rcv_nxt:0
        ~mss:(our_mss t)
    in
    t.fsm_steps <- t.fsm_steps + 1;
    Hashtbl.replace t.pcbs k c;
    Ok (c, Option.get (Tcp_fsm.Packed.syn_sent c.fsm))
  end

let connect_launch c =
  arm_rexmt c;
  send_segment c ~seq:c.iss ~flags:flags_syn ~payload:Mbuf.empty ~with_mss:true;
  while c.state = State.Syn_sent || c.state = State.Syn_received do wait_on c done;
  match Tcp_fsm.Packed.established c.fsm with
  | Some w -> Ok w
  | None -> Error (Option.value c.error ~default:"connection failed")

let connect t ~src_port ~dst ~dst_port =
  Result.bind (connect_prepare t ~src_port ~dst ~dst_port) (fun (c, _syn_sent) ->
      Result.map (fun w -> (c, w)) (connect_launch c))

let listen t ~port =
  if Hashtbl.mem t.listeners port then failwith (Printf.sprintf "Tcp.listen: port %d in use" port);
  let l = { lport = port; backlog = Mailbox.create () } in
  Hashtbl.replace t.listeners port l;
  l

let listener_witness (_ : listener) : [ `Listen ] Tcp_fsm.state =
  Tcp_fsm.step (Tcp_fsm.closed ()) Tcp_fsm.Passive_open

let accept l = Mailbox.recv l.backlog
let close_listener t l = Hashtbl.remove t.listeners l.lport

let conns t =
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) t.pcbs []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

let port_in_use t port =
  Hashtbl.mem t.listeners port
  || Seq.exists (fun (_, _, local) -> local = port) (Hashtbl.to_seq_keys t.pcbs)

let check_alive c op =
  if c.detached then raise (Connection_error (op ^ ": connection was handed off"));
  match c.error with Some e -> raise (Connection_error e) | None -> ()

(* The runtime double of the typed send permit: data is accepted only in
   Established or half-closed Close_wait. *)
let check_writable c op =
  check_alive c op;
  if Tcp_fsm.Packed.send_permit c.fsm = None then
    raise (Connection_error (op ^ if State.synchronized c.state then " on closing connection"
                                  else " before connection established"))

let write c data =
  check_alive c "write";
  let len = View.length data in
  let sent = ref 0 in
  while !sent < len do
    check_writable c "write";
    let space = c.engine.prm.Tcp_params.snd_buf - Tx_path.length c.tx in
    if space <= 0 then wait_on c
    else begin
      let n = Stdlib.min space (len - !sent) in
      Tx_path.push c.tx (View.sub data !sent n);
      sent := !sent + n;
      output c
    end
  done

(* The contract of [Sockets.alloc_tx]/[send_owned]: the caller leaves
   the buffer alone until [release] fires. *)
let write_owned ?release c data =
  check_alive c "write_owned";
  if not (Tx_path.zero_copy c.tx) then
    raise (Connection_error "write_owned: connection is not zero-copy");
  let len = View.length data in
  let rec wait_for_space () =
    check_writable c "write_owned";
    (* The view is queued whole (its release must fire exactly once),
       so wait until the whole length fits — or the queue is empty, so
       an oversized view cannot deadlock. *)
    let queued = Tx_path.length c.tx in
    if c.engine.prm.Tcp_params.snd_buf - queued < len && queued > 0 then begin
      wait_on c;
      wait_for_space ()
    end
  in
  wait_for_space ();
  Tx_path.push_owned ?release c.tx data;
  output c

let maybe_window_update c =
  (* Send a window update once the window has opened significantly
     (2*MSS or half the buffer) beyond what was last advertised. *)
  let edge = Tcp_seq.add c.rcv_nxt (advertisable c (rcv_window c)) in
  let opening = Tcp_seq.diff edge c.rcv_adv in
  if opening >= 2 * c.mss || opening >= c.engine.prm.Tcp_params.rcv_buf / 2 then
    (Ack_policy.force c.acks; output c)

(* A loan ([read_loan]) is taken before any window update is considered,
   so the advertised window never grows and then shrinks back.  The
   engine tracks loan lengths; which pool buffer is loaned is the socket
   layer's business. *)
let receive ~loan c ~max =
  let rec go () =
    if Bytequeue.length c.rcv_buf > 0 then begin
      let v = Bytequeue.pop c.rcv_buf (Stdlib.max 1 max) in
      if loan then c.loaned_bytes <- c.loaned_bytes + View.length v else maybe_window_update c;
      Some v
    end
    else if c.fin_received then None
    else begin
      (match c.error with Some e -> raise (Connection_error e) | None -> ());
      let op = if loan then "read_loan" else "read" in
      if c.detached then raise (Connection_error (op ^ ": connection was handed off"));
      if c.state = State.Closed then None
      else begin
        wait_on c;
        go ()
      end
    end
  in
  go ()

let read = receive ~loan:false
let read_loan = receive ~loan:true

let return_loan c len =
  if len < 0 then invalid_arg "Tcp.return_loan: negative length";
  c.loaned_bytes <- Stdlib.max 0 (c.loaned_bytes - len);
  if alive c then maybe_window_update c

let close c =
  if not c.detached then
    match c.state with
    | State.Closed | State.Time_wait | State.Fin_wait_1 | State.Fin_wait_2 | State.Closing
    | State.Last_ack -> ()
    | State.Listen | State.Syn_sent -> finish_cleanly c
    | State.Syn_received | State.Established | State.Close_wait ->
        c.fin_queued <- true;
        output c

let abort c =
  if alive c then begin
    if State.synchronized c.state then begin
      c.engine.rsts_out <- c.engine.rsts_out + 1;
      send_segment c ~seq:c.snd_nxt
        ~flags:{ Tcp_wire.no_flags with Tcp_wire.rst = true; ack = true }
        ~payload:Mbuf.empty ~with_mss:false
    end;
    drop_with_error c "connection aborted"
  end

let await_closed c = while c.state <> State.Closed do wait_on c done

(* --- handoff ------------------------------------------------------------ *)

(* The snapshot carries the plug-in records whole: the negotiated window
   scale, SACK and timestamp state survive the handoff along with the
   RTT estimate and the congestion state.  The exporter is detached, so
   the importer adopts the records rather than copying them. *)
let export_common c =
  let snap =
    { snap_local_port = c.local_port; snap_remote_ip = c.remote_ip;
      snap_remote_port = c.remote_port;
      snap_iss = c.iss; snap_irs = c.irs;
      snap_snd_una = c.snd_una; snap_snd_nxt = c.snd_nxt; snap_snd_wnd = c.snd_wnd;
      snap_rcv_nxt = c.rcv_nxt; snap_mss = c.mss;
      snap_opts = c.opts; snap_rtt = c.rtt; snap_loss = c.loss; snap_cc = c.cc;
      snap_rcv_pending =
        View.to_string (Bytequeue.peek c.rcv_buf ~off:0 ~len:(Bytequeue.length c.rcv_buf)) }
  in
  c.rexmt <- stop_timer c.rexmt;
  c.persist <- stop_timer c.persist;
  Ack_policy.stop_delack c.acks;
  c.detached <- true;
  Hashtbl.remove c.engine.pcbs (conn_key c);
  wake_all c;
  snap

let export c ~witness:(_ : [ `Established ] Tcp_fsm.state) =
  (* The witness proves the caller saw ESTABLISHED; the dynamic check
     stays as the shadow oracle for the window between the two. *)
  if c.state <> State.Established then failwith "Tcp.export: connection not ESTABLISHED";
  if Tx_path.length c.tx > 0 then failwith "Tcp.export: unsent data in send buffer";
  export_common c

let export_force c =
  if c.state <> State.Established then failwith "Tcp.export_force: connection not ESTABLISHED";
  (* Unacknowledged data is lost with the application; the peer will be
     reset, so the snapshot pretends the stream ends at snd_una. *)
  Tx_path.clear c.tx;
  Bytequeue.clear c.rcv_buf;
  let snap = export_common c in
  { snap with snap_snd_nxt = snap.snap_snd_una; snap_rcv_pending = "" }

let await_drained c =
  while c.state <> State.Closed && (Tx_path.length c.tx > 0 || Tcp_seq.gt c.snd_nxt c.snd_una) do
    wait_on c
  done

let import t snap =
  (* The new engine has no ACK clock yet: the initial window restarts, as
     for a fresh connection, and the rest of the congestion state stays. *)
  let c =
    fresh_conn ~from:snap t ~local_port:snap.snap_local_port ~remote_ip:snap.snap_remote_ip
      ~remote_port:snap.snap_remote_port ~fsm:(Tcp_fsm.Packed.import ()) ~iss:snap.snap_iss
      ~snd_nxt:snap.snap_snd_nxt ~irs:snap.snap_irs ~rcv_nxt:snap.snap_rcv_nxt ~mss:snap.snap_mss
  in
  c.snd_una <- snap.snap_snd_una;
  c.snd_wnd <- snap.snap_snd_wnd;
  c.snd_wl1 <- snap.snap_rcv_nxt;
  c.snd_wl2 <- snap.snap_snd_una;
  if snap.snap_rcv_pending <> "" then Bytequeue.push_string c.rcv_buf snap.snap_rcv_pending;
  Hashtbl.replace t.pcbs (conn_key c) c;
  arm_keepalive c;
  c
