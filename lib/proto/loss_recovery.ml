(* Loss recovery: the duplicate-ACK counter, fast retransmit and the
   NewReno partial-ACK repair, the SACK scoreboard with its hole cursor,
   and the recovery-episode accounting.  The only reader of
   [Tcp_params.sack].  Retransmissions go out through the caller's
   [resend]. *)

module Time = Uln_engine.Time

type t = {
  mutable sack_ok : bool; (* negotiated on the handshake *)
  mutable dupacks : int;
  sb : Sack.t;
  mutable cursor : Tcp_seq.t; (* hole-retransmission cursor *)
  mutable rto_rexmits : int;
  mutable fast_rexmits : int;
  mutable sack_rexmits : int;
  (* recovery-episode accounting (loss detection -> snd_una past the
     frontier at detection), the bench's recovery-time samples *)
  mutable rec_start : Time.t option;
  mutable rec_point : Tcp_seq.t;
  mutable rec_samples_us : float list; (* newest first *)
}

(* What recovery reads of the connection, live: every send sleeps for
   its CPU charge, and other threads may move the connection meanwhile. *)
type 'c view = {
  una : 'c -> Tcp_seq.t;
  nxt : 'c -> Tcp_seq.t;
  max : 'c -> Tcp_seq.t;
  mss : 'c -> int;
  buffered : 'c -> int; (* bytes in the send queue, from snd_una *)
  cc : 'c -> Cong_control.t;
  now : 'c -> Time.t;
  resend : 'c -> seq:Tcp_seq.t -> off:int -> len:int -> unit;
}

let create ~iss =
  { sack_ok = false;
    dupacks = 0;
    sb = Sack.create ();
    cursor = iss;
    rto_rexmits = 0;
    fast_rexmits = 0;
    sack_rexmits = 0;
    rec_start = None;
    rec_point = iss;
    rec_samples_us = [] }

let offer t (prm : Tcp_params.t) ~syn_ack = if syn_ack then t.sack_ok else prm.Tcp_params.sack
let negotiate t (prm : Tcp_params.t) peer_ok = if peer_ok && prm.Tcp_params.sack then t.sack_ok <- true

(* A recovery episode runs from loss detection (fast retransmit or RTO)
   until the cumulative ACK passes the send frontier at detection; the
   elapsed time is the bench's recovery-time sample. *)
let start t v c =
  if t.rec_start = None then begin
    t.rec_start <- Some (v.now c);
    t.rec_point <- v.max c
  end

(* SACK-based hole retransmission (RFC 6675 flavour): walk the unSACKed
   gaps below the highest SACKed edge, resending one MSS at a time while
   the estimated pipe (bytes still in the network) is below cwnd.  The
   cursor makes each hole eligible once per ACK event, so several
   distinct holes can be repaired within a single RTT.  Returns true if
   anything went out. *)
let sack_retransmit t v c =
  t.sack_ok
  &&
  match Sack.highest t.sb with
  | None -> false
  | Some high ->
      let upto = Tcp_seq.min high (v.nxt c) in
      if Tcp_seq.lt t.cursor (v.una c) then t.cursor <- v.una c;
      let sent = ref 0 in
      let stop = ref false in
      while not !stop do
        let pipe = Tcp_seq.diff (v.nxt c) (v.una c) - Sack.sacked_bytes t.sb + !sent in
        if pipe >= Cong_control.cwnd (v.cc c) then stop := true
        else
          match Sack.next_hole t.sb ~from:t.cursor ~upto with
          | None -> stop := true
          (* RFC 6675 IsLost: the hole only counts as lost — rather than
             still in flight between two freshly SACKed neighbours — once
             three segments' worth of data beyond it has been SACKed.
             The evidence is monotone in the hole's position, so the
             first ineligible hole ends the walk. *)
          | Some (l, _) when Sack.sacked_above t.sb l < 3 * v.mss c -> stop := true
          | Some (l, r) ->
              let off = Tcp_seq.diff l (v.una c) in
              let len = Stdlib.min (v.mss c) (Tcp_seq.diff r l) in
              let len = Stdlib.min len (v.buffered c - off) in
              if off < 0 || len <= 0 then stop := true
              else begin
                t.sack_rexmits <- t.sack_rexmits + 1;
                v.resend c ~seq:l ~off ~len;
                t.cursor <- Tcp_seq.add l len;
                sent := !sent + len
              end
      done;
      !sent > 0

(* Repair known holes pipe-limited if there is a scoreboard; otherwise
   the classic resend of the first unacked segment.  Moving the cursor
   past that segment keeps a later (pipe-unblocked) walk from resending
   the same bytes within the episode. *)
let repair t v c =
  if not (sack_retransmit t v c) then begin
    let len = Stdlib.min (v.mss c) (v.buffered c) in
    if len > 0 then begin
      t.fast_rexmits <- t.fast_rexmits + 1;
      v.resend c ~seq:(v.una c) ~off:0 ~len;
      let high = Tcp_seq.add (v.una c) len in
      if Tcp_seq.lt t.cursor high then t.cursor <- high
    end
  end

(* Fold any SACK blocks into the scoreboard: duplicate and advancing
   ACKs both carry them. *)
let sacked t ~una cc blocks =
  if t.sack_ok && blocks <> [] then begin
    Sack.add t.sb ~una blocks;
    Cong_control.on_sack cc
  end

(* One duplicate ACK; true when it triggered fast retransmit. *)
let dupack t v c ~flight =
  t.dupacks <- t.dupacks + 1;
  if Cong_control.on_dupack (v.cc c) ~count:t.dupacks ~flight ~snd_max:(v.max c) then begin
    start t v c;
    repair t v c;
    true
  end
  else begin
    (* Later dupacks refresh the scoreboard: keep filling holes. *)
    if t.dupacks > 3 then ignore (sack_retransmit t v c);
    false
  end

(* A cumulative ACK advanced snd_una. *)
let advanced t v c =
  let una = v.una c in
  t.dupacks <- 0;
  Sack.forward t.sb ~una;
  (* The episode ends when the ACK passes the frontier recorded at loss
     detection.  Only then does the hole cursor rewind: each hole is
     scoreboard-retransmitted at most once per episode (the cursor is
     the watermark), and a retransmission that was itself lost is
     rescued by the retransmit timer, not by resending while the first
     repair is still in flight. *)
  match t.rec_start with
  | Some t0 when Tcp_seq.ge una t.rec_point ->
      t.rec_samples_us <- Time.to_us_f (Time.diff (v.now c) t0) :: t.rec_samples_us;
      t.rec_start <- None;
      t.cursor <- una
  | _ -> ()

(* The retransmit timer fired; [resent]: go-back-N resent a segment
   below the frontier it rewound.  Both count as RTO retransmissions, as
   the engine's total does. *)
let timed_out t =
  t.rto_rexmits <- t.rto_rexmits + 1;
  t.dupacks <- 0

let resent t = t.rto_rexmits <- t.rto_rexmits + 1

(* The timeout rewinds the send frontier.  Reneging safety (RFC 2018
   §8): the peer may discard data it SACKed, so the scoreboard is
   forgotten and everything from snd_una is eligible again. *)
let rewound t v c =
  Sack.clear t.sb;
  t.cursor <- v.una c;
  if Tcp_seq.gt (v.nxt c) (v.una c) then start t v c
