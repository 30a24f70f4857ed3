(* RTT estimation: Jacobson's smoothed estimator fed either by the
   classic single timer under Karn's rule or, once RFC 1323 timestamps
   are negotiated, by the echo on every ACK — together with the
   retransmit backoff, [ts_recent] and PAWS.  The only reader of
   [Tcp_params.timestamps]. *)

module Time = Uln_engine.Time

type t = {
  mutable srtt_us : float;
  mutable rttvar_us : float;
  mutable rtt_min_us : float;
  mutable rto : Time.span;
  mutable backoff : int;
  mutable timing : (Tcp_seq.t * Time.t) option;
  mutable ts_ok : bool;
  mutable ts_recent : int;
}

(* Retransmissions of one segment before the connection gives up. *)
let max_backoff = 12

let create (prm : Tcp_params.t) =
  { srtt_us = 0.;
    rttvar_us = 0.;
    rtt_min_us = 0.;
    rto = prm.Tcp_params.initial_rto;
    backoff = 0;
    timing = None;
    ts_ok = false;
    ts_recent = 0 }

(* RFC 1323 timestamp clock: simulated milliseconds, mod 2^32. *)
let ts_clock now = int_of_float (Time.to_ms_f (Time.diff now Time.zero)) land 0xFFFFFFFF

let sample t (prm : Tcp_params.t) sample_us =
  (* The pacer's rate base: the smallest RTT ever observed.  The
     smoothed estimate tracks queueing delay, and pacing from it is a
     positive feedback loop — queues inflate srtt, the pacer slows
     down, releases bunch behind the timer, queues grow.  The minimum
     is the propagation floor the queue sits on. *)
  if t.rtt_min_us = 0. || sample_us < t.rtt_min_us then t.rtt_min_us <- sample_us;
  if t.srtt_us = 0. then begin
    t.srtt_us <- sample_us;
    t.rttvar_us <- sample_us /. 2.
  end
  else begin
    let err = sample_us -. t.srtt_us in
    t.srtt_us <- t.srtt_us +. (err /. 8.);
    t.rttvar_us <- t.rttvar_us +. ((Float.abs err -. t.rttvar_us) /. 4.)
  end;
  let rto = Time.of_us_f (t.srtt_us +. (4. *. t.rttvar_us)) in
  t.rto <- Stdlib.max prm.Tcp_params.min_rto (Stdlib.min prm.Tcp_params.max_rto rto);
  t.backoff <- 0

(* Karn: a retransmission ends any timing in progress. *)
let retransmitted t = t.timing <- None

let sent t ~seq ~snd_max ~now =
  if t.timing = None && Tcp_seq.ge seq snd_max then t.timing <- Some (seq, now)

(* An ACK advanced snd_una.  A timestamp echo measures every ACK
   (including ones for retransmitted data — the echoed value is ours);
   without timestamps, the single timer under Karn's rule.  Either way
   the backoff collapses: the path is delivering again. *)
let acked t prm ~ack ~ts ~now =
  (match ts with
  | Some (_, tsecr) when t.ts_ok && tsecr <> 0 ->
      t.timing <- None;
      let sample_ms = (ts_clock now - tsecr) land 0xFFFFFFFF in
      if sample_ms < 0x80000000 then sample t prm (float_of_int sample_ms *. 1000.)
  | _ -> (
      match t.timing with
      | Some (tseq, started) when Tcp_seq.gt ack tseq ->
          t.timing <- None;
          sample t prm (Time.to_us_f (Time.diff now started))
      | _ -> ()));
  t.backoff <- 0

let syn_acked t = t.backoff <- 0

let rexmt_delay t (prm : Tcp_params.t) =
  Stdlib.min (Time.span_scale t.rto (1 lsl Stdlib.min t.backoff 6)) prm.Tcp_params.max_rto

let persist_delay t = Time.span_scale t.rto (1 lsl Stdlib.min t.backoff 4)

(* The retransmit timer fired: back off, stop timing; false once the
   segment has been retried [max_backoff] times. *)
let timed_out t =
  t.backoff <- t.backoff + 1;
  t.timing <- None;
  t.backoff <= max_backoff

let probed t = t.backoff <- Stdlib.min (t.backoff + 1) 10

(* PAWS (RFC 1323 §4.2): a timestamped segment whose TSval is older than
   the newest in-window timestamp is a stale duplicate from a previous
   window — the caller acknowledges and drops it before any sequence
   processing.  An admitted in-window segment refreshes [ts_recent]. *)
let admit t (seg : Tcp_wire.segment) ~rcv_nxt =
  match seg.Tcp_wire.opts.Tcp_wire.ts with
  | Some (tsval, _) when t.ts_ok ->
      if (not seg.Tcp_wire.flags.Tcp_wire.rst) && Tcp_seq.diff tsval t.ts_recent < 0 then false
      else begin
        if Tcp_seq.le seg.Tcp_wire.seq rcv_nxt && Tcp_seq.diff tsval t.ts_recent >= 0 then
          t.ts_recent <- tsval;
        true
      end
  | _ -> true

(* Whether a segment's timestamp would pass PAWS unchanged: the
   receive merge only absorbs such segments. *)
let fresh t ts =
  match ts with
  | Some (tsval, _) -> t.ts_ok && Tcp_seq.diff tsval t.ts_recent >= 0
  | None -> not t.ts_ok

(* The TS option of an outgoing segment.  A SYN offers timestamps when
   the switch is on; a SYN-ACK and every later segment carry them only
   once negotiated. *)
let option t (prm : Tcp_params.t) ~offer ~now =
  if t.ts_ok || (offer && prm.Tcp_params.timestamps) then Some (ts_clock now, t.ts_recent)
  else None

let negotiate t (prm : Tcp_params.t) peer_ts =
  match peer_ts with
  | Some (tsval, _) when prm.Tcp_params.timestamps ->
      t.ts_ok <- true;
      t.ts_recent <- tsval
  | _ -> ()
