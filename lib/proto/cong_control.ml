(* Congestion control, extracted from the inline cwnd/ssthresh/dupack
   arithmetic that used to live across tcp.ml.  [`Reno] reproduces that
   arithmetic verbatim (the same expressions in the same order), so with
   the [cong_control] switch at its default the wire behaviour is
   byte-identical to the pre-extraction engine — the differential oracle
   the other algorithms are tested against.

   The module owns only the window variables.  The connection keeps the
   dupack counter, decides when an ACK is a duplicate, performs the
   retransmissions this module requests, and computes [flight]
   (min(send window, snd_nxt - snd_una), exactly as the historical
   code did at each call site). *)

type algo = [ `Reno | `Newreno | `Cubic ]

(* CUBIC constants (RFC 8312): multiplicative decrease beta = 0.7,
   growth coefficient C = 0.4, window expressed in MSS units, time in
   seconds since the congestion epoch began. *)
let cubic_beta = 0.7
let cubic_c = 0.4

type t = {
  algo : algo;
  initial_segments : int;
  mutable mss : int;
  mutable cwnd : int;
  mutable ssthresh : int;
  mutable max_cwnd : int;
  (* NewReno/Cubic fast-recovery state (RFC 6582) *)
  mutable in_recovery : bool;
  mutable recover : Tcp_seq.t;
  (* Cubic epoch *)
  mutable w_max : float;  (* cwnd (bytes) when the last loss struck *)
  mutable epoch_start_us : float;  (* < 0 when no epoch is open *)
  mutable k : float;
}

let create algo ~mss ~initial_segments =
  { algo;
    initial_segments;
    mss;
    cwnd = initial_segments * mss;
    ssthresh = 65535;
    max_cwnd = 65535;
    in_recovery = false;
    recover = 0;
    w_max = 0.;
    epoch_start_us = -1.;
    k = 0. }

(* MSS (re)negotiated on the handshake: restart the initial window from
   the agreed segment size, as the inline code did after option
   parsing. *)
let reinit t ~mss =
  t.mss <- mss;
  t.cwnd <- t.initial_segments * mss

(* The active opener learns the peer's MSS from the SYN-ACK but keeps
   the window it already had — the historical engine never reset cwnd on
   that path. *)
let set_mss t mss = t.mss <- mss

(* Called when window scaling lifts the 64 KB ceiling.  The initial
   ssthresh should be "arbitrarily high" (RFC 5681); the historical
   65535 would end slow start at the old ceiling, so raise it along
   with the cap — unless loss already lowered it, which we keep. *)
let set_max_cwnd t limit =
  let limit = Stdlib.max limit 65535 in
  if t.ssthresh = t.max_cwnd then t.ssthresh <- limit;
  t.max_cwnd <- limit
let cwnd t = t.cwnd
let ssthresh t = t.ssthresh
let recovery_point t = t.recover
let algo t = t.algo

let name t =
  match t.algo with `Reno -> "reno" | `Newreno -> "newreno" | `Cubic -> "cubic"

let reset_epoch t =
  t.epoch_start_us <- -1.;
  t.k <- 0.

let enter_loss_epoch t =
  t.w_max <- Float.max t.w_max (float_of_int t.cwnd);
  reset_epoch t

(* --- duplicate ACKs --------------------------------------------------- *)

(* Returns true when the caller must fast-retransmit at snd_una now
   (count just reached the threshold). *)
let on_dupack t ~count ~flight ~snd_max =
  match t.algo with
  | `Reno ->
      if count = 3 then begin
        t.ssthresh <- Stdlib.max (2 * t.mss) (flight / 2);
        t.cwnd <- t.ssthresh + (3 * t.mss);
        true
      end
      else begin
        if count > 3 then t.cwnd <- t.cwnd + t.mss;
        false
      end
  | `Newreno | `Cubic ->
      if count = 3 && not t.in_recovery then begin
        t.in_recovery <- true;
        t.recover <- snd_max;
        (if t.algo = `Cubic then begin
           t.w_max <- float_of_int (Stdlib.max t.cwnd flight);
           reset_epoch t;
           t.ssthresh <-
             Stdlib.max (2 * t.mss) (int_of_float (cubic_beta *. float_of_int flight))
         end
         else t.ssthresh <- Stdlib.max (2 * t.mss) (flight / 2));
        t.cwnd <- t.ssthresh + (3 * t.mss);
        true
      end
      else begin
        if count > 3 && t.in_recovery then t.cwnd <- t.cwnd + t.mss;
        false
      end

(* --- SACK arrival ------------------------------------------------------ *)

(* Under SACK recovery the scoreboard's pipe accounting replaces the
   per-dupack window inflation: the sender knows exactly how many bytes
   have left the network, so the window stays at its post-loss value and
   transmission is gated on pipe < cwnd instead.  Nothing to adjust
   here; the hook exists so a proportional-rate-reduction policy has a
   seam to live in. *)
let on_sack _t = ()

(* --- cumulative ACK ---------------------------------------------------- *)

(* Congestion-avoidance step shared by all algorithms: one MSS per RTT,
   approximated per ACK. *)
let reno_increment t =
  if t.cwnd < t.ssthresh then t.mss else Stdlib.max 1 (t.mss * t.mss / t.cwnd)

let cubic_increment t ~now_us =
  if t.cwnd < t.ssthresh then t.mss
  else begin
    if t.epoch_start_us < 0. then begin
      t.epoch_start_us <- now_us;
      if t.w_max < float_of_int t.cwnd then t.w_max <- float_of_int t.cwnd;
      let wmax_seg = t.w_max /. float_of_int t.mss in
      t.k <- Float.cbrt (wmax_seg *. (1. -. cubic_beta) /. cubic_c)
    end;
    let elapsed = (now_us -. t.epoch_start_us) /. 1e6 in
    let d = elapsed -. t.k in
    let target_seg = (cubic_c *. (d *. d *. d)) +. (t.w_max /. float_of_int t.mss) in
    let target = int_of_float (target_seg *. float_of_int t.mss) in
    let cubic = if target > t.cwnd then Stdlib.min t.mss (target - t.cwnd) else 0 in
    (* Never slower than the Reno step (TCP-friendly region). *)
    Stdlib.max cubic (Stdlib.max 1 (t.mss * t.mss / t.cwnd))
  end

(* Returns true when the caller must retransmit the first unacked hole
   now: the NewReno partial-ACK rule (the ACK advanced but stopped short
   of [recover], so another segment of the same loss window is missing). *)
let on_ack t ~ack ~acked ~dupacks ~flight ~now_us =
  match t.algo with
  | `Reno ->
      (* Verbatim from the historical process_ack. *)
      if dupacks >= 3 then t.cwnd <- Stdlib.max t.mss t.ssthresh
      else if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd + t.mss
      else t.cwnd <- t.cwnd + Stdlib.max 1 (t.mss * t.mss / t.cwnd);
      t.cwnd <- Stdlib.min t.cwnd t.max_cwnd;
      false
  | `Newreno | `Cubic ->
      if t.in_recovery then begin
        if Tcp_seq.ge ack t.recover then begin
          (* Full ACK: leave recovery, deflate to the flight-bounded
             slow-start threshold (RFC 6582 §3.2 step 1). *)
          t.in_recovery <- false;
          t.cwnd <-
            Stdlib.min t.max_cwnd
              (Stdlib.max t.mss (Stdlib.min t.ssthresh (flight + t.mss)));
          false
        end
        else begin
          (* Partial ACK: deflate by the amount acked, re-inflate by one
             segment, and retransmit the next hole without waiting for
             more dupacks. *)
          t.cwnd <- Stdlib.max t.mss (t.cwnd - acked + t.mss);
          true
        end
      end
      else begin
        let incr =
          match t.algo with
          | `Cubic -> cubic_increment t ~now_us
          | _ -> reno_increment t
        in
        t.cwnd <- Stdlib.min (t.cwnd + incr) t.max_cwnd;
        false
      end

(* --- retransmission timeout ------------------------------------------- *)

let on_rto t ~flight =
  (match t.algo with
  | `Reno | `Newreno -> t.ssthresh <- Stdlib.max (2 * t.mss) (flight / 2)
  | `Cubic ->
      enter_loss_epoch t;
      t.ssthresh <-
        Stdlib.max (2 * t.mss) (int_of_float (cubic_beta *. float_of_int flight)));
  t.cwnd <- t.mss;
  t.in_recovery <- false

(* --- restart after idle ------------------------------------------------ *)

(* Congestion-window validation (RFC 2861-style): an ACK clock that has
   died tells us nothing about the path any more, so restart from the
   initial window.  The historical engine never did this, so [`Reno]
   keeps it a no-op — the extracted oracle must stay bit-for-bit. *)
let on_idle t =
  match t.algo with
  | `Reno -> ()
  | `Newreno | `Cubic ->
      t.cwnd <- Stdlib.min t.cwnd (Stdlib.max t.mss (t.initial_segments * t.mss));
      reset_epoch t
