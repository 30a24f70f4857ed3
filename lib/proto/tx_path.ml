(* The byte path: the send queue, the per-byte charges of every segment
   in and out, the GSO cut and the software pacing horizon.  The only
   reader of [zero_copy], [fused_checksum], [tx_gso] and [pacing]. *)

module Time = Uln_engine.Time
module Timers = Uln_engine.Timers
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Bytequeue = Uln_buf.Bytequeue
module Iovec = Uln_buf.Iovec
module Costs = Uln_host.Costs
module Cpu = Uln_host.Cpu

(* Longest single advance of the pacing horizon (see [paced]): bounds
   the damage of a delayed-ACK-inflated RTT sample while leaving real
   pacing gaps — fractions of an RTT per episode — untouched. *)
let pace_max_gap_us = 2000.

(* Largest logical segment one tx_gso episode may build: the IP
   total-length ceiling. *)
let gso_max = 65535

(* The send queue has two representations: the classic contiguous
   socket buffer (data is copied in on write and copied out per
   segment), and the zero-copy iovec chain (segments re-reference the
   application's buffers; a slot's release callback fires when its last
   byte is acknowledged).  Which one a connection gets is fixed at
   creation by [Tcp_params.zero_copy]. *)
type sendq = Q of Bytequeue.t | I of Iovec.t

type t = {
  q : sendq;
  mutable pace_next : Time.t; (* earliest instant the next data send may leave *)
  mutable pacer : Timers.handle option;
}

type stats = {
  mutable gso_sends : int; (* oversized logical segments handed to the NIC *)
  mutable gso_fallbacks : int; (* data sends that went per-segment with tx_gso on *)
  mutable pacer_waits : int; (* data sends the pacer deferred *)
  mutable pacer_wait_us : float; (* total deferral *)
  pacer_hist : (int, int) Hashtbl.t; (* log2(deferral in us) -> count *)
}

let create (prm : Tcp_params.t) =
  { q = (if prm.Tcp_params.zero_copy then I (Iovec.create ()) else Q (Bytequeue.create ()));
    pace_next = Time.zero;
    pacer = None }

let create_stats () =
  { gso_sends = 0; gso_fallbacks = 0; pacer_waits = 0; pacer_wait_us = 0.;
    pacer_hist = Hashtbl.create 8 }

let length t = match t.q with Q q -> Bytequeue.length q | I i -> Iovec.length i

(* Peek without a checksum (retransmissions, window probes): the encode
   path will sum the payload itself. *)
let peek t ~off ~len =
  match t.q with
  | Q q -> Mbuf.of_view (Bytequeue.peek q ~off ~len)
  | I i -> Iovec.peek i ~off ~len

let drop t n = match t.q with Q q -> Bytequeue.drop q n | I i -> Iovec.drop i n
let clear t = match t.q with Q q -> Bytequeue.clear q | I i -> Iovec.clear i

let push t data =
  match t.q with
  | Q q -> Bytequeue.push q data
  | I i ->
      (* The caller keeps ownership of [data] and may scribble on it
         immediately, so the chain gets a private snapshot.  The cost of
         this copy is the caller's problem (the socket layer charges the
         vm_remap fallback for non-pool buffers); the engine itself
         still runs the chain checksum-only. *)
      Iovec.push i (View.copy data)

let zero_copy t = match t.q with I _ -> true | Q _ -> false
let push_owned ?release t data =
  match t.q with
  | I i -> Iovec.push ?release i data
  | Q _ -> invalid_arg "Tx_path.push_owned: copying send queue"

(* The payload of a data send.  Fused, one pass copies out of the send
   buffer (or, zero-copy, walks the referenced chain) accumulating the
   checksum in the same loop — on the iovec chain a pure checksum walk
   over the referenced fragments, parity-correct across odd-length
   boundaries, no bytes moved; encode completes the sum from the header
   without re-reading the payload. *)
let payload t (prm : Tcp_params.t) ~off ~len =
  if prm.Tcp_params.fused_checksum then
    match t.q with
    | Q q ->
        let v, sum = Bytequeue.peek_sum q ~off ~len in
        (Mbuf.of_view v, Some sum)
    | I i ->
        let m, sum = Iovec.peek_sum i ~off ~len in
        (m, Some sum)
  else (peek t ~off ~len, None)

let pass env kind bytes =
  let c = env.Proto_env.costs in
  let per_byte_ns =
    match kind with
    | Cpu.Copy -> c.Costs.copy_per_byte_ns
    | Cpu.Checksum -> c.Costs.checksum_per_byte_ns
    | Cpu.Copy_checksum -> c.Costs.copy_checksum_per_byte_ns
  in
  Proto_env.charge_bytes ~kind env ~per_byte_ns bytes

(* An outgoing segment.  Payload bytes leave the send buffer through one
   of three passes: a checksum-only walk of the referenced iovec chain
   (zero-copy — nothing moves), one fused copy+checksum pass, or two
   separate passes (the unfused ablation).  The header is a
   checksum-only pass.  The historical engine charged the bare 20-byte
   header even on MSS-bearing SYNs; that stays for the legacy option
   shapes (<= 4 bytes) so the ablation baselines stay bit-identical, and
   the true header length is charged once the modern options
   (timestamps, SACK blocks) make it grow. *)
let charge_out env (prm : Tcp_params.t) (seg : Tcp_wire.segment) =
  let bytes = Mbuf.length seg.Tcp_wire.payload in
  if prm.Tcp_params.zero_copy then pass env Cpu.Checksum bytes
  else if prm.Tcp_params.fused_checksum then pass env Cpu.Copy_checksum bytes
  else begin
    pass env Cpu.Copy bytes;
    pass env Cpu.Checksum bytes
  end;
  let opt_len = Tcp_wire.opts_length seg.Tcp_wire.opts in
  pass env Cpu.Checksum (Tcp_wire.header_size + if opt_len > 4 then opt_len else 0)

(* An arriving segment of [len] bytes (header included).  Zero-copy, the
   frame stays in its loaned receive buffer: one checksum-only
   verification pass, and delivery hands the application a reference.
   Fused, one pass verifies the checksum and moves the payload toward
   the receive buffer.  Otherwise two passes: checksum the whole
   segment, then copy the payload. *)
let charge_in env (prm : Tcp_params.t) len =
  if prm.Tcp_params.zero_copy then pass env Cpu.Checksum len
  else if prm.Tcp_params.fused_checksum then pass env Cpu.Copy_checksum len
  else begin
    pass env Cpu.Checksum len;
    pass env Cpu.Copy (Stdlib.max 0 (len - Tcp_wire.header_size))
  end

(* Transmit segmentation offload: at the send frontier one oversized
   logical segment covers as many whole MSS units as the window allows;
   the NIC cuts the wire frames ({!Uln_net.Txq}).  Any sub-MSS tail is
   left for the next pass, so Nagle and FIN/PSH placement behave exactly
   as on the per-segment path, and a rewound snd_nxt (retransmission)
   always goes per-MSS. *)
let segment_cap (prm : Tcp_params.t) ~mss ~usable ~at_frontier =
  if prm.Tcp_params.tx_gso && at_frontier && usable >= 2 * mss then begin
    (* The offload packet is still one IP datagram: its headers bound
       the payload to the 16-bit total-length field.  It is further
       sized to the peer's ACK cadence (one episode, one ACK): frames
       past the cadence would sit in the peer's delayed-ACK timer,
       stalling the window a full delack period every round trip. *)
    let cap = Stdlib.min gso_max (0xffff - Ipv4.header_size - Tcp_wire.header_size) in
    let cap = Stdlib.min cap (Stdlib.max 2 prm.Tcp_params.ack_every * mss) in
    Stdlib.max mss (Stdlib.min cap usable / mss * mss)
  end
  else mss

(* The NIC cut size for a data send of [len] bytes (0: per-segment). *)
let gso_size stats (prm : Tcp_params.t) ~len ~mss =
  if len > mss then begin
    stats.gso_sends <- stats.gso_sends + 1;
    mss
  end
  else begin
    if prm.Tcp_params.tx_gso then stats.gso_fallbacks <- stats.gso_fallbacks + 1;
    0
  end

(* Software pacing: frontier data may leave no earlier than [pace_next]
   (advanced at the cwnd/minRTT rate on each send).  Retransmissions and
   pure ACKs are never delayed. *)
let pace_blocked t (prm : Tcp_params.t) env ~rtt_min_us =
  prm.Tcp_params.pacing && rtt_min_us > 0. && Time.( < ) (Proto_env.now env) t.pace_next

(* A blocked send: one pacer shot on the timer wheel runs [resume].
   The recorded deferral runs from the instant the send blocked, read
   before the scheduling charge: [pace_blocked] has just seen that
   instant short of [pace_next], so it is positive even when the charge
   queues behind other work on the CPU.  The shot itself is armed from
   after the charge. *)
let hold t stats env ~resume =
  if t.pacer = None then begin
    let blocked_at = Proto_env.now env in
    Proto_env.charge env env.Proto_env.costs.Costs.pacer_sched;
    let delay = Time.diff t.pace_next (Proto_env.now env) in
    let us = Time.to_us_f (Time.diff t.pace_next blocked_at) in
    stats.pacer_waits <- stats.pacer_waits + 1;
    stats.pacer_wait_us <- stats.pacer_wait_us +. us;
    let bucket =
      let rec go b n = if n <= 1 then b else go (b + 1) (n lsr 1) in
      go 0 (Stdlib.max 1 (int_of_float us))
    in
    Hashtbl.replace stats.pacer_hist bucket
      (1 + Option.value ~default:0 (Hashtbl.find_opt stats.pacer_hist bucket));
    t.pacer <-
      Some
        (Timers.arm env.Proto_env.timers delay (fun () ->
             t.pacer <- None;
             resume ()))
  end

(* Advance the pacing horizon by this send's serialization time at twice
   the cwnd-per-minRTT rate.  The factor of two is the usual slow-start
   headroom, so the pacer spreads bursts without ever becoming the
   flow's rate limiter; the minimum RTT (never the smoothed one, which
   tracks queueing delay and delayed-ACK artifacts) keeps the feedback
   negative.  Each advance is still capped — one early minimum taken
   through a delack wait could otherwise stall the flow for tens of
   milliseconds. *)
let paced t env (prm : Tcp_params.t) ~len ~mss ~cwnd ~rtt_min_us =
  if prm.Tcp_params.pacing && rtt_min_us > 0. then begin
    let cw = Stdlib.max mss cwnd in
    let gap_us =
      Stdlib.min pace_max_gap_us (float_of_int len *. rtt_min_us /. (2. *. float_of_int cw))
    in
    let now = Proto_env.now env in
    t.pace_next <- Time.add (Time.max now t.pace_next) (Time.of_us_f gap_us)
  end

let stop_pacer t =
  match t.pacer with
  | None -> ()
  | Some h ->
      Timers.disarm h;
      t.pacer <- None
