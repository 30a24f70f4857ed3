(** Shared-medium link model.

    Models serialization precisely: a frame occupies the medium for
    [(per-frame overhead + max(min_frame, size)) * 8 / rate] and frames
    queue FIFO behind the transmitter.  Ethernet is half-duplex (one
    frame on the segment at a time, in either direction); AN1 is a
    full-duplex point-to-point segment.

    A station receives the frames other stations transmit to its
    address or to broadcast: the link does the address filtering a NIC
    does in hardware.  [set_monitor] taps every frame on the wire. *)

type t

type station
(** An attachment point. *)

val ethernet : Uln_engine.Sched.t -> t
(** 10 Mb/s, 18 bytes of header+FCS, 8 bytes preamble + 12 bytes
    inter-frame gap, 46-byte minimum payload, half-duplex. *)

val an1 : Uln_engine.Sched.t -> t
(** 100 Mb/s point-to-point AN1 segment, full-duplex. *)

val custom :
  Uln_engine.Sched.t ->
  name:string ->
  rate_mbps:int ->
  overhead_bytes:int ->
  min_payload:int ->
  propagation:Uln_engine.Time.span ->
  duplex:bool ->
  t

val name : t -> string
val rate_mbps : t -> int

val attach : t -> addr:Uln_addr.Mac.t -> (Frame.t -> unit) -> station
(** Join the segment; the callback fires (in event context) for every
    frame another station transmits to [addr] or to broadcast. *)

val transmit : t -> station -> Frame.t -> on_done:(unit -> unit) -> unit
(** Queue a frame for transmission.  [on_done] fires when serialization
    completes (the NIC can then reuse its transmit buffer). *)

val set_fault : t -> Fault.t -> unit
(** Install a fault model (applied per frame at delivery). *)

val set_monitor : t -> (Uln_engine.Time.t -> Frame.t -> unit) -> unit
(** Attach a passive tap: called once per frame at the end of its
    serialization (before fault injection) — the snoop/tcpdump hook. *)

val frame_time : t -> int -> Uln_engine.Time.span
(** [frame_time t payload_bytes] is the serialization time for a frame
    with that payload. *)

val saturation_mbps : t -> int -> float
(** [saturation_mbps t payload_bytes] is the maximum achievable payload
    throughput with back-to-back frames of that size — the "standalone
    program, no operating system" baseline of Table 1. *)

val bytes_sent : t -> int
