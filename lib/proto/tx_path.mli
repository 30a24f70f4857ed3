(** The byte path: the send queue, the per-byte charges of every segment
    in and out, the GSO cut and the software pacing horizon.  The only
    reader of {!Tcp_params.t.zero_copy}, [fused_checksum], [tx_gso] and
    [pacing]. *)

type t
(** One connection's send queue and pacer. *)

type stats = {
  mutable gso_sends : int;
  mutable gso_fallbacks : int;
  mutable pacer_waits : int;
  mutable pacer_wait_us : float;
  pacer_hist : (int, int) Hashtbl.t;  (** log2(deferral in us) -> count *)
}
(** One engine's transmit counters (see {!Tcp.gso_sends} and friends). *)

val create : Tcp_params.t -> t
(** A zero-copy iovec chain or a copying socket buffer, per [zero_copy]. *)

val create_stats : unit -> stats
val length : t -> int

val peek : t -> off:int -> len:int -> Uln_buf.Mbuf.t
(** Bytes for a retransmission or probe; encode sums them. *)

val drop : t -> int -> unit
(** Acknowledged bytes leave; zero-copy release callbacks fire. *)

val clear : t -> unit
val push : t -> Uln_buf.View.t -> unit
(** Queue a copy of the caller's bytes. *)

val zero_copy : t -> bool

val push_owned : ?release:(unit -> unit) -> t -> Uln_buf.View.t -> unit
(** Queue the view by reference (zero-copy queues only). *)

val payload : t -> Tcp_params.t -> off:int -> len:int -> Uln_buf.Mbuf.t * int option
(** A data send's payload, with its running checksum when fused. *)

val charge_out : Proto_env.t -> Tcp_params.t -> Tcp_wire.segment -> unit
(** The payload and header passes of an outgoing segment. *)

val charge_in : Proto_env.t -> Tcp_params.t -> int -> unit
(** The verify and copy passes of an arriving segment (header included). *)

val segment_cap : Tcp_params.t -> mss:int -> usable:int -> at_frontier:bool -> int
(** Largest data send: one MSS, or with [tx_gso] whole MSS units up to
    the datagram limit and the peer's ACK cadence. *)

val gso_size : stats -> Tcp_params.t -> len:int -> mss:int -> int
(** The NIC cut size for a data send (0: per-segment), counted. *)

val pace_blocked : t -> Tcp_params.t -> Proto_env.t -> rtt_min_us:float -> bool
(** Frontier data must wait for the pacing horizon. *)

val hold : t -> stats -> Proto_env.t -> resume:(unit -> unit) -> unit
(** Arm the pacer shot (once) that runs [resume] at the horizon. *)

val paced : t -> Proto_env.t -> Tcp_params.t -> len:int -> mss:int -> cwnd:int -> rtt_min_us:float -> unit
(** Advance the horizon after a data send. *)

val stop_pacer : t -> unit
