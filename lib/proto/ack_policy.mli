(** ACK policy: the delayed-ACK cadence ({!Tcp_params.t.ack_every},
    [delack]) and the rx_coalesce receive merge, with [burst_ack]
    lifting its cadence cap.  The only reader of [rx_coalesce] and
    [burst_ack].  It reaches the connection ['c] only through {!hooks}.
    Only this module writes the fields below. *)

type t = {
  mutable unacked_segs : int;
  mutable ack_now : bool;  (** an ACK is owed now *)
  mutable delack : Uln_engine.Timers.handle option;
}
(** One connection's ACK state. *)

type 'c run
(** An in-progress merge of one connection's in-order segments. *)

type 'c hooks = {
  acks : 'c -> t;
  plain : 'c -> Tcp_wire.segment -> bool;  (** may join a run *)
  in_order : 'c -> Tcp_wire.segment -> bool;
      (** a plain segment, next in order with nothing queued out of
          order: it may start a run *)
  room : 'c -> int;  (** the receive window *)
  alive : 'c -> bool;  (** neither closed nor handed off *)
  process : 'c -> Tcp_wire.segment -> unit;  (** the per-packet input path *)
  expired : 'c -> unit;  (** a delayed ACK fell due: send it *)
}

type 'c rx = {
  prm : Tcp_params.t;
  env : Proto_env.t;
  hooks : 'c hooks;
  mutable in_burst : int;  (** open {!begin_burst} brackets *)
  mutable run : 'c run option;
  mutable segs : int;  (** wire segments the segment being processed stands for *)
  mutable merged : int;  (** segments absorbed beyond the first of a run *)
  mutable flushes : int;  (** merged runs handed to the input path *)
  mutable elided : int;  (** ACKs burst_ack suppressed *)
}
(** One engine's receive merge. *)

val create : unit -> t
val create_rx : Tcp_params.t -> Proto_env.t -> 'c hooks -> 'c rx

val sent : t -> unit
(** A segment went out carrying the cumulative ACK: nothing is owed. *)

val force : t -> unit
(** The protocol owes an ACK now. *)

val stop_delack : t -> unit

val schedule : 'c rx -> 'c -> unit
(** In-order data arrived: count it toward the cadence (a merged run
    counts its wire segments) or arm the delayed-ACK timer. *)

val input : 'c rx -> 'c -> Tcp_wire.segment -> unit
(** A decoded segment for the connection inside a burst: absorb it into
    the open run, start a run, or flush and take the per-packet path. *)

val begin_burst : 'c rx -> unit
(** No-op unless [rx_coalesce]. *)

val end_burst : 'c rx -> unit
(** Close a bracket and flush the open run. *)
