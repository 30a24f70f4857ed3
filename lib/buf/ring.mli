(** Bounded FIFO rings.

    The shared-memory packet rings between the network I/O module and a
    protocol library (and the AN1 controller's per-BQI host-buffer rings)
    are bounded single-producer/single-consumer queues: pushing into a
    full ring fails — the producer (a NIC) then drops the packet, exactly
    like real receive-ring overflow. *)

type 'a t

val create : capacity:int -> 'a t
(** A ring holding at most [capacity] entries. *)

val capacity : 'a t -> int
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> 'a -> bool
(** [push t v] enqueues [v]; [false] (and no change) when full. *)

val pop : 'a t -> 'a option
(** Dequeue the oldest entry. *)

val peek : 'a t -> 'a option

val drops : 'a t -> int
(** Number of failed pushes since creation (overflow count). *)

val clear : 'a t -> unit
