(** Fixed-size buffer pools.

    Models the pinned, shared packet-buffer memory the registry server
    and network I/O module create at connection setup: a bounded set of
    equally sized buffers, allocated and returned without copying.
    Exhaustion is visible to the caller (as it is to a NIC ring). *)

type t

val create : count:int -> size:int -> t
(** [create ~count ~size] builds a pool of [count] buffers of [size]
    bytes each. *)

val size : t -> int
(** Buffer size in bytes. *)

val capacity : t -> int
(** Total buffer count. *)

val available : t -> int
(** Buffers currently free. *)

val in_use : t -> int

val exhausted : t -> int
(** How many [alloc] calls found the pool empty (and returned [None]).
    A rising counter is the ring-overrun signal a driver would read off
    its NIC statistics. *)

val alloc : t -> View.t option
(** Take a buffer; [None] when the pool is exhausted.  The returned view
    covers the full buffer.  A buffer's memory is allocated, zero-filled,
    the first time it is handed out; a recycled buffer keeps whatever its
    previous holder left in it. *)

val free : t -> View.t -> unit
(** Return a buffer to the pool.
    @raise Invalid_argument if the view does not belong to this pool or
    is already free (double free). *)

val owns : t -> View.t -> bool
(** Whether the view's backing store belongs to this pool. *)
