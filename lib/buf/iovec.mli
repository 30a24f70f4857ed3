(** Scatter-gather byte queue: a chain of referenced views.

    The zero-copy counterpart of {!Bytequeue}.  Pushing enqueues the
    caller's view by reference — no copy — and may attach a release
    callback that fires exactly once when the slot's last byte is
    dropped (acked) or the queue is cleared.  Peeks return {!Mbuf.t}
    chains of sub-views over the same backing buffers, so
    retransmissions re-reference rather than re-copy, and the checksum
    partial sum composes across odd-length fragment boundaries. *)

type t

val create : unit -> t

val length : t -> int
(** Unconsumed bytes queued. *)

val is_empty : t -> bool

val slot_count : t -> int
(** Number of fragments currently chained (partially consumed head
    counts as one). *)

val push : ?release:(unit -> unit) -> t -> View.t -> unit
(** Append [v] by reference.  [release] fires once when the slot is
    fully consumed by {!drop} (or on {!clear}).  A zero-length view is
    not stored; its [release] fires immediately. *)

val peek : t -> off:int -> len:int -> Mbuf.t
(** Sub-view chain over bytes [off, off+len) — no copying.
    @raise View.Bounds if the range exceeds the queue. *)

val peek_sum : t -> off:int -> len:int -> Mbuf.t * int
(** [peek] plus the unfolded 16-bit one's-complement partial sum of the
    range, composed across fragments (equal to [View.sum16] over the
    flattened bytes, including odd-length fragment boundaries). *)

val drop : t -> int -> unit
(** Consume [n] bytes from the front, firing the release of every slot
    that becomes fully consumed.
    @raise View.Bounds if [n] exceeds the queue length. *)

val clear : t -> unit
(** Drop everything, firing all releases. *)
