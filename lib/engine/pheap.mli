(** Array-backed binary min-heap with integer keys and FIFO tie-breaking.

    Used as the simulator's event queue: O(log n) insert and
    delete-min, with no allocation per operation beyond an occasional
    doubling of the backing arrays.  Entries with equal keys pop in
    insertion order (by the caller-supplied sequence number), which keeps
    simulations deterministic.  A popped slot is overwritten with the
    heap's [dummy], so the heap never keeps a popped value alive. *)

type 'a t

val create : dummy:'a -> 'a t
(** A fresh empty heap.  [dummy] fills unused slots; it is never
    returned. *)

val size : 'a t -> int
(** Number of entries currently in the heap. *)

val is_empty : 'a t -> bool
(** [is_empty t] is [size t = 0]. *)

val insert : 'a t -> key:int -> seq:int -> 'a -> unit
(** [insert t ~key ~seq v] adds [v] with priority [key].  [seq] must be
    strictly increasing across insertions to guarantee FIFO order among
    equal keys. *)

val min_key : 'a t -> int
(** Smallest key present, without removing it.
    @raise Invalid_argument if the heap is empty. *)

val pop : 'a t -> 'a
(** Remove the minimum entry and return its value (read {!min_key}
    first for its key).
    @raise Invalid_argument if the heap is empty. *)
