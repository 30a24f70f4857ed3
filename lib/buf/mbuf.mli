(** Mbuf-style packet buffers.

    A packet is a chain of {!View.t} segments.  Protocol layers prepend
    headers and strip them without copying payload bytes, mirroring the
    BSD mbuf discipline the paper's stack inherits. *)

type t

val empty : t
val of_view : View.t -> t
val of_string : string -> t

val length : t -> int
(** Total payload bytes in the chain. *)

val segments : t -> View.t list
(** The chain, front first. *)

val segment_count : t -> int

val prepend : View.t -> t -> t
(** [prepend hdr pkt] adds a header segment in front (no copy). *)

val append : t -> View.t -> t
(** [append pkt v] adds a trailing segment (no copy). *)

val concat : t -> t -> t

val drop : t -> int -> t
(** [drop pkt n] removes the first [n] bytes (splitting a segment if
    needed; no byte copying).
    @raise View.Bounds if [n > length pkt]. *)

val take : t -> int -> t
(** [take pkt n] keeps only the first [n] bytes.
    @raise View.Bounds if [n > length pkt]. *)

val split : t -> int -> t * t
(** [split pkt n] is [(take pkt n, drop pkt n)]. *)

val flatten : t -> View.t
(** A single contiguous view of the whole packet.  Copies unless the
    chain is already a single segment. *)

val to_string : t -> string

val blit : t -> int -> View.t -> int -> int -> unit
(** [blit pkt off dst doff len] copies bytes [off, off+len) of the chain
    straight from its segments into [dst] — no intermediate flatten.
    @raise View.Bounds if either range is out of bounds. *)

val get_uint8 : t -> int -> int
(** Random access across segment boundaries. *)

val fold_segments : ('a -> View.t -> 'a) -> 'a -> t -> 'a

val pp : Format.formatter -> t -> unit
