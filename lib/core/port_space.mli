(** Which port to hand out next: round robin over a range or one
    residue class of it, or the first aligned block, skipping the ports
    a caller-supplied test says are held (each allocator keeps its own
    table).  Running out is a value, never an exception. *)

type t
type error = Exhausted

val create : ?stride:int -> ?residue:int -> ?first:int -> lo:int -> hi:int -> unit -> t
(** A cursor over the ports [p] of [lo..hi] with
    [p mod stride = residue] (default: all of them), starting at [first]
    (default: the lowest of them). *)

val take : t -> held:(int -> bool) -> (int, error) result
(** The first port from the cursor on, wrapping to the lowest, that is
    not [held]; the cursor moves past it.  [Exhausted], with the cursor
    unmoved, when every port is held. *)

val find_block : lo:int -> hi:int -> size:int -> held:(int -> bool) -> (int, error) result
(** The lowest [base = lo + k * size] with [base..base + size - 1]
    inside [lo..hi] and no port of it [held]. *)
