(** One of a host's processors, modelled as a FIFO time resource.

    Work anywhere on a host — application code, protocol library,
    servers, kernel, interrupt handlers — consumes time on the
    processor it was steered to, so CPU contention between sender-side
    and receiver-side processing arises naturally.  The original
    DECstation testbed is the one-CPU special case ([Machine] defaults
    to a single processor); an SMP machine is simply N of these under
    the same event loop, each an independent FIFO timeline.

    Two interfaces: {!use} for code running in a simulated thread
    (blocks the thread for its CPU occupancy), and {!use_async} for
    event-context code like interrupt handlers (schedules a continuation
    at the instant the work completes). *)

type t

type data_kind = Copy | Checksum | Copy_checksum
(** Categories of per-byte data-movement work, for the accounting that
    proves where payload bytes were touched. *)

val create : ?id:int -> Uln_engine.Sched.t -> name:string -> t
(** [~id] is the processor's index within its machine (default 0). *)

val name : t -> string
val id : t -> int

val use : t -> Uln_engine.Time.span -> unit
(** Consume CPU from a thread: waits for the processor, occupies it for
    the span, and returns when done.  Zero/negative spans are free. *)

val use_async : t -> Uln_engine.Time.span -> (unit -> unit) -> unit
(** Consume CPU from event context; the continuation runs when the work
    completes. *)

val note_data : t -> data_kind -> Uln_engine.Time.span -> unit
(** Attribute [span] (already charged via {!use}/{!use_async}) to a
    data-movement category. *)

val copy_ns : t -> int
(** Nanoseconds of plain copy passes ([copy_per_byte_ns]) so far.  With
    the zero-copy path on, a userlib bulk transfer keeps this at 0. *)

val checksum_ns : t -> int
(** Nanoseconds of standalone checksum passes so far. *)

val copy_checksum_ns : t -> int
(** Nanoseconds of fused copy+checksum passes so far. *)

val note_migration : t -> Uln_engine.Time.span -> unit
(** Count one cross-CPU handoff onto this processor and attribute
    [span] ns of cache-affinity penalty to it (the span itself is
    charged by the caller via {!use}/{!use_async}). *)

val migrations : t -> int
(** Cross-CPU handoffs steered onto this processor so far. *)

val migrate_ns : t -> int
(** Total cache-affinity penalty time attributed to this processor. *)

val busy_ns : t -> int
(** Total CPU time consumed so far (for utilization accounting). *)

val utilization : t -> Uln_engine.Time.t -> float
(** [utilization t now] is busy time / elapsed time in [0,1]. *)
