(** Mutual exclusion for simulated threads (C-threads style).

    Cooperative scheduling makes data races impossible between yield
    points, but protocol code still needs critical sections that span
    blocking operations (a connection table update around a CPU charge,
    for instance). *)

type t

val create : ?name:string -> ?sched:Sched.t -> unit -> t
(** [~name] registers the lock for {!Semaphore.registered} (with kind
    ["mutex"]); [~sched] enables contended-wait timing. *)

val stats : t -> Semaphore.stats
(** Acquisition/contention counters of the underlying semaphore. *)

val lock : ?site:string -> t -> unit
(** Block until the mutex is available, then take it.  When the
    {!Lock_order} sanitizer is enforcing and the mutex is named, the
    acquire is rank-checked {e before} blocking ([~site] labels the
    acquisition site in any violation report).
    @raise Lock_order.Order_violation on a rank inversion. *)

val unlock : t -> unit
(** Release; wakes the longest-waiting locker.
    @raise Invalid_argument if the mutex is not held. *)

val try_lock : ?site:string -> t -> bool

val with_lock : ?site:string -> t -> (unit -> 'a) -> 'a
(** Run under the lock, releasing on normal return or exception. *)
