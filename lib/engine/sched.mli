(** Discrete-event scheduler with lightweight cooperative threads.

    The scheduler owns the simulated clock.  Work is expressed either as
    plain events ([at]/[after]) or as threads ([spawn]) implemented with
    OCaml effect handlers.  A thread runs until it blocks — on a timer
    ({!sleep}), a {!Semaphore}, a {!Mailbox}, or a custom {!suspend} — at
    which point control returns to the scheduler, which advances the
    clock to the next pending event.

    Everything is single-threaded and deterministic: events scheduled for
    the same instant fire in the order they were scheduled. *)

type t
(** A scheduler instance (clock + event queue + run queue). *)

type waker = unit -> unit
(** A one-shot callback that makes a suspended thread runnable again.
    Calling a waker twice is harmless: the second call is ignored. *)

exception Deadlock of string
(** Raised by {!block_on} when the simulation runs out of events before
    the awaited thread completes. *)

val create : unit -> t
(** A fresh scheduler with the clock at {!Time.zero}. *)

val id : t -> int
(** A process-unique identity, stable for the scheduler's lifetime (for
    hashing a scheduler without reading its mutable state). *)

val now : t -> Time.t
(** Current simulated time. *)

val at : t -> Time.t -> (unit -> unit) -> unit
(** [at t when_ f] schedules [f] to run at instant [when_] (or now, if
    [when_] is in the past). *)

val after : t -> Time.span -> (unit -> unit) -> unit
(** [after t d f] schedules [f] to run [d] from now. *)

val current_name : t -> string option
(** The [~name] of the thread currently executing, or [None] when
    control is in the scheduler itself or in a plain [at]/[after] event.
    Diagnostic identity only (the lock-order sanitizer keys held-lock
    stacks on it); threads spawned with the same name share a label. *)

val spawn : t -> ?name:string -> (unit -> unit) -> unit
(** [spawn t f] creates a thread running [f].  It starts when the
    scheduler next regains control; exceptions escaping [f] abort the
    simulation and are re-raised from {!run}. *)

val suspend : (waker -> unit) -> unit
(** [suspend register] blocks the calling thread; [register] receives the
    waker that will resume it.  Must be called from within a thread. *)

val sleep : t -> Time.span -> unit
(** Block the calling thread for a simulated duration. *)

val run : t -> unit
(** Run until no events and no runnable threads remain.  Re-raises the
    first exception that escaped a thread, if any. *)

val run_until : t -> Time.t -> unit
(** Like {!run} but stops (without error) once the clock would pass the
    given instant; remaining events stay queued. *)

val block_on : t -> (unit -> 'a) -> 'a
(** [block_on t f] spawns [f] as a thread, runs the simulation until it
    completes, and returns its result.

    @raise Deadlock if the simulation quiesces first. *)

val pending_events : t -> int
(** Number of queued timed events (diagnostic). *)
