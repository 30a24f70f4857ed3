(** Timer service: a {!Timer_wheel} driven by a {!Sched} clock.

    Arms a periodic tick event in the scheduler only while timers are
    live, so idle protocols cost nothing.  The ticks keep the phase of
    the arm that found the service idle; cancelling the last live timer
    makes the service idle at once, so a timer's firing never depends on
    timers cancelled before it was armed. *)

type t

type handle

val create : Sched.t -> granularity:Time.span -> t
(** A timer service ticking at [granularity] on the given scheduler. *)

val arm : t -> Time.span -> (unit -> unit) -> handle
(** [arm t d f] runs [f] once, [d] from now (rounded up to a tick). *)

val disarm : handle -> unit
(** Cancel; no-op if already fired. *)

val pending : t -> int
(** Live timers. *)
