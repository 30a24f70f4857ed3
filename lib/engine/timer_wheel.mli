(** Hierarchical timing wheel (Varghese & Lauck, SOSP '87).

    The paper cites hashed/hierarchical timing wheels as the known-fast
    timer mechanism that user-level protocol implementations should use;
    TCP's retransmit, persist, delayed-ACK, keepalive and 2MSL timers all
    run on this structure.

    The wheel is a pure data structure driven by an external clock:
    callers {!advance} it to the current tick and due callbacks fire.
    Scheduling and cancelling are O(1); advancing is amortised O(1) per
    tick plus cascading.  Each level's slots are allocated on the first
    insert into that level, so a wheel that is created and never used
    costs a few words. *)

type t

type handle
(** A scheduled timer, usable for cancellation. *)

val create : granularity:Time.span -> unit -> t
(** [create ~granularity ()] makes a wheel whose tick is [granularity]
    (e.g. 10 ms).  Timers round up to the next tick boundary. *)

val granularity : t -> Time.span

val schedule : t -> after:Time.span -> (unit -> unit) -> handle
(** [schedule t ~after f] arranges for [f] to run once, [after] from the
    wheel's current position (minimum one tick). *)

val cancel : handle -> unit
(** Cancel a timer; a no-op if it already fired or was cancelled. *)

val pending : t -> int
(** Entries still held in the slots: the live timers plus cancelled ones
    whose slot has not come round yet (cancelling is lazy). *)

val live : t -> int
(** Number of live (scheduled, not yet fired or cancelled) timers. *)

val current_tick : t -> int
(** The wheel position, in ticks since creation. *)

val advance_to : t -> Time.t -> unit
(** [advance_to t now] fires, in tick order, every timer due at or before
    [now].  [now] values must be monotonically non-decreasing. *)
