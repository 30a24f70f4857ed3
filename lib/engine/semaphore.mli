(** Counting semaphores for simulated threads.

    This is the "lightweight semaphore" of the paper's protocol library:
    the network I/O module signals it on packet arrival and a library
    thread waits on it.  Signals accumulate in a counter, so notification
    batching (several packets per signal) falls out naturally.

    Semaphores also carry contention accounting: every {!wait} is an
    acquisition, a wait that blocks is a contended acquisition, and when
    the semaphore knows its scheduler the time spent blocked is tallied
    (total, max, and a per-lock distribution in microseconds).  Named
    semaphores register with their scheduler so tools can rank the most
    contended locks of a run. *)

type t

type stats = {
  s_name : string;
  s_kind : string;  (** ["semaphore"], or ["mutex"] when wrapped by {!Mutex}. *)
  s_acquisitions : int;
  s_contended : int;  (** Acquisitions that had to block. *)
  s_total_wait_ns : int;
  s_max_wait_ns : int;
  s_wait_us : Stats.Dist.t;  (** Per-blocked-wait histogram, microseconds. *)
}

val create : ?name:string -> ?sched:Sched.t -> ?kind:string -> ?initial:int -> unit -> t
(** A semaphore with the given initial count (default 0).  Passing
    [~sched] enables wait-time accounting (reading the clock only — no
    effect on the simulation); passing [~name] as well lists it in that
    scheduler's {!registered}. *)

val count : t -> int
(** Current count (signals not yet consumed). *)

val waiters : t -> int
(** Number of threads currently blocked in {!wait}. *)

val signal : t -> unit
(** Increment the count, waking one waiter if any. *)

val wait : t -> unit
(** Decrement the count, blocking the calling thread while it is zero. *)

val try_wait : t -> bool
(** Non-blocking wait: [true] and decrements if the count was positive. *)

val stats : t -> stats
(** Contention counters so far.  Wait-time fields stay 0 unless the
    semaphore was created with [~sched]. *)

val registered : sched:Sched.t -> stats list
(** Stats for every named semaphore (and mutex) created on [sched], in
    creation order. *)

val unregister : t -> unit
(** Drop [t] from its scheduler's {!registered}, for a lock whose owner
    is destroyed before the world; a no-op for an unnamed semaphore.
    Linear in the scheduler's live named locks: it rebuilds the list. *)

val reset_registered : sched:Sched.t -> unit -> unit
(** Drop [sched]'s registry entries.  The registry goes away with its
    scheduler, so nothing in the library needs this; it stays only for
    the repository benchmark ([perfbench/]), which still calls it. *)
