(** Declared lock hierarchy and runtime rank-order sanitizer.

    Static half: {!hierarchy} assigns every named lock family a rank
    (lower = acquired first) and {!declared_edges} lists the permitted
    nestings; [proto-check] validates at build time that every edge goes
    strictly downhill and the graph is acyclic.

    Runtime half: with {!set_enforce}[ true], each simulated thread gets
    a held-lock stack (keyed on the scheduler's current-thread label)
    and a blocking acquire that would invert the rank order raises
    {!Order_violation} {e before} the thread blocks — an ABBA pair
    surfaces as a report with both lock names and acquisition sites
    instead of a deadlock.  Off by default; zero cost when off. *)

type rank_entry = { re_pattern : string; re_rank : int; re_what : string }

val hierarchy : rank_entry list
(** The rank table.  Patterns are globs ('*' matches any run). *)

val declared_edges : (string * string) list
(** Permitted acquisitions [(outer, inner)]: [inner] may be acquired
    while [outer] is held.  Patterns from {!hierarchy}. *)

type violation = {
  v_thread : string;
  v_held : string;
  v_held_rank : int;
  v_held_site : string;
  v_lock : string;
  v_rank : int;
  v_site : string;
}

exception Order_violation of violation

val pp_violation : Format.formatter -> violation -> unit

val set_enforce : bool -> unit
(** Turn the sanitizer on or off.  Turning it off clears all state. *)

val enforcing : unit -> bool

val violations : unit -> violation list
(** Violations recorded since the last {!reset}, oldest first. *)

val reset : unit -> unit
(** Clear held-lock stacks and the violation log. *)

val note_acquire : thread:string -> name:string -> site:string -> unit
(** Record a blocking acquire.  No-op when off or the name is unranked.
    @raise Order_violation if a lock of rank >= the new lock's is held. *)

val note_try_acquire : thread:string -> name:string -> site:string -> unit
(** Record a non-blocking acquire (no order check — a try-acquire cannot
    complete a deadlock cycle, but it still constrains later acquires). *)

val note_release : thread:string -> name:string -> unit
(** Pop the first held entry with this name from the thread's stack. *)
