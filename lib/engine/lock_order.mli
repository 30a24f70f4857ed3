(** Declared lock hierarchy and runtime rank-order sanitizer.

    Static half: {!hierarchy} assigns every named lock family a rank
    (lower = acquired first) and {!declared_edges} lists the permitted
    nestings; [proto-check] validates at build time that every edge goes
    strictly downhill and the graph is acyclic.

    Runtime half, always on: each simulated thread carries a stack of
    the ranked locks it holds ({!Sched.thread}), and a blocking acquire
    that would invert the rank order raises {!Order_violation} {e
    before} the thread blocks — an ABBA pair surfaces as a report with
    both lock names and acquisition sites instead of a deadlock.
    {!Mutex} looks a lock's rank up once, when it is created. *)

type rank_entry = { re_pattern : string; re_rank : int; re_what : string }

val hierarchy : rank_entry list
(** The rank table.  Patterns are globs ('*' matches any run). *)

val declared_edges : (string * string) list
(** Permitted acquisitions [(outer, inner)]: [inner] may be acquired
    while [outer] is held.  Patterns from {!hierarchy}. *)

val rank_of : string -> int option
(** The rank of the first {!hierarchy} pattern matching a lock name;
    [None] for an unranked lock, which the sanitizer ignores. *)

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

type held = { h_name : string; h_rank : int; h_site : string }
(** A ranked lock on a thread's stack, with the site that took it. *)

val acquire : thread:string -> held list -> held -> held list
(** [acquire ~thread held h] is [held] with [h] pushed, for a blocking
    acquire made by the thread named [thread].
    @raise Order_violation if a lock of rank >= [h]'s is held. *)

val release : held list -> string -> held list
(** Drop the first entry with this lock name. *)
