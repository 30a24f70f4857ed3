(** The kernel demultiplexing table.

    Maps filters to delivery endpoints.  Address demultiplexing is done
    "as low in the stack as possible but dispatching to the highest
    protocol layer" [Tennenhouse]: the first matching entry wins, and
    entries are tried most-recently-installed first so connection
    filters shadow broader protocol filters.

    Installation is admission-controlled: every program is optimized
    ({!Optimize}), then statically verified ({!Verify}) — vacuous
    (always-false) programs and, when the table carries a cycle budget,
    programs whose worst-case cost exceeds it are rejected with a typed
    error.  The optimized form is what runs on the hot path.

    Entries run either interpreted or compiled (a per-table choice, the
    subject of the filter ablation bench); each dispatch reports the
    simulated cycles of the instructions the executed filters actually
    ran — an entry that bails at an early [Cand] charges only that
    prefix, not its worst case.

    {2 Flow cache}

    With [flow_cache] enabled, the table maintains an exact-match demux
    cache in front of the linear scan.  When a scan accepts a packet for
    an entry whose program the verifier's analysis ({!Absint}) proved
    conjunctive-exact — it accepts exactly the packets carrying specific
    byte values at specific offsets — those (offset, value) pairs become
    a hash key and subsequent packets of the flow hit the cache at a
    small calibrated cost independent of the table size.  An entry is
    only cached when every more-recently-installed (higher-priority)
    filter provably rejects all packets matching the key, so a hit can
    never steal traffic a scan would have delivered elsewhere; filters
    too complex to prove safe are skipped and simply keep scanning.  Any
    install or remove flushes the cache.  The cache is off by default —
    the linear scan is the verification oracle (differentially tested)
    and the measured baseline.

    {2 Hierarchical miss path}

    With [hier] enabled, a cache miss (or any dispatch when the cache is
    off) consults a two-level index instead of the linear scan: entries
    whose programs the verifier proved conjunctive-exact are grouped by
    constrained-offset shape and hashed on their constraint bytes;
    entries without an exactness proof stay on a small residual list and
    run their real predicates in priority order.  The winner is the
    highest-id acceptor across both groups — provably the entry the
    priority scan would return, because exactness makes byte-match
    equivalent to acceptance for every indexed entry (unlike the flow
    cache, no shadow-safety argument is needed: all candidates are
    considered, none skipped).  Miss cost becomes one calibrated probe
    per shape — independent of the connection count — instead of O(n)
    filter executions.  The index is maintained even while [hier] is
    off, so the switch only selects the dispatch path and the linear
    scan remains available as a differential oracle on the same table. *)

type 'a t
(** A table delivering to endpoints of type ['a]. *)

type mode = Interpreted | Compiled

type key
(** Handle for removing an installed entry. *)

type 'a conflict = {
  against : key;  (** the previously installed entry *)
  with_endpoint : 'a;  (** its endpoint *)
  witness : Uln_buf.View.t;  (** a packet both filters accept *)
}

type cache_stats = {
  hits : int;  (** dispatches answered by the flow cache *)
  misses : int;  (** dispatches that fell through to the scan *)
  installs : int;  (** flows entered into the cache *)
  skips : int;  (** accepts not cacheable (inexact or shadow-unsafe) *)
  flushes : int;  (** whole-cache invalidations (install/remove) *)
}

val create : mode:mode -> ?budget:int -> ?flow_cache:bool -> ?hier:bool -> unit -> 'a t
(** [budget] is the per-program worst-case cycle bound enforced at
    {!install} time (in the cost model of [mode]); omitted = unbounded.
    [flow_cache] (default [false]) enables the exact-match demux cache.
    [hier] (default [false]) routes misses through the hierarchical
    index instead of the linear scan. *)

val mode : 'a t -> mode
val budget : 'a t -> int option

val set_flow_cache : 'a t -> bool -> unit
(** Toggle the flow cache; any change flushes it. *)

val set_hier : 'a t -> bool -> unit
(** Toggle the hierarchical miss path.  The index is always maintained,
    so this only selects which lookup runs — flipping it between
    dispatches on a live table is sound (and is exactly what the
    differential tests and the sparse-scale bench do). *)

val cache_stats : 'a t -> cache_stats

val install :
  ?optimize:bool -> ?affinity:int -> 'a t -> Program.t -> 'a -> (key, Verify.error) result
(** Verify, optimize (unless [optimize:false]) and add an entry in
    front of existing ones.  Rejects always-false programs and
    over-budget worst-case costs.  [affinity] (default 0) is the CPU
    index the endpoint's traffic should be steered to. *)

val install_analyzed :
  ?affinity:int -> 'a t -> Program.t * Absint.result -> 'a -> (key, Verify.error) result
(** {!install} (optimizing) of a program paired with its analysis, which
    becomes the entry's for the overlap check: a caller that has just run
    {!conflicts} with the same pair analyses the program once. *)

val install_exn : ?optimize:bool -> ?affinity:int -> 'a t -> Program.t -> 'a -> key
(** Like {!install}. @raise Verify.Rejected on a verifier rejection. *)

type shape
(** A verified connection-filter shape: a program that is optimized,
    analysed and admitted once, whose optimized form is a chain of
    load-vs-literal equality tests (as {!Program.tcp_conn}).  Its
    literals are holes: a {e stamp} binds the bytes the shape pins and
    runs the shape's program with them in place of its own
    ({!Interp.run_bound}, {!Compile.compile_bound}), so its accept set
    and charged cycles are exactly those of the program with its
    literals replaced by the stamp's bytes.  A shape belongs to the
    table it was made for (its mode and budget). *)

type shape_error =
  | Not_admitted of Verify.error  (** the program fails admission *)
  | Not_stampable  (** its optimized form is not an exact test chain *)

type stamp_error =
  | Not_a_byte of { offset : int; value : int }
      (** a binding that is not an (offset >= 0, byte) pair *)
  | Unpinned of { offset : int }  (** binds a byte the shape does not pin *)
  | Conflicting of { offset : int }  (** binds one byte to two values *)
  | Impersonation of Verify.template_error
      (** the send template disagrees with the stamp's local address *)

val pp_stamp_error : Format.formatter -> stamp_error -> unit

val shape : 'a t -> Program.t -> (shape, shape_error) result
(** Optimize, analyse and admit [program] once, and make it a shape.
    Adds no entry. *)

val stamp :
  ?affinity:int ->
  ?template:Template.t ->
  'a t ->
  shape ->
  (int * int) list ->
  'a ->
  (key, stamp_error) result
(** Add an entry in front of existing ones that accepts exactly what
    [shape]'s program accepts with the [(offset, byte)] bindings written
    over its own bytes (bindings may come in any order; a byte bound
    twice must be bound to one value).  No verifier pass runs, and the
    entry holds only its bytes: no program, analysis or closure of its
    own.  With [template], the stamp's local-address bytes (30..33) are
    checked against the template's source address
    ({!Verify.check_template_pins}): the anti-impersonation check
    without an analysis.  The entry founds no overlap group
    ({!live_groups}); the overlap check finds it through its bucket in
    the hierarchical index. *)

val stamp_bytes :
  ?affinity:int ->
  ?template:Template.t ->
  'a t ->
  shape ->
  string ->
  'a ->
  (key, stamp_error) result
(** {!stamp} binding every byte the shape pins: [bytes] holds them in
    increasing offset order (for a [tcp_conn] shape,
    {!Program.tcp_conn_bytes}).  The string becomes the entry's key; no
    binding list is built.
    @raise Invalid_argument unless [bytes] has one byte per pinned
    offset. *)

val install_stamped :
  ?affinity:int ->
  'a t ->
  template:key ->
  constraints:(int * int) list ->
  min_len:int ->
  'a ->
  (key, string) result
(** A {!stamp} derived from an installed program: the shape of the
    program's tests that read a byte of [constraints] (in program order,
    with the program's literals), verified at its first use and kept
    with [template].  The stamp pins [constraints], plus [template]'s
    own bytes where a word test reads a constrained byte and one not.
    [min_len] is the shortest packet the caller stamps for; it must
    cover those tests' bytes (the stamp accepts from the shape's
    minimum length on).  Errors, as text, if [template] is unknown,
    removed or itself a stamp, if its program is not a test chain, if
    [min_len] is too short, or as {!stamp}. *)

val affinity : 'a t -> key -> int option
(** The CPU affinity recorded for an installed entry. *)

val set_affinity : 'a t -> key -> int -> unit
(** Change an entry's receive-steering affinity.  Semantically an
    endpoint re-install: the flow cache is flushed, so no subsequent
    dispatch can report the old CPU. *)

val conflicts : 'a t -> Program.t * Absint.result -> 'a conflict list
(** Installed entries whose accept set provably intersects the given
    program's (paired with its analysis) on a concrete witness packet,
    excluding benign shadowing — pairs where either filter
    {!Verify.subsumes} the other (a connection filter under its
    listener, or an identical re-install during connection handoff).
    What remains is the eavesdropping/ambiguity hazard the registry
    must surface.

    Cost: O(shapes + candidates + residual programs), not one check per
    installed program nor per stamp (see {!live_groups}).
    An installed program whose analysis has a single accept path with
    strictly increasing constraint offsets is indexed by that offset set
    (its shape) and the bytes it pins there; for each accept path of
    [program], the check visits the one bucket those bytes select in
    each shape whose offsets the path pins, the whole shape when it
    leaves some of them unpinned, and every residual (unindexed)
    program.  Each installed program is analysed once in its lifetime.
    A stamp is checked as its bytes, with no analysis: through its
    bucket in the hierarchical index ({!Verify.conflict_exact}).  A
    conjunctive [program] whose pins all lie on a stamp shape's offsets
    can only be disjoint from its stamps or subsume them, and visits
    none; a path pinning every offset visits one bucket; any other path
    walks the shape's buckets behind a byte pre-filter.  The candidate
    sets hold every entry whose accept set can intersect [program]'s
    without subsumption, so the verdicts are those of a check against
    every entry, listed in priority order. *)

val live_groups : 'a t -> int
(** Number of installed programs the overlap check analyses: each
    {!install} adds one and its removal drops it; a stamp adds none. *)

val remove : 'a t -> key -> unit

val entries : 'a t -> int

val wcet : 'a t -> key -> int option
(** The certified worst-case dispatch cycles of an installed entry (in
    the table's execution mode, after optimization). *)

val report : 'a t -> key -> Verify.report option
(** The full verifier report recorded at install time. *)

val dispatch : 'a t -> Uln_buf.View.t -> ('a option * int)
(** [dispatch t pkt] consults the flow cache (when enabled), then runs
    filters in order until one accepts; returns the endpoint (or
    [None]) and the simulated cycle cost actually incurred — the probe
    cost on a cache hit, probe + executed filter instructions on a
    miss.  {!cache_stats} distinguishes the two. *)

val dispatch_steered : 'a t -> Uln_buf.View.t -> (('a * int) option * int)
(** Like {!dispatch} but also reports the accepting entry's CPU
    affinity, for receive flow steering.  Identical matching, cost and
    cache accounting. *)
