(** The proto-check static analysis pass.

    Four check families, run at build time (the [@lint] alias, via
    [netlab proto-check]) and from the test suite:

    - {b FSM}: the session-typed relation in {!Uln_proto.Tcp_fsm} must
      tile the full state x event grid (every pair either a declared
      transition or explicitly ignored with a reason), every state must
      be reachable from CLOSED, the runtime dispatch must agree with
      the relation-as-data on every pair, and the typed permit rows
      must mirror {!Uln_proto.Tcp_state}'s predicates.
    - {b Locks}: every edge of the declared acquisition graph in
      {!Uln_engine.Lock_order} must go strictly downhill in rank and
      the graph must be acyclic.
    - {b Switches}: every ablatable field of {!Uln_proto.Tcp_params.t}
      must register a differential oracle that exists in the tree and a
      bench row that names a bench spec.
    - {b Dead exports}: every [val] in a [lib/] interface must be named,
      as a whole word outside comments and strings, in some file of
      [lib/], [bin/], [bench/], [test/], [examples/] or [perfbench/]
      other than its own module's — or carry an allowlist reason.

    The [seed_*] flags inject the defect each check exists to catch, so
    the failure path itself is under test. *)

type finding = { f_check : string; f_ok : bool; f_detail : string }

val ok : finding list -> bool
val print : Format.formatter -> finding list -> unit

val check_fsm : ?seed_unhandled:bool -> unit -> finding list
(** [seed_unhandled] hides one declared-ignored pair, simulating a
    forgotten (state, event) combination. *)

val check_locks : ?seed_cycle:bool -> unit -> finding list
(** [seed_cycle] appends an inverted acquisition edge (the ABBA shape). *)

val check_dead_exports :
  ?allow:(string * string) list -> root:string -> unit -> finding list
(** The dead-export lint over the source trees under [root].  [allow]
    (default: the built-in allowlist) maps ["Module.val"] to the reason
    it stays exported without a caller. *)

val run :
  ?seed_unhandled:bool ->
  ?seed_cycle:bool ->
  ?sources:string * string list * string ->
  unit ->
  finding list
(** All families; [sources = (params_src, spec_names, root)] enables the
    switch and dead-export lints ([params_src] is the path to
    [tcp_params.ml], [spec_names] the names every [sw_bench_row] must
    resolve against, [root] the directory oracle paths, the committed
    leave-one-out table [BENCH_switches.json] and the source trees
    resolve against); the other checks are pure. *)
