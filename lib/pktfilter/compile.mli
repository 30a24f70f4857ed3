(** Compiled filters.

    The paper (citing Massalin & Pu's Synthesis and anticipating
    McCanne & Jacobson's BPF) argues demultiplexing logic should be
    synthesised/compiled into the kernel rather than interpreted.  This
    module "compiles" a validated program into a closure tree — the
    OCaml analogue of run-time code generation — with a correspondingly
    smaller simulated cost. *)

val compile : Program.t -> (Uln_buf.View.t -> bool)
(** A predicate equivalent to interpreting the program (property-tested
    in the test suite). *)

val compile_counted : Program.t -> (Uln_buf.View.t -> bool * int)
(** Like {!compile}, and also returns the compiled-model cycles of the
    instructions actually executed (8 per packet load, 3 otherwise),
    so dispatch can charge actual work rather than the worst case. *)

val compile_bound :
  Program.t -> hole:(int -> (string -> int) option) -> string -> Uln_buf.View.t -> bool * int
(** The hole-binding form of {!compile_counted}, as
    {!Interp.run_bound}: the closure chain is built once, and the
    literal of every instruction [i] with [hole i = Some f] reads
    [f key] from the binding the result runs on. *)

val cost : Program.t -> cycle_ns:int -> Uln_engine.Time.span
(** Simulated per-packet cost of the compiled form. *)
