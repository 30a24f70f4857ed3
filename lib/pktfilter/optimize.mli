(** Semantics-preserving filter optimization.

    Constant folding, algebraic identity simplification, decided
    [Cand]/[Cor] elimination with dead-code truncation, removal of a
    terminal [Cand; Push_lit k] (the verdict already is the value the
    [Cand] pops), and redundant-load elimination (a load whose bytes an
    earlier passed equality test pinned, and whose short-packet guard an
    earlier load subsumes, folds to the literal).

    The optimized program accepts exactly the packets the input does —
    including the short packets the input's load guards reject — which
    the differential property test in [test/test_filter.ml] checks
    against both the interpreter and the compiled form. *)

val run : Program.t -> Program.t
(** Optimize to fixpoint.  The result never costs more than the input
    in either execution mode. *)
