(** The kernel-resident filter interpreter.

    Runs a validated {!Program.t} over a packet's wire bytes.  Reads
    past the end of the packet reject it (as in BPF), so short packets
    are always safe. *)

val run : Program.t -> Uln_buf.View.t -> bool
(** [run p pkt] is [true] iff the program accepts the packet. *)

val run_counted : Program.t -> Uln_buf.View.t -> bool * int
(** Like {!run}, and also returns the cycles of the instructions
    actually executed — an early [Cand]/[Cor] exit (or a short-packet
    reject) charges only the work done, which is what {!Demux.dispatch}
    bills per entry. *)

val run_bound :
  Program.t -> hole:(int -> (string -> int) option) -> string -> Uln_buf.View.t -> bool * int
(** The hole-binding form of {!run_counted}.  [run_bound p ~hole] is
    built once: for every instruction index [i] with [hole i = Some f],
    the literal there is replaced by [f key] when the result runs on a
    binding [key] and a packet.  A stamp of a filter shape ({!Demux})
    is its shape's program run this way on the stamp's bytes, so its
    verdict and cycles are those of the program with those literals. *)

val cost : Program.t -> cycle_ns:int -> Uln_engine.Time.span
(** Worst-case interpretation time on a machine with the given cycle
    length. *)
