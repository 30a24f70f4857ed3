(** Install-time verification of filter programs (admission control).

    The kernel trusts installed demux programs and send templates; this
    module makes that trust a static-analysis obligation, in the
    BPF-verifier tradition: every program is abstractly interpreted
    ({!Absint}) before the demux table accepts it, yielding a typed
    verdict instead of runtime faith. *)

type vacuity = Always_false | Always_true | Satisfiable

type report = {
  vacuity : vacuity;
  min_accept_len : int option;
      (** minimal packet length that can reach an accept exit *)
  wcet_interp : int;  (** worst-case executed interpreter cycles *)
  wcet_compiled : int;  (** worst case under the compiled cost model *)
  max_depth : int;  (** peak operand-stack depth *)
  conjunctive : bool;  (** in the exactly-analyzed Cand-chain fragment *)
}

type error =
  | Vacuous_always_false  (** the filter provably accepts no packet *)
  | Over_budget of { wcet : int; budget : int }
      (** worst-case cost exceeds the table's admission budget *)

exception Rejected of error
(** Raised by {!Netio}'s install path on a verifier rejection. *)

val analyze : Program.t -> report

val admit : ?budget:int -> ?compiled:bool -> Program.t -> (report, error) result
(** Admission control: reject always-false programs and, when [budget]
    is given, programs whose worst-case cost (in the mode selected by
    [compiled], default interpreted) exceeds it. *)

val admit_analyzed :
  ?budget:int -> ?compiled:bool -> Absint.result -> (report, error) result
(** {!admit} on an analysis the caller already holds, so an install
    that also needs the analysis (the demux exactness proof) runs the
    abstract interpreter once. *)

val overlap_witness : Program.t -> Program.t -> Uln_buf.View.t option
(** A concrete packet both programs accept, if the analysis can build
    one: candidate packets are synthesized from pairs of accept-path
    constraint sets and checked with the real interpreter, so a [Some]
    is always a true intersection witness.  [None] means provably
    disjoint {e or} no witness found (the analysis is incomplete). *)

val subsumes : general:Program.t -> specific:Program.t -> bool
(** [true] when every packet [specific] accepts, [general] provably
    accepts too (e.g. a per-connection filter under the listener's
    port filter).  Only decided within the conjunctive fragment. *)

val overlap_witness_analyzed :
  Program.t * Absint.result -> Program.t * Absint.result -> Uln_buf.View.t option
(** {!overlap_witness} on programs paired with their analyses: the
    demux table checks one incoming program against every installed one
    and analyses each program once, not once per pair. *)

val subsumes_analyzed : general:Absint.result -> specific:Absint.result -> bool
(** {!subsumes} on analyses. *)

val merge_constraints : (int * int) list -> (int * int) list -> (int * int) list option
(** Union of two offset-sorted [(byte offset, value)] constraint lists,
    sorted and with one pin per offset; [None] when some offset is
    pinned to two values (across the lists or within one). *)

type template_error =
  | Template_inconsistent of { offset : int }
      (** overlapping field constraints disagree at this byte *)
  | Impersonation_hole of { offset : int }
      (** the receive filter pins the endpoint's local address but the
          send template does not pin the IP source to it *)

val check_template : filter:Absint.result -> Template.t -> (unit, template_error) result
(** Cross-check a channel's outbound template against the analysis of
    its receive filter: the template must be self-consistent, and when
    the filter pins the endpoint's local IP (bytes 30..33), the template
    must pin the IP source (bytes 26..29) to the same address — the
    anti-impersonation property the paper's send capability exists to
    enforce.  Taking the analysis lets the installer share one with the
    overlap check and the demux entry. *)

val pp_vacuity : Format.formatter -> vacuity -> unit
val pp_error : Format.formatter -> error -> unit
val pp_template_error : Format.formatter -> template_error -> unit
