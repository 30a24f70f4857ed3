(** The bench harness as data: one row shape, one printer, one JSON
    writer.

    A {!spec} is one bench cell: a name, the preset it runs at, a note
    on its size, its headline fields, and a function from parameters to
    rows.  A {!target} is a name plus its specs in run order; [bench
    <target>] and [netlab table N] both go through {!run}.  The generic
    code over the specs prints (one column printer), writes
    [BENCH_<target>.json], re-derives the committed files
    ({!diffcheck}), and runs any spec leave-one-out for the switch
    audit: every {!Uln_proto.Tcp_params.switch} names a spec by its
    [sw_bench_row]. *)

type row = (string * string) list
(** Field name and its JSON-encoded value ({!Jout}), in output order. *)

type spec = {
  name : string;  (** unique across {!targets}; what [sw_bench_row] names *)
  preset_name : string;
  preset : Uln_proto.Tcp_params.t;  (** the parameters the target runs it at *)
  size : string;  (** what one run measures, for the reader *)
  keys : string list;  (** headline fields, reported by leave-one-out *)
  run : Uln_proto.Tcp_params.t -> row list;
}

type target = {
  target : string;  (** CLI name; writes [BENCH_<target>.json] *)
  title : string;
  specs : spec list;
  leave_one_out : bool;
      (** the switch audit: its rows are every registered switch's
          leave-one-out run, resolved among all targets' specs; its own
          specs are the cells no other target runs at that size *)
  diffcheck : bool;  (** deterministic and quick: {!diffcheck} re-derives it *)
  trailer : Format.formatter -> row list -> unit;  (** prose after the table *)
}

val targets : target list
(** Every table target, in the order [bench all] runs them. *)

val smoke : target
(** Every subsystem the full targets drive, at reduced size. *)

val find : string -> target
(** @raise Invalid_argument on an unknown target name. *)

val all_specs : unit -> spec list
val find_spec : string -> spec option

val run : ?json:bool -> Format.formatter -> target -> unit
(** Print the target's section, its rows and trailer; with [json], also
    write [BENCH_<target>.json] to the working directory. *)

val json_contents : string -> row list -> string
(** The [BENCH_<target>.json] document of these rows, validated by
    {!Jout.validate}.
    @raise Failure if it would not parse. *)

val diffcheck : Format.formatter -> bool
(** Re-derive every [diffcheck] target and compare it byte for byte
    with its committed file in the working directory; [true] when all
    match. *)

val section : Format.formatter -> string -> unit
val print_rows : Format.formatter -> row list -> unit
