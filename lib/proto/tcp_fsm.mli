(** Session-typed RFC-793 state machine: transition witnesses, packed
    storage for the engine, and the relation as data for proto-check.

    A [('from, 'to_) transition] value is the only way to move between
    states; the permit constructors {!send_data} and {!bqi_exchange}
    demand a witness of the right index, so a data send before
    ESTABLISHED or a BQI exchange outside the handshake is a type
    error.  The typed layer splits the untyped [Closed] into the
    pre-open [[`Closed]] index and the terminal [[`Gone]] index, which
    has no outgoing transitions: a retired witness (2MSL expiry, abort,
    final FIN ack) is dead at compile time, so TIME_WAIT resurrection
    is unrepresentable.  See test/compile_fail for the harness that
    keeps these claims honest.

    Witnesses are also dynamically linear: stepping one marks it spent,
    and stepping it again raises {!Violation} — the runtime backstop
    for the aliasing the type system cannot rule out. *)

module State = Tcp_state

type 's state
(** A witness that a connection is in the state the phantom index
    names.  Indices: [[`Closed]], [[`Listen]], [[`Syn_sent]],
    [[`Syn_received]], [[`Established]], [[`Fin_wait_1]],
    [[`Fin_wait_2]], [[`Close_wait]], [[`Closing]], [[`Last_ack]],
    [[`Time_wait]], and the terminal [[`Gone]]. *)

type ('from, 'to_) transition =
  | Passive_open : ([ `Closed ], [ `Listen ]) transition
  | Active_open : ([ `Closed ], [ `Syn_sent ]) transition
  | Rcv_syn : ([ `Listen ], [ `Syn_received ]) transition
  | Rcv_syn_ack : ([ `Syn_sent ], [ `Established ]) transition
  | Simultaneous_syn : ([ `Syn_sent ], [ `Syn_received ]) transition
  | Rcv_ack_of_syn : ([ `Syn_received ], [ `Established ]) transition
  | Send_fin_established : ([ `Established ], [ `Fin_wait_1 ]) transition
  | Send_fin_syn_received : ([ `Syn_received ], [ `Fin_wait_1 ]) transition
  | Send_fin_close_wait : ([ `Close_wait ], [ `Last_ack ]) transition
  | Rcv_fin_established : ([ `Established ], [ `Close_wait ]) transition
  | Rcv_fin_fin_wait_1 : ([ `Fin_wait_1 ], [ `Closing ]) transition
  | Rcv_fin_fin_wait_2 : ([ `Fin_wait_2 ], [ `Time_wait ]) transition
  | Fin_acked_fin_wait_1 : ([ `Fin_wait_1 ], [ `Fin_wait_2 ]) transition
  | Fin_acked_closing : ([ `Closing ], [ `Time_wait ]) transition
  | Fin_acked_last_ack : ([ `Last_ack ], [ `Gone ]) transition
  | Close_listen : ([ `Listen ], [ `Gone ]) transition
  | Close_syn_sent : ([ `Syn_sent ], [ `Gone ]) transition
  | Expire_2msl : ([ `Time_wait ], [ `Gone ]) transition
  | Abort_listen : ([ `Listen ], [ `Gone ]) transition
  | Abort_syn_sent : ([ `Syn_sent ], [ `Gone ]) transition
  | Abort_syn_received : ([ `Syn_received ], [ `Gone ]) transition
  | Abort_established : ([ `Established ], [ `Gone ]) transition
  | Abort_fin_wait_1 : ([ `Fin_wait_1 ], [ `Gone ]) transition
  | Abort_fin_wait_2 : ([ `Fin_wait_2 ], [ `Gone ]) transition
  | Abort_close_wait : ([ `Close_wait ], [ `Gone ]) transition
  | Abort_closing : ([ `Closing ], [ `Gone ]) transition
  | Abort_last_ack : ([ `Last_ack ], [ `Gone ]) transition
  | Abort_time_wait : ([ `Time_wait ], [ `Gone ]) transition

val source : ('f, 't) transition -> State.t
val target : ('f, 't) transition -> State.t
(** Runtime shadows of the indices ([`Gone] shadows to [Closed]). *)

val closed : unit -> [ `Closed ] state
(** A fresh endpoint. *)

val step : 's state -> ('s, 't) transition -> 't state
(** Apply a transition.  Consumes the witness (dynamically linear).
    @raise Violation if the witness was already spent. *)

val state_of : 's state -> State.t

(** {2 Permits}

    A permit is a proof derived from a witness, not a consumable token. *)

type send_permit
type bqi_permit
type option_permit

val send_data : [< `Established | `Close_wait ] state -> send_permit
(** Only an open (or half-closed, Close_wait) connection may transmit
    new application data. *)

val bqi_exchange : [< `Listen | `Syn_sent | `Syn_received ] state -> bqi_permit
(** BQI hints ride only on handshake segments: stamping or learning one
    requires a handshake-state witness. *)

val negotiate_options : [< `Listen | `Syn_sent | `Syn_received ] state -> option_permit
(** TCP options (MSS, window scale, SACK-permitted, timestamps) are
    negotiated only on SYN/SYN-ACK segments: committing a connection to
    a peer's offer requires a handshake-state witness.  Once
    established, the negotiated values are frozen — there is no permit
    from any synchronized state. *)

val send_states : State.t list
val bqi_states : State.t list
val opt_states : State.t list
val recv_states : State.t list
(** Value-level mirrors of the permit rows (and of the receive-direction
    policy); proto-check asserts they agree with {!Tcp_state}'s
    predicates. *)

(** {2 Violations} *)

type violation =
  | Reused of State.t
  | Wrong_source of { witness : State.t; wanted : State.t }
  | Shadow_divergence of { witness : State.t; shadow : State.t }

exception Violation of violation

val pp_violation : Format.formatter -> violation -> unit

val transitions_applied : unit -> int
val shadow_checks_made : unit -> int
val reset_counters : unit -> unit
(** Process-wide instrumentation: how many witness steps and shadow
    assertions have run (tests assert the oracle is actually exercised). *)

(** {2 Reflection: the relation as data} *)

type event =
  | Ev_passive_open
  | Ev_active_open
  | Ev_rcv_syn
  | Ev_rcv_syn_ack
  | Ev_rcv_ack_of_syn
  | Ev_send_fin
  | Ev_rcv_fin
  | Ev_fin_acked
  | Ev_close
  | Ev_abort
  | Ev_expire_2msl

val all_events : event list
val event_name : event -> string

type edge = { e_from : State.t; e_event : event; e_to : State.t }

val edges : edge list
(** The declared relation, one edge per GADT constructor. *)

val all_states : State.t list

val ignored : State.t -> (event * string) list
(** The (event, reason) pairs deliberately left without a transition in
    each state.  proto-check requires [edges] and [ignored] to tile the
    full state x event grid exactly. *)

(** {2 Packed witnesses} *)

module Packed : sig
  type t
  (** A witness with its index hidden: what a connection record stores. *)

  val state : t -> State.t

  val active_open : unit -> t
  (** Closed -> Syn_sent, via {!Active_open}. *)

  val passive_accept : unit -> t
  (** Closed -> Listen -> Syn_received: each SYN accepted by a listener
      mints its own FSM instance (one per TCB, as in RFC 793). *)

  val import : unit -> t
  (** An imported (handoff) connection: ESTABLISHED on arrival. *)

  val at : State.t -> t
  (** Analysis/test entry only: a witness parked at an arbitrary state
      with no typed pedigree.  Engine code must not use this. *)

  val check_shadow : t -> State.t -> unit
  (** Assert the shadow oracle.
      @raise Violation on divergence. *)

  val apply : t -> ('f, 't) transition -> t
  (** Apply a typed transition to a packed witness; the typed layer's
      source check happens dynamically here.
      @raise Violation on source mismatch or a spent witness. *)

  val apply_event : t -> event -> (t, [ `Ignored of string | `Invalid of string ]) result
  (** The runtime dispatch over (state, event).  proto-check verifies it
      against {!edges} + {!ignored} exhaustively. *)

  val established : t -> [ `Established ] state option
  val syn_sent : t -> [ `Syn_sent ] state option
  val send_permit : t -> send_permit option
  val bqi_permit : t -> bqi_permit option
  val option_permit : t -> option_permit option
  (** Dynamic proof queries: a fresh typed witness or permit, justified
      by the packed witness's current state. *)

  val retire : t -> clean:bool -> t
  (** Take the matching edge to the terminal state: close/expire edges
      when [clean], abort edges otherwise.  Identity on Closed. *)
end
