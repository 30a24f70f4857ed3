(* Session-typed RFC-793 state machine.

   Three layers share one transition relation:

   - The *typed* layer: a [('from, 'to_) transition] GADT whose indices
     are phantom state types, and ['s state] witnesses stepped through
     it.  Holding a witness of the right index is the only way to call
     the permit constructors ({!send_data}, {!bqi_exchange}), so a data
     send before ESTABLISHED, a BQI exchange outside the handshake, or
     a transition out of a finished connection ([`Gone]) are type
     errors — see test/compile_fail.

   - The *packed* layer: the engine stores a witness existentially in
     each connection record and moves it with {!Packed.apply}, which
     re-checks dynamically what the typed layer checks statically and
     asserts the shadow oracle (the engine's untyped [Tcp_state.t]
     field) against the witness at every step.

   - The *reflection* layer: the relation as data ({!edges}, {!ignored})
     for the proto-check pass — exhaustiveness over state x event,
     reachability, and divergence of the dispatch in {!Packed.apply_event}
     from the declared relation.

   The typed layer distinguishes the pre-open [`Closed] index from the
   terminal [`Gone] index; both shadow to [Tcp_state.Closed].  [`Gone]
   has no outgoing transitions, so a retired witness (TIME_WAIT expiry,
   abort, final FIN ack) is dead at compile time — TIME_WAIT
   resurrection is unrepresentable. *)

module State = Tcp_state

(* A witness is a tagged token: the phantom index is the static truth,
   the tag its runtime shadow, and [spent] enforces linearity (each
   witness steps at most once) dynamically where the type system cannot. *)
type 's state = { tag : State.t; mutable spent : bool }

type ('from, 'to_) transition =
  (* opening *)
  | Passive_open : ([ `Closed ], [ `Listen ]) transition
  | Active_open : ([ `Closed ], [ `Syn_sent ]) transition
  | Rcv_syn : ([ `Listen ], [ `Syn_received ]) transition
  | Rcv_syn_ack : ([ `Syn_sent ], [ `Established ]) transition
  | Simultaneous_syn : ([ `Syn_sent ], [ `Syn_received ]) transition
  | Rcv_ack_of_syn : ([ `Syn_received ], [ `Established ]) transition
  (* our FIN goes out *)
  | Send_fin_established : ([ `Established ], [ `Fin_wait_1 ]) transition
  | Send_fin_syn_received : ([ `Syn_received ], [ `Fin_wait_1 ]) transition
  | Send_fin_close_wait : ([ `Close_wait ], [ `Last_ack ]) transition
  (* peer's FIN arrives *)
  | Rcv_fin_established : ([ `Established ], [ `Close_wait ]) transition
  | Rcv_fin_fin_wait_1 : ([ `Fin_wait_1 ], [ `Closing ]) transition
  | Rcv_fin_fin_wait_2 : ([ `Fin_wait_2 ], [ `Time_wait ]) transition
  (* our FIN is acknowledged *)
  | Fin_acked_fin_wait_1 : ([ `Fin_wait_1 ], [ `Fin_wait_2 ]) transition
  | Fin_acked_closing : ([ `Closing ], [ `Time_wait ]) transition
  | Fin_acked_last_ack : ([ `Last_ack ], [ `Gone ]) transition
  (* local close before synchronization *)
  | Close_listen : ([ `Listen ], [ `Gone ]) transition
  | Close_syn_sent : ([ `Syn_sent ], [ `Gone ]) transition
  (* quiet-time expiry *)
  | Expire_2msl : ([ `Time_wait ], [ `Gone ]) transition
  (* aborts: RST, unrecoverable error, application abort *)
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

let source : type f t. (f, t) transition -> State.t = function
  | Passive_open -> State.Closed
  | Active_open -> State.Closed
  | Rcv_syn -> State.Listen
  | Rcv_syn_ack -> State.Syn_sent
  | Simultaneous_syn -> State.Syn_sent
  | Rcv_ack_of_syn -> State.Syn_received
  | Send_fin_established -> State.Established
  | Send_fin_syn_received -> State.Syn_received
  | Send_fin_close_wait -> State.Close_wait
  | Rcv_fin_established -> State.Established
  | Rcv_fin_fin_wait_1 -> State.Fin_wait_1
  | Rcv_fin_fin_wait_2 -> State.Fin_wait_2
  | Fin_acked_fin_wait_1 -> State.Fin_wait_1
  | Fin_acked_closing -> State.Closing
  | Fin_acked_last_ack -> State.Last_ack
  | Close_listen -> State.Listen
  | Close_syn_sent -> State.Syn_sent
  | Expire_2msl -> State.Time_wait
  | Abort_listen -> State.Listen
  | Abort_syn_sent -> State.Syn_sent
  | Abort_syn_received -> State.Syn_received
  | Abort_established -> State.Established
  | Abort_fin_wait_1 -> State.Fin_wait_1
  | Abort_fin_wait_2 -> State.Fin_wait_2
  | Abort_close_wait -> State.Close_wait
  | Abort_closing -> State.Closing
  | Abort_last_ack -> State.Last_ack
  | Abort_time_wait -> State.Time_wait

(* [`Gone] shadows to [Closed]: the engine's untyped view has a single
   terminal/initial state, the typed view splits it. *)
let target : type f t. (f, t) transition -> State.t = function
  | Passive_open -> State.Listen
  | Active_open -> State.Syn_sent
  | Rcv_syn -> State.Syn_received
  | Rcv_syn_ack -> State.Established
  | Simultaneous_syn -> State.Syn_received
  | Rcv_ack_of_syn -> State.Established
  | Send_fin_established -> State.Fin_wait_1
  | Send_fin_syn_received -> State.Fin_wait_1
  | Send_fin_close_wait -> State.Last_ack
  | Rcv_fin_established -> State.Close_wait
  | Rcv_fin_fin_wait_1 -> State.Closing
  | Rcv_fin_fin_wait_2 -> State.Time_wait
  | Fin_acked_fin_wait_1 -> State.Fin_wait_2
  | Fin_acked_closing -> State.Time_wait
  | Fin_acked_last_ack -> State.Closed
  | Close_listen -> State.Closed
  | Close_syn_sent -> State.Closed
  | Expire_2msl -> State.Closed
  | Abort_listen -> State.Closed
  | Abort_syn_sent -> State.Closed
  | Abort_syn_received -> State.Closed
  | Abort_established -> State.Closed
  | Abort_fin_wait_1 -> State.Closed
  | Abort_fin_wait_2 -> State.Closed
  | Abort_close_wait -> State.Closed
  | Abort_closing -> State.Closed
  | Abort_last_ack -> State.Closed
  | Abort_time_wait -> State.Closed

(* {2 Events: the transition relation's second axis} *)

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

let all_events =
  [ Ev_passive_open;
    Ev_active_open;
    Ev_rcv_syn;
    Ev_rcv_syn_ack;
    Ev_rcv_ack_of_syn;
    Ev_send_fin;
    Ev_rcv_fin;
    Ev_fin_acked;
    Ev_close;
    Ev_abort;
    Ev_expire_2msl ]

let event_name = function
  | Ev_passive_open -> "passive_open"
  | Ev_active_open -> "active_open"
  | Ev_rcv_syn -> "rcv_syn"
  | Ev_rcv_syn_ack -> "rcv_syn_ack"
  | Ev_rcv_ack_of_syn -> "rcv_ack_of_syn"
  | Ev_send_fin -> "send_fin"
  | Ev_rcv_fin -> "rcv_fin"
  | Ev_fin_acked -> "fin_acked"
  | Ev_close -> "close"
  | Ev_abort -> "abort"
  | Ev_expire_2msl -> "expire_2msl"

let event_of : type f t. (f, t) transition -> event = function
  | Passive_open -> Ev_passive_open
  | Active_open -> Ev_active_open
  | Rcv_syn -> Ev_rcv_syn
  | Rcv_syn_ack -> Ev_rcv_syn_ack
  | Simultaneous_syn -> Ev_rcv_syn
  | Rcv_ack_of_syn -> Ev_rcv_ack_of_syn
  | Send_fin_established -> Ev_send_fin
  | Send_fin_syn_received -> Ev_send_fin
  | Send_fin_close_wait -> Ev_send_fin
  | Rcv_fin_established -> Ev_rcv_fin
  | Rcv_fin_fin_wait_1 -> Ev_rcv_fin
  | Rcv_fin_fin_wait_2 -> Ev_rcv_fin
  | Fin_acked_fin_wait_1 -> Ev_fin_acked
  | Fin_acked_closing -> Ev_fin_acked
  | Fin_acked_last_ack -> Ev_fin_acked
  | Close_listen -> Ev_close
  | Close_syn_sent -> Ev_close
  | Expire_2msl -> Ev_expire_2msl
  | Abort_listen -> Ev_abort
  | Abort_syn_sent -> Ev_abort
  | Abort_syn_received -> Ev_abort
  | Abort_established -> Ev_abort
  | Abort_fin_wait_1 -> Ev_abort
  | Abort_fin_wait_2 -> Ev_abort
  | Abort_close_wait -> Ev_abort
  | Abort_closing -> Ev_abort
  | Abort_last_ack -> Ev_abort
  | Abort_time_wait -> Ev_abort

(* {2 Violations and counters} *)

type violation =
  | Reused of State.t  (** a spent witness was stepped again *)
  | Wrong_source of { witness : State.t; wanted : State.t }
  | Shadow_divergence of { witness : State.t; shadow : State.t }

exception Violation of violation

let pp_violation ppf = function
  | Reused s -> Format.fprintf ppf "spent %s witness stepped again" (State.to_string s)
  | Wrong_source { witness; wanted } ->
      Format.fprintf ppf "transition from %s applied to a %s witness" (State.to_string wanted)
        (State.to_string witness)
  | Shadow_divergence { witness; shadow } ->
      Format.fprintf ppf "shadow oracle diverged: witness %s, engine state %s"
        (State.to_string witness) (State.to_string shadow)

(* The single dynamic core both the typed [step] and the packed [apply]
   go through: linearity and source agreement. *)
let advance : type a b. a state -> src:State.t -> dst:State.t -> b state =
 fun w ~src ~dst ->
  if w.spent then raise (Violation (Reused w.tag));
  if w.tag <> src then raise (Violation (Wrong_source { witness = w.tag; wanted = src }));
  w.spent <- true;
  { tag = dst; spent = false }

let step (w : 's state) (tr : ('s, 't) transition) : 't state =
  advance w ~src:(source tr) ~dst:(target tr)

let closed () = { tag = State.Closed; spent = false }
let state_of w = w.tag

(* {2 Permits}

   A permit is a proof, not a token: constructing one requires a witness
   whose index is in the permitted row, and it is not consumed.  The
   value-level mirrors below exist for proto-check, which verifies they
   agree with [Tcp_state]'s predicates. *)

type send_permit = Send_permit of State.t
type bqi_permit = Bqi_permit of State.t
type option_permit = Option_permit of State.t

let send_data (w : [< `Established | `Close_wait ] state) = Send_permit w.tag
let bqi_exchange (w : [< `Listen | `Syn_sent | `Syn_received ] state) = Bqi_permit w.tag

let negotiate_options (w : [< `Listen | `Syn_sent | `Syn_received ] state) =
  Option_permit w.tag

let send_states = [ State.Established; State.Close_wait ]
let bqi_states = [ State.Listen; State.Syn_sent; State.Syn_received ]
let opt_states = [ State.Listen; State.Syn_sent; State.Syn_received ]
let recv_states = [ State.Established; State.Fin_wait_1; State.Fin_wait_2 ]

(* {2 Reflection: the relation as data} *)

type edge = { e_from : State.t; e_event : event; e_to : State.t }

type any_transition = Any : ('f, 't) transition -> any_transition

let all_transitions =
  [ Any Passive_open;
    Any Active_open;
    Any Rcv_syn;
    Any Rcv_syn_ack;
    Any Simultaneous_syn;
    Any Rcv_ack_of_syn;
    Any Send_fin_established;
    Any Send_fin_syn_received;
    Any Send_fin_close_wait;
    Any Rcv_fin_established;
    Any Rcv_fin_fin_wait_1;
    Any Rcv_fin_fin_wait_2;
    Any Fin_acked_fin_wait_1;
    Any Fin_acked_closing;
    Any Fin_acked_last_ack;
    Any Close_listen;
    Any Close_syn_sent;
    Any Expire_2msl;
    Any Abort_listen;
    Any Abort_syn_sent;
    Any Abort_syn_received;
    Any Abort_established;
    Any Abort_fin_wait_1;
    Any Abort_fin_wait_2;
    Any Abort_close_wait;
    Any Abort_closing;
    Any Abort_last_ack;
    Any Abort_time_wait ]

let edges =
  List.map
    (fun (Any tr) -> { e_from = source tr; e_event = event_of tr; e_to = target tr })
    all_transitions

let all_states = State.all

(* Every (state, event) pair the relation deliberately leaves alone,
   with the reason.  proto-check requires [edges] and [ignored] to
   tile the full state x event grid with no gaps and no overlaps: an
   event someone adds without deciding its fate in every state is a
   build failure, not a silent drop. *)
let ignored s =
  let open State in
  match s with
  | Closed ->
      [ (Ev_rcv_syn, "no connection: the demux answers stray segments with RST");
        (Ev_rcv_syn_ack, "no connection: stray segment, RST path");
        (Ev_rcv_ack_of_syn, "no connection: stray segment, RST path");
        (Ev_send_fin, "nothing to close; write guards reject first");
        (Ev_rcv_fin, "no connection: stray segment, RST path");
        (Ev_fin_acked, "no connection: stray segment, RST path");
        (Ev_close, "closing a closed endpoint is a no-op");
        (Ev_abort, "aborting a closed endpoint is a no-op");
        (Ev_expire_2msl, "no quiet-time timer outside TIME_WAIT") ]
  | Listen ->
      [ (Ev_passive_open, "already listening");
        (Ev_active_open, "RFC 793 SEND-in-LISTEN conversion is not modeled: open a new endpoint");
        (Ev_rcv_syn_ack, "ACK at a listener without a connection: RST path");
        (Ev_rcv_ack_of_syn, "ACK at a listener without a connection: RST path");
        (Ev_send_fin, "a listener has no data path, nothing to FIN");
        (Ev_rcv_fin, "FIN without a connection: RST path");
        (Ev_fin_acked, "no FIN outstanding on a listener");
        (Ev_expire_2msl, "no quiet-time timer on a listener") ]
  | Syn_sent ->
      [ (Ev_passive_open, "endpoint already opening actively");
        (Ev_active_open, "connect is already in progress");
        (Ev_rcv_ack_of_syn, "acceptable ACK without SYN: wait for the SYN-ACK proper");
        (Ev_send_fin, "close before synchronization deletes the TCB instead (close edge)");
        (Ev_rcv_fin, "FIN before our SYN is acknowledged: unsynchronized, dropped");
        (Ev_fin_acked, "no FIN outstanding during the handshake");
        (Ev_expire_2msl, "no quiet-time timer during the handshake") ]
  | Syn_received ->
      [ (Ev_passive_open, "handshake already under way");
        (Ev_active_open, "handshake already under way");
        (Ev_rcv_syn, "SYN retransmission: duplicate, dropped");
        (Ev_rcv_syn_ack, "a SYN-ACK here is classified by its ACK half: rcv_ack_of_syn");
        (Ev_rcv_fin, "FIN before the handshake-completing ACK: dropped (a FIN piggybacked on \
                      the ACK establishes first, then takes the Established rcv_fin edge)");
        (Ev_fin_acked, "our FIN, if queued by close, has not been sent yet");
        (Ev_close, "close queues a FIN; the state moves when the FIN is emitted (send_fin)");
        (Ev_expire_2msl, "no quiet-time timer during the handshake") ]
  | Established ->
      [ (Ev_passive_open, "connection already open");
        (Ev_active_open, "connection already open");
        (Ev_rcv_syn, "stray SYN on a synchronized connection: dropped");
        (Ev_rcv_syn_ack, "SYN-ACK retransmission: our ACK is regenerated, no state change");
        (Ev_rcv_ack_of_syn, "duplicate handshake ACK: benign");
        (Ev_fin_acked, "no FIN outstanding");
        (Ev_close, "close queues a FIN; the state moves when the FIN is emitted (send_fin)");
        (Ev_expire_2msl, "no quiet-time timer while open") ]
  | Fin_wait_1 ->
      [ (Ev_passive_open, "connection already open");
        (Ev_active_open, "connection already open");
        (Ev_rcv_syn, "stray SYN on a synchronized connection: dropped");
        (Ev_rcv_syn_ack, "handshake long done: duplicate, dropped");
        (Ev_rcv_ack_of_syn, "handshake long done: duplicate, dropped");
        (Ev_send_fin, "FIN retransmission leaves the state alone");
        (Ev_close, "already closing");
        (Ev_expire_2msl, "no quiet-time timer before TIME_WAIT") ]
  | Fin_wait_2 ->
      [ (Ev_passive_open, "connection already open");
        (Ev_active_open, "connection already open");
        (Ev_rcv_syn, "stray SYN on a synchronized connection: dropped");
        (Ev_rcv_syn_ack, "handshake long done: duplicate, dropped");
        (Ev_rcv_ack_of_syn, "handshake long done: duplicate, dropped");
        (Ev_send_fin, "our FIN is already acknowledged; nothing to send");
        (Ev_fin_acked, "our FIN is already acknowledged; duplicate ACK");
        (Ev_close, "already closing");
        (Ev_expire_2msl, "no quiet-time timer before TIME_WAIT") ]
  | Close_wait ->
      [ (Ev_passive_open, "connection already open");
        (Ev_active_open, "connection already open");
        (Ev_rcv_syn, "stray SYN on a synchronized connection: dropped");
        (Ev_rcv_syn_ack, "handshake long done: duplicate, dropped");
        (Ev_rcv_ack_of_syn, "handshake long done: duplicate, dropped");
        (Ev_rcv_fin, "FIN retransmission: duplicate, re-ACKed");
        (Ev_fin_acked, "our FIN, if queued by close, has not been sent yet");
        (Ev_close, "close queues a FIN; the state moves when the FIN is emitted (send_fin)");
        (Ev_expire_2msl, "no quiet-time timer before TIME_WAIT") ]
  | Closing ->
      [ (Ev_passive_open, "connection already open");
        (Ev_active_open, "connection already open");
        (Ev_rcv_syn, "stray SYN on a synchronized connection: dropped");
        (Ev_rcv_syn_ack, "handshake long done: duplicate, dropped");
        (Ev_rcv_ack_of_syn, "handshake long done: duplicate, dropped");
        (Ev_send_fin, "FIN retransmission leaves the state alone");
        (Ev_rcv_fin, "FIN retransmission: duplicate, re-ACKed");
        (Ev_close, "already closing");
        (Ev_expire_2msl, "no quiet-time timer before TIME_WAIT") ]
  | Last_ack ->
      [ (Ev_passive_open, "connection already open");
        (Ev_active_open, "connection already open");
        (Ev_rcv_syn, "stray SYN on a synchronized connection: dropped");
        (Ev_rcv_syn_ack, "handshake long done: duplicate, dropped");
        (Ev_rcv_ack_of_syn, "handshake long done: duplicate, dropped");
        (Ev_send_fin, "FIN retransmission leaves the state alone");
        (Ev_rcv_fin, "FIN retransmission: duplicate, re-ACKed");
        (Ev_close, "already closing");
        (Ev_expire_2msl, "no quiet-time timer before TIME_WAIT") ]
  | Time_wait ->
      [ (Ev_passive_open, "endpoint quiet time: reincarnation goes through the registry wheel");
        (Ev_active_open, "endpoint quiet time: reincarnation goes through the registry wheel");
        (Ev_rcv_syn, "SYN for a reincarnation is the registry's tw_claim, not a transition here");
        (Ev_rcv_syn_ack, "stray segment during quiet time: dropped");
        (Ev_rcv_ack_of_syn, "stray segment during quiet time: dropped");
        (Ev_send_fin, "both FINs exchanged; nothing to send");
        (Ev_rcv_fin, "FIN retransmission: duplicate, re-ACKed, 2MSL restarts without transition");
        (Ev_fin_acked, "our FIN was acknowledged on entry; duplicate ACK");
        (Ev_close, "already closed locally") ]

(* {2 Packed witnesses: what the engine stores} *)

module Packed = struct
  type t = P : 's state -> t

  let state (P w) = w.tag
  let active_open () = P (step (closed ()) Active_open)
  let passive_accept () = P (step (step (closed ()) Passive_open) Rcv_syn)
  let import () = P { tag = State.Established; spent = false }

  (* Analysis/test entry only: a witness parked at an arbitrary state,
     with no typed pedigree.  proto-check uses it to drive the runtime
     machine over the whole relation; engine code must not. *)
  let at tag = P { tag; spent = false }

  let check_shadow (P w) shadow =
    if w.tag <> shadow then
      raise (Violation (Shadow_divergence { witness = w.tag; shadow }))

  let apply (P w) tr = P (advance w ~src:(source tr) ~dst:(target tr))

  (* Dynamic proof queries: the bridge from the engine's existential
     storage back to the typed layer.  Each mints a fresh unspent
     witness justified by the packed witness's current tag. *)
  let established (P w) =
    if (not w.spent) && w.tag = State.Established then
      Some ({ tag = State.Established; spent = false } : [ `Established ] state)
    else None

  let syn_sent (P w) =
    if (not w.spent) && w.tag = State.Syn_sent then
      Some ({ tag = State.Syn_sent; spent = false } : [ `Syn_sent ] state)
    else None

  let send_permit (P w) =
    if (not w.spent) && List.mem w.tag send_states then Some (Send_permit w.tag) else None

  let bqi_permit (P w) =
    if (not w.spent) && List.mem w.tag bqi_states then Some (Bqi_permit w.tag) else None

  let option_permit (P w) =
    if (not w.spent) && List.mem w.tag opt_states then Some (Option_permit w.tag) else None

  (* Runtime dispatch: state x event -> witness application.  This is
     the hand-written double of the declared relation; proto-check
     walks every (state, event) pair through it and fails the build on
     any divergence from [edges] + [ignored]. *)
  let apply_event p ev =
    let open State in
    match (state p, ev) with
    | Closed, Ev_passive_open -> Ok (apply p Passive_open)
    | Closed, Ev_active_open -> Ok (apply p Active_open)
    | Listen, Ev_rcv_syn -> Ok (apply p Rcv_syn)
    | Listen, Ev_close -> Ok (apply p Close_listen)
    | Listen, Ev_abort -> Ok (apply p Abort_listen)
    | Syn_sent, Ev_rcv_syn_ack -> Ok (apply p Rcv_syn_ack)
    | Syn_sent, Ev_rcv_syn -> Ok (apply p Simultaneous_syn)
    | Syn_sent, Ev_close -> Ok (apply p Close_syn_sent)
    | Syn_sent, Ev_abort -> Ok (apply p Abort_syn_sent)
    | Syn_received, Ev_rcv_ack_of_syn -> Ok (apply p Rcv_ack_of_syn)
    | Syn_received, Ev_send_fin -> Ok (apply p Send_fin_syn_received)
    | Syn_received, Ev_abort -> Ok (apply p Abort_syn_received)
    | Established, Ev_send_fin -> Ok (apply p Send_fin_established)
    | Established, Ev_rcv_fin -> Ok (apply p Rcv_fin_established)
    | Established, Ev_abort -> Ok (apply p Abort_established)
    | Fin_wait_1, Ev_rcv_fin -> Ok (apply p Rcv_fin_fin_wait_1)
    | Fin_wait_1, Ev_fin_acked -> Ok (apply p Fin_acked_fin_wait_1)
    | Fin_wait_1, Ev_abort -> Ok (apply p Abort_fin_wait_1)
    | Fin_wait_2, Ev_rcv_fin -> Ok (apply p Rcv_fin_fin_wait_2)
    | Fin_wait_2, Ev_abort -> Ok (apply p Abort_fin_wait_2)
    | Close_wait, Ev_send_fin -> Ok (apply p Send_fin_close_wait)
    | Close_wait, Ev_abort -> Ok (apply p Abort_close_wait)
    | Closing, Ev_fin_acked -> Ok (apply p Fin_acked_closing)
    | Closing, Ev_abort -> Ok (apply p Abort_closing)
    | Last_ack, Ev_fin_acked -> Ok (apply p Fin_acked_last_ack)
    | Last_ack, Ev_abort -> Ok (apply p Abort_last_ack)
    | Time_wait, Ev_expire_2msl -> Ok (apply p Expire_2msl)
    | Time_wait, Ev_abort -> Ok (apply p Abort_time_wait)
    | s, e -> (
        match List.assoc_opt e (ignored s) with
        | Some reason -> Error (`Ignored reason)
        | None ->
            Error
              (`Invalid
                (Printf.sprintf "unhandled pair: %s x %s" (State.to_string s) (event_name e))))

  (* Retiring a connection record: pick the edge to Closed that matches
     how the engine got here.  [clean] is finish_cleanly (local close
     before sync, final FIN ack, 2MSL expiry); otherwise it is an
     abort/reset/error teardown. *)
  let retire p ~clean =
    let open State in
    match (state p, clean) with
    | Closed, _ -> p
    | Listen, true -> apply p Close_listen
    | Syn_sent, true -> apply p Close_syn_sent
    | Last_ack, true -> apply p Fin_acked_last_ack
    | Time_wait, true -> apply p Expire_2msl
    | Listen, false -> apply p Abort_listen
    | Syn_sent, false -> apply p Abort_syn_sent
    | Syn_received, _ -> apply p Abort_syn_received
    | Established, _ -> apply p Abort_established
    | Fin_wait_1, _ -> apply p Abort_fin_wait_1
    | Fin_wait_2, _ -> apply p Abort_fin_wait_2
    | Close_wait, _ -> apply p Abort_close_wait
    | Closing, _ -> apply p Abort_closing
    | Last_ack, false -> apply p Abort_last_ack
    | Time_wait, false -> apply p Abort_time_wait
end
