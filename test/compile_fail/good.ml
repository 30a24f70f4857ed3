(* Sanity check for the compile-fail harness: the full passive-open
   lifecycle, typed end to end.  If this snippet stops compiling, the
   harness flags are wrong and the bad_* rejections prove nothing. *)
module Fsm = Uln_proto.Tcp_fsm

let () =
  let listen = Fsm.step (Fsm.closed ()) Fsm.Passive_open in
  let syn_rcvd = Fsm.step listen Fsm.Rcv_syn in
  (* BQI hints and option negotiation are a handshake affair: fine
     from SYN_RCVD. *)
  let _bqi : Fsm.bqi_permit = Fsm.bqi_exchange syn_rcvd in
  let _opt : Fsm.option_permit = Fsm.negotiate_options syn_rcvd in
  let est = Fsm.step syn_rcvd Fsm.Rcv_ack_of_syn in
  (* Data may flow once ESTABLISHED. *)
  let _send : Fsm.send_permit = Fsm.send_data est in
  let fin_wait_1 = Fsm.step est Fsm.Send_fin_established in
  let fin_wait_2 = Fsm.step fin_wait_1 Fsm.Fin_acked_fin_wait_1 in
  let time_wait = Fsm.step fin_wait_2 Fsm.Rcv_fin_fin_wait_2 in
  let _gone = Fsm.step time_wait Fsm.Expire_2msl in
  ()

(* The registry protocol: a request of the leg's own type. *)
let _listen reg : (unit, Uln_core.Registry.error) result =
  Uln_core.Registry.call reg Uln_core.Registry.Listen 80
