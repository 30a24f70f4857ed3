(* Lossy high-BDP WAN transfer: one bulk stream across the long-delay
   full-duplex path of [World.Wan], with frame loss injected at the
   link.  Runs directly on the host stacks' TCP engines (zero host
   costs) so goodput is limited by windows, loss recovery and the wire —
   exactly the quantities the modern-TCP switches change — and so the
   sender's negotiated-option and recovery diagnostics
   ({!Uln_proto.Tcp.conn_options}) can be read off the connection. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Rng = Uln_engine.Rng
module View = Uln_buf.View
module Link = Uln_net.Link
module Fault = Uln_net.Fault
module World = Uln_core.World
module Stack = Uln_proto.Stack
module Tcp = Uln_proto.Tcp

type result = {
  goodput_mbps : float;  (** application bytes acknowledged / wall time *)
  bytes : int;
  duration_s : float;
  segments_out : int;  (** sender engine, whole run *)
  retransmissions : int;
  sack_rexmits : int;  (** scoreboard-driven hole retransmissions *)
  snd_scale : int;  (** negotiated send-window shift (0 = no scaling) *)
  sack_negotiated : bool;
  cong : string;
  recovery_us : float array;  (** completed loss-recovery episodes, sender *)
}

let measure ?(total_bytes = 8_000_000) ?(write_size = 65536) ?(seed = 7) ~delay ~loss
    ~(params : Uln_proto.Tcp_params.t) () =
  let w =
    World.create ~costs:Uln_host.Costs.zero ~seed ~tcp_params:params ~wan_delay:delay
      ~network:World.Wan ~org:Uln_core.Organization.In_kernel ()
  in
  let sched = World.sched w in
  if loss > 0. then
    Link.set_fault (World.link w) (Fault.create ~rng:(Rng.create ~seed:(seed + 1)) ~drop:loss ());
  let stack i = List.hd (World.host_stacks w i) in
  let sink = (stack 1).Stack.tcp and source = (stack 0).Stack.tcp in
  let received = ref 0 in
  Sched.spawn sched ~name:"wan.sink" (fun () ->
      let l = Tcp.listen sink ~port:5001 in
      let conn, _w = Tcp.accept l in
      let rec drain () =
        match Tcp.read conn ~max:write_size with
        | None -> ()
        | Some v ->
            received := !received + View.length v;
            drain ()
      in
      drain ();
      Tcp.close conn);
  let t0 = ref Time.zero and t1 = ref Time.zero in
  let opts = ref None in
  Sched.block_on sched (fun () ->
      match Tcp.connect source ~src_port:4000 ~dst:(World.host_ip w 1) ~dst_port:5001 with
      | Error e -> failwith ("wan connect: " ^ e)
      | Ok (conn, _w) ->
          t0 := Sched.now sched;
          let chunk = View.create write_size in
          View.fill chunk 'w';
          let remaining = ref total_bytes in
          while !remaining > 0 do
            let n = Stdlib.min write_size !remaining in
            Tcp.write conn (if n = write_size then chunk else View.sub chunk 0 n);
            remaining := !remaining - n
          done;
          Tcp.await_drained conn;
          t1 := Sched.now sched;
          opts := Some (Tcp.conn_options conn);
          Tcp.close conn;
          Tcp.await_closed conn);
  let o = match !opts with Some o -> o | None -> assert false in
  let duration_s = Time.to_us_f (Time.diff !t1 !t0) /. 1e6 in
  { goodput_mbps = float_of_int total_bytes *. 8. /. 1e6 /. Stdlib.max duration_s 1e-9;
    bytes = !received;
    duration_s;
    segments_out = Tcp.segments_out source;
    retransmissions = Tcp.retransmissions source;
    sack_rexmits = o.Tcp.co_sack_rexmits;
    snd_scale = o.Tcp.co_snd_scale;
    sack_negotiated = o.Tcp.co_sack;
    cong = o.Tcp.co_cong;
    recovery_us = Array.of_list (List.rev o.Tcp.co_recovery_us) }
