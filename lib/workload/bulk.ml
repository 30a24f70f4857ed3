module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Stats = Uln_engine.Stats
module View = Uln_buf.View
module World = Uln_core.World
module Sockets = Uln_core.Sockets

type result = {
  mbps : float;
  bytes : int;
  duration : Time.span;
  retransmissions : int;
}

let run ?(total_bytes = 4_000_000) ~write_size w =
  let sched = World.sched w in
  let meter = Stats.Meter.create "rx" in
  let sender_retransmits = ref 0 in
  let server_app = World.app w ~host:1 "sink" in
  let client_app = World.app w ~host:0 "source" in
  Sched.spawn sched ~name:"sink" (fun () ->
      let l = server_app.Sockets.listen ~port:5001 in
      let conn = l.Sockets.accept () in
      (* Consume through the loaning receive path where the organization
         offers one (it degrades to a copying [recv] everywhere else),
         returning each loan immediately so the window never starves. *)
      let rec drain () =
        match conn.Sockets.recv_loan ~max:65536 with
        | None -> ()
        | Some v ->
            Stats.Meter.mark meter (Sched.now sched) (View.length v);
            conn.Sockets.return_loan v;
            drain ()
      in
      drain ();
      conn.Sockets.close ());
  Sched.block_on sched (fun () ->
      match client_app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:5001 with
      | Error e -> failwith ("bulk connect: " ^ e)
      | Ok conn ->
          let chunk = View.create write_size in
          View.fill chunk 'b';
          let writes = (total_bytes + write_size - 1) / write_size in
          for _ = 1 to writes do
            (* Prefer a loaned transmit buffer (zero-copy organizations);
               fall back to the copying send when the pool is exhausted
               or the path does not loan. *)
            match conn.Sockets.alloc_tx write_size with
            | Some owned ->
                View.fill owned 'b';
                conn.Sockets.send_owned owned
            | None -> conn.Sockets.send chunk
          done;
          conn.Sockets.close ();
          conn.Sockets.await_closed ());
  (match World.host_stacks w 0 with
  | stack :: _ -> sender_retransmits := Uln_proto.Tcp.retransmissions stack.Uln_proto.Stack.tcp
  | [] -> ());
  let bytes = Stats.Meter.total meter in
  { mbps = Stats.Meter.megabits_per_sec meter;
    bytes;
    duration = Time.of_sec_f (float_of_int bytes /. (Stats.Meter.rate_per_sec meter +. 1e-9));
    retransmissions = !sender_retransmits }

let measure ?total_bytes ?tcp_params ~write_size ~network ~org () =
  let w = World.create ?tcp_params ~network ~org () in
  run ?total_bytes ~write_size w
