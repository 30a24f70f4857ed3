(* Exploiting application knowledge (paper §1.1 and §5): "further
   performance advantages may be gained by exploiting application-
   specific knowledge to fine tune a particular instance of a protocol
   ... a specialized variant of a standard protocol is used rather than
   the standard protocol itself.  A different application would use a
   slightly different variant of the same protocol."

   Because the user-level library gives every connection its own engine,
   one application can run an interactive variant (Nagle off, immediate
   ACKs) while another on the same host keeps the bulk-friendly defaults
   — impossible with one shared in-kernel parameter set.

   Run with: dune exec examples/tailored.exe *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module View = Uln_buf.View
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Organization = Uln_core.Organization
module Sockets = Uln_core.Sockets
module Protolib = Uln_core.Protolib

let interactive_params =
  { Tcp_params.default with
    Tcp_params.nagle = false;  (* send small writes immediately *)
    ack_every = 1;  (* acknowledge every segment *)
    delack = Time.ms 1 }

(* A "command" is two small writes back to back (a keystroke followed by
   its escape-sequence tail) answered by a one-byte prompt — the classic
   write-write-read pattern.  With Nagle on, the second write waits for
   the first one's ACK, which the server's delayed-ACK timer holds for
   200 ms because the application will not reply until it has the whole
   command: the textbook small-packet stall. *)
let command_rtt w conn =
  let sched = World.sched w in
  let head = View.create 1 and tail = View.create 2 in
  let n = 20 in
  let t0 = Sched.now sched in
  for _ = 1 to n do
    conn.Sockets.send head;
    conn.Sockets.send tail;
    match conn.Sockets.recv ~max:1 with Some _ -> () | None -> failwith "echo EOF"
  done;
  Time.to_ms_f (Time.diff (Sched.now sched) t0) /. float_of_int n

let run ~tuned =
  let w = World.create ~network:World.Ethernet ~org:Organization.User_library () in
  let sched = World.sched w in
  let echo_srv = World.app w ~host:1 "echo" in
  let term_lib = Option.get (World.library w ~host:0 "terminal") in
  Sched.spawn sched ~name:"echo" (fun () ->
      (* The echo server itself uses the interactive variant too. *)
      let l = echo_srv.Sockets.listen ~port:23 in
      let conn = l.Sockets.accept () in
      let prompt = View.create 1 in
      let rec loop () =
        (* Consume a full 3-byte command before answering. *)
        let got = ref 0 in
        let eof = ref false in
        while !got < 3 && not !eof do
          match conn.Sockets.recv ~max:(3 - !got) with
          | Some v -> got := !got + View.length v
          | None -> eof := true
        done;
        if not !eof then begin
          conn.Sockets.send prompt;
          loop ()
        end
        else conn.Sockets.close ()
      in
      loop ());
  Sched.block_on sched (fun () ->
      let conn =
        if tuned then
          match
            Protolib.connect_q term_lib ~params:interactive_params ~src_port:0
              ~dst:(World.host_ip w 1) ~dst_port:23
          with
          | Ok c -> c
          | Error e -> failwith (Uln_core.Registry.error_to_string e)
        else
          match (Protolib.app term_lib).Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1)
                  ~dst_port:23
          with
          | Ok c -> c
          | Error e -> failwith e
      in
      let rtt = command_rtt w conn in
      conn.Sockets.close ();
      rtt)

let () =
  let stock = run ~tuned:false in
  let tuned = run ~tuned:true in
  Printf.printf "Terminal-style commands (write-write-read) over the user-level library:\n\n";
  Printf.printf "  stock TCP variant (Nagle on, delayed ACKs):      %6.2f ms per command\n" stock;
  Printf.printf "  interactive variant (this connection only):      %6.2f ms per command\n\n" tuned;
  Printf.printf
    "The terminal tuned its own connection's engine — %.1fx faster commands —\n\
     while every other connection on the host keeps the bulk-friendly\n\
     defaults. In a monolithic stack this knob turns for everyone at once.\n"
    (stock /. tuned)
