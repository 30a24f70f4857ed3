(* The shared-stack organizations: Ultrix (in-kernel), Mach/UX (one
   trusted server, with the device mapped or behind a message driver)
   and dedicated servers.  All run the same BSD stack, shared by every
   application on the host.  They differ only in which boundaries an
   application call, a sent frame and a received frame cross, and in
   what each crossing costs (paper §2, Figure 1).  A [boundary] value
   says that for one organization; one builder and one socket facade
   serve all four.

   The kernel runs one stack per CPU, SO_REUSEPORT-style: each socket
   lives on the stack of its application's CPU, a port->CPU steering
   table sends inbound TCP/UDP/RRP traffic to the right netisr, and ARP
   broadcasts reach every stack (so all of them resolve link
   addresses).  Whether those netisrs run in parallel is the
   Tcp_params.smp_locking ablation: `Big_lock serializes every
   Stack.input under one kernel lock (splnet as a single mutex, as in
   contemporary BSD/Ultrix); `Per_conn locks only the target stack.  A
   1-CPU machine has one stack, no lock and no steering.  A server runs
   one stack on the boot CPU whatever the machine's size. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Mailbox = Uln_engine.Mailbox
module Mutex = Uln_engine.Mutex
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Nic = Uln_net.Nic
module Frame = Uln_net.Frame
module Stack = Uln_proto.Stack
module Proto_env = Uln_proto.Proto_env
module Tcp_params = Uln_proto.Tcp_params
module Tcp = Uln_proto.Tcp
module Udp = Uln_proto.Udp
module Rrp = Uln_proto.Rrp

(* What a socket call carries into the stack. *)
type call =
  | Open  (* socket(), bind(), connect() *)
  | Ctl of int  (* a control call with an n-byte argument *)
  | Accept
  | Put of int  (* n bytes of data *)
  | Get  (* a receive, before the stack has data *)
  | Upcall of int  (* the stack hands an n-byte request to the application *)

(* What the reply carries back out.  [Got (n, slept)]: n bytes, and
   whether the caller slept waiting for them. *)
type reply = Accepted | Got of int * bool | Eof

type t = {
  boundary : boundary;
  machine : Machine.t;
  an1 : bool;  (* the NIC is an AN1 controller *)
  stacks : Stack.t array;  (* one per CPU in the kernel, else one *)
  (* [||] with one stack; [|bkl|] under `Big_lock; one lock per stack
     under `Per_conn. *)
  locks : Mutex.t array;
  port_cpu : (int, int) Hashtbl.t;
  ephemeral : Port_space.t; (* TCP connects and RRP clients *)
  rrp_clients : (int, unit) Hashtbl.t;
}

and boundary = {
  per_cpu : bool;  (* one stack per CPU, or one on the boot CPU *)
  call : t -> Cpu.t -> call -> unit;  (* before the stack runs *)
  reply : t -> Cpu.t -> reply -> unit;  (* after it *)
  tx : Machine.t -> Cpu.t -> Frame.t -> unit;  (* a sent frame, before the device *)
  rx : rx;
}

(* A received frame on its way to the stack: one [thread] per stack
   pays [frame] for each frame.  A [dispatched] thread is a scheduled
   process, so each wakeup costs the wakeup latency and a context
   switch; a [batched] one drains every frame that arrived meanwhile. *)
and rx = {
  thread : string;
  dispatched : bool;
  batched : bool;
  frame : Machine.t -> Cpu.t -> Frame.t -> unit;
}

(* --- the four organizations ---------------------------------------------- *)

(* Data movement between user and kernel: bcopy for small writes (plus
   mbuf chaining), page remap for large ones (paper S4). *)
let copy_or_remap (c : Costs.t) cpu len =
  if len < Calibration.copy_eliminate_threshold then begin
    Cpu.use cpu (Time.ns (len * c.Costs.copy_per_byte_ns));
    Cpu.use cpu Calibration.small_write_buffering
  end
  else Cpu.use cpu (Time.span_scale c.Costs.vm_remap ((len + 4095) / 4096))

(* Ultrix: a trap per call, the socket layer on data calls, and the
   data copied or remapped across; input demultiplexing is an
   in-kernel PCB lookup. *)
let ultrix =
  let syscall (c : Costs.t) = Time.span_add c.Costs.trap c.Costs.socket_layer in
  { per_cpu = true;
    call =
      (fun t cpu op ->
        let c = t.machine.Machine.costs in
        match op with
        | Open ->
            Cpu.use cpu (syscall c);
            Cpu.use cpu Calibration.bsd_socket_create;
            (* The AN1 driver programs a controller flow slot per
               connection — why the paper's Ultrix setup is slower on
               AN1 than Ethernet. *)
            if t.an1 then Cpu.use cpu c.Costs.an1_driver_setup
        | Ctl _ | Accept -> Cpu.use cpu c.Costs.trap
        | Put n ->
            Cpu.use cpu (syscall c);
            copy_or_remap c cpu n
        | Get -> Cpu.use cpu (syscall c)
        | Upcall _ -> Cpu.use cpu (Time.span_scale c.Costs.trap 2));
    reply =
      (fun t cpu r ->
        let c = t.machine.Machine.costs in
        match r with
        | Got (n, slept) ->
            if slept then begin
              (* sowakeup: the sleeping process is rescheduled. *)
              Sched.sleep t.machine.Machine.sched c.Costs.wakeup_latency;
              Cpu.use cpu c.Costs.context_switch
            end;
            copy_or_remap c cpu n
        | Accepted | Eof -> ());
    tx = (fun _ _ _ -> ());
    rx =
      { thread = "netisr";
        dispatched = false;
        batched = false;
        frame = (fun m cpu _ -> Cpu.use cpu m.Machine.costs.Costs.demux_inkernel) } }

let msg (c : Costs.t) len =
  Time.span_add c.Costs.ipc_fixed (Time.ns (len * c.Costs.ipc_per_byte_ns))

(* One message into a user-level server and its dispatch. *)
let hop (m : Machine.t) cpu len =
  let c = m.Machine.costs in
  Cpu.use cpu (msg c len);
  Sched.sleep m.Machine.sched c.Costs.wakeup_latency;
  Cpu.use cpu c.Costs.context_switch

let frame_bytes (f : Frame.t) = Mbuf.length f.Frame.payload

(* A server organization: every call is one RPC ([rpc m cpu req rep]),
   charged once the call can complete, and a connect is three of them
   (socket, bind, connect). *)
let server ~rpc ~tx ~rx =
  { per_cpu = false;
    call =
      (fun t cpu op ->
        let m = t.machine in
        match op with
        | Open ->
            rpc m cpu 16 0;
            rpc m cpu 16 0;
            rpc m cpu 32 0;
            Cpu.use cpu Calibration.bsd_socket_create
        | Ctl n | Put n | Upcall n -> rpc m cpu n 0
        | Accept | Get -> ());
    reply =
      (fun t cpu r ->
        match r with
        | Accepted -> rpc t.machine cpu 32 0
        | Got (n, _) -> rpc t.machine cpu 0 n
        | Eof -> rpc t.machine cpu 0 0);
    tx;
    rx }

(* Mach/UX: request and reply messages with the UX server's BSD
   emulation between them, and per-segment emulation on input.  With
   [`Message] every packet also crosses kernel<->server through the
   driver's message interface. *)
let mach_ux variant =
  let driver m cpu f =
    match variant with `Mapped -> () | `Message -> Cpu.use cpu (msg m.Machine.costs (frame_bytes f))
  in
  server
    ~rpc:(fun m cpu req rep ->
      hop m cpu req;
      Cpu.use cpu Calibration.ux_socket_op;
      hop m cpu rep)
    ~tx:driver
    ~rx:
      { thread = "ux_server";
        dispatched = true;
        batched = true;
        frame =
          (fun m cpu f ->
            driver m cpu f;
            Cpu.use cpu
              (Time.span_add m.Machine.costs.Costs.demux_inkernel Calibration.ux_per_segment)) }

(* Dedicated servers: a protocol server and a device server, so every
   packet takes one more hop and the device server demultiplexes in
   software.  The baseline charges a call's data on its first hop,
   whichever way the data flows. *)
let dedicated =
  server
    ~rpc:(fun m cpu req rep ->
      hop m cpu (req + rep);
      hop m cpu 0)
    ~tx:(fun m cpu f -> hop m cpu (frame_bytes f))
    ~rx:
      { thread = "devserver";
        dispatched = true;
        batched = false;
        frame =
          (fun m cpu f ->
            Cpu.use cpu m.Machine.costs.Costs.demux_software;
            hop m cpu (frame_bytes f)) }

(* --- the host -------------------------------------------------------------- *)

let cpu_of_port t port =
  match Hashtbl.find_opt t.port_cpu port with Some i -> i | None -> 0

(* Receive steering, reading the same wire offsets the packet filters
   use: TCP and UDP steer by destination port, RRP by server port on
   requests and client port on responses, ARP goes to every stack,
   anything else to CPU 0.  Only the first 44 wire bytes are read: on a
   shorter frame the prefix is the whole frame, and on a longer one
   both length tests below hold either way. *)
let steer t frame =
  let wire = Frame.wire_prefix frame 44 in
  let len = View.length wire in
  if len < 14 then `Cpu 0
  else if View.get_uint16 wire 12 = 0x0806 then `All
  else if View.get_uint16 wire 12 = 0x0800 && len >= 38 then begin
    match View.get_uint8 wire 23 with
    | 6 | 17 -> `Cpu (cpu_of_port t (View.get_uint16 wire 36))
    | 81 ->
        let port =
          if len > 42 && View.get_uint8 wire 42 = 1 then View.get_uint16 wire 34
          else View.get_uint16 wire 36
        in
        `Cpu (cpu_of_port t port)
    | _ -> `Cpu 0
  end
  else `Cpu 0

let with_input_lock t i f =
  let site = "shared_stack.with_input_lock" in
  match Array.length t.locks with
  | 0 -> f ()
  | 1 -> Mutex.with_lock ~site t.locks.(0) f
  | _ -> Mutex.with_lock ~site t.locks.(i) f

let create org machine (nic : Nic.t) ~ip ~tcp_params () =
  let boundary =
    match org with
    | Organization.In_kernel -> ultrix
    | Organization.Single_server variant -> mach_ux variant
    | Organization.Dedicated_servers -> dedicated
    | Organization.User_library -> invalid_arg "Shared_stack.create: user library"
  in
  let n = if boundary.per_cpu then Machine.num_cpus machine else 1 in
  let mname = machine.Machine.name and sched = machine.Machine.sched in
  let costs = machine.Machine.costs in
  let timer_granularity = tcp_params.Tcp_params.timer_granularity in
  let mk_stack i =
    let cpu = Machine.cpu_at machine i in
    let env =
      if i = 0 then Proto_env.of_machine ~timer_granularity machine
      else
        Proto_env.create sched cpu costs ~rng:(Uln_engine.Rng.split machine.Machine.rng)
          ~timer_granularity ()
    in
    (* Transmit device work is charged to the CPU whose stack rang the
       doorbell. *)
    let tx frame =
      boundary.tx machine cpu frame;
      nic.Nic.set_tx_cpu (Some cpu);
      nic.Nic.send frame
    in
    Stack.create env ~netif:{ Stack.mtu = nic.Nic.mtu; mac = nic.Nic.mac; tx } ~ip_addr:ip
      ~tcp_params ()
  in
  let stacks = Array.init n mk_stack in
  let locks =
    if n = 1 then [||]
    else
      match tcp_params.Tcp_params.smp_locking with
      | `Big_lock -> [| Mutex.create ~name:(mname ^ ".bkl") ~sched () |]
      | `Per_conn ->
          Array.init n (fun i ->
              Mutex.create ~name:(Printf.sprintf "%s.stack%d.lock" mname i) ~sched ())
  in
  let t =
    { boundary; machine; an1 = nic.Nic.bqi <> None; stacks; locks; port_cpu = Hashtbl.create 16;
      ephemeral = Port_space.create ~first:49153 ~lo:49152 ~hi:65535 ();
      rrp_clients = Hashtbl.create 16 }
  in
  let qs = Array.init n (fun _ -> Mailbox.create ()) in
  nic.Nic.install_rx (fun info ->
      let frame = info.Nic.frame in
      match if n = 1 then `Cpu 0 else steer t frame with
      | `All -> Array.iter (fun q -> Mailbox.send q frame) qs
      | `Cpu i -> Mailbox.send qs.(i) frame);
  (* Interrupt + DMA-touch costs follow the steering decision (RSS):
     ARP broadcasts and unknown flows interrupt the boot CPU. *)
  if n > 1 then
    nic.Nic.install_rx_steer (fun info ->
        match steer t info.Nic.frame with
        | `All | `Cpu 0 -> None
        | `Cpu i -> Some (Machine.cpu_at machine i));
  Array.iteri
    (fun i q ->
      let cpu = Machine.cpu_at machine i in
      let input frame =
        with_input_lock t i (fun () ->
            boundary.rx.frame machine cpu frame;
            Stack.input stacks.(i) frame)
      in
      let rec drain () =
        match Mailbox.try_recv q with
        | Some frame ->
            input frame;
            drain ()
        | None -> ()
      in
      let rec loop () =
        let frame = Mailbox.recv q in
        if boundary.rx.dispatched then begin
          Sched.sleep sched costs.Costs.wakeup_latency;
          Cpu.use cpu costs.Costs.context_switch
        end;
        input frame;
        if boundary.rx.batched then drain ();
        loop ()
      in
      Sched.spawn sched ~name:(Printf.sprintf "%s.%s%d" mname boundary.rx.thread i) loop)
    qs;
  t

let stacks t = Array.to_list t.stacks

(* A port is held while a listener or connection of any stack (TIME_WAIT
   included) or an open RRP client has it. *)
let ephemeral t =
  Port_space.take t.ephemeral ~held:(fun p ->
      Hashtbl.mem t.rrp_clients p || Array.exists (fun s -> Tcp.port_in_use s.Stack.tcp p) t.stacks)
  |> Result.map_error (fun Port_space.Exhausted -> "out of ports")

(* --- the socket facade ----------------------------------------------------- *)

let wrap_conn t cpu conn =
  let call op = t.boundary.call t cpu op and reply r = t.boundary.reply t cpu r in
  let send data =
    call (Put (View.length data));
    Tcp.write conn data
  in
  let recv ~max =
    call Get;
    let slept = Tcp.bytes_available conn = 0 in
    let result = Tcp.read conn ~max in
    reply (match result with Some v -> Got (View.length v, slept) | None -> Eof);
    result
  in
  { Sockets.send;
    recv;
    (* No user-level zero-copy path through a shared stack: loaning
       falls back to the copying calls. *)
    alloc_tx = (fun _ -> None);
    send_owned = send;
    recv_loan = recv;
    return_loan = ignore;
    close =
      (fun () ->
        call (Ctl 8);
        Tcp.close conn);
    abort =
      (fun () ->
        call (Ctl 8);
        Tcp.abort conn);
    conn_state = (fun () -> Tcp.state conn);
    conn_fsm = (fun () -> Tcp.fsm conn);
    await_closed = (fun () -> Tcp.await_closed conn) }

let app ?(cpu = 0) t ~name =
  let n = Array.length t.stacks in
  let idx = ((cpu mod n) + n) mod n in
  let cpu = Machine.cpu_at t.machine idx in
  let stack = t.stacks.(idx) in
  let call op = t.boundary.call t cpu op and reply r = t.boundary.reply t cpu r in
  let pin port = if n > 1 then Hashtbl.replace t.port_cpu port idx in
  let connect ~src_port ~dst ~dst_port =
    call Open;
    Result.bind (if src_port = 0 then ephemeral t else Ok src_port) (fun src_port ->
        pin src_port;
        Result.map
          (fun (conn, _established) -> wrap_conn t cpu conn)
          (Tcp.connect stack.Stack.tcp ~src_port ~dst ~dst_port))
  in
  let listen ~port =
    call (Ctl 16);
    pin port;
    let l = Tcp.listen stack.Stack.tcp ~port in
    { Sockets.accept =
        (fun () ->
          call Accept;
          let conn, _established = Tcp.accept l in
          reply Accepted;
          wrap_conn t cpu conn) }
  in
  let udp_bind ~port =
    call (Ctl 16);
    pin port;
    let ep = Udp.bind stack.Stack.udp ~port in
    { Sockets.sendto =
        (fun ~dst ~dst_port data ->
          call (Put (View.length data));
          Udp.sendto stack.Stack.udp ~src_port:port ~dst ~dst_port data);
      recv_from =
        (fun () ->
          call Get;
          let d = Udp.recv ep in
          reply (Got (View.length d.Udp.data, false));
          (d.Udp.src, d.Udp.src_port, d.Udp.data));
      udp_close =
        (fun () ->
          call (Ctl 8);
          Udp.unbind stack.Stack.udp ep) }
  in
  let rrp_client () =
    call (Ctl 16);
    Result.map
      (fun port ->
        pin port;
        Hashtbl.replace t.rrp_clients port ();
        { Sockets.rrp_call =
            (fun ~dst ~dst_port data ->
              call (Put (View.length data));
              let r = Rrp.call stack.Stack.rrp ~src_port:port ~dst ~dst_port data in
              (match r with Ok v -> reply (Got (View.length v, false)) | Error _ -> ());
              r);
          rrp_client_close = (fun () -> Hashtbl.remove t.rrp_clients port) })
      (ephemeral t)
  in
  let rrp_serve ~port handler =
    call (Ctl 16);
    pin port;
    let srv =
      Rrp.serve stack.Stack.rrp ~port (fun req ->
          call (Upcall (View.length req));
          handler req)
    in
    { Sockets.rrp_stop = (fun () -> Rrp.stop stack.Stack.rrp srv) }
  in
  { Sockets.app_name = name;
    app_ip = Uln_proto.Ipv4.my_ip stack.Stack.ip;
    connect;
    listen;
    udp_bind;
    rrp_client;
    rrp_serve;
    exit_app = (fun ~graceful -> ignore graceful) }
