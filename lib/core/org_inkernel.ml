(* The monolithic in-kernel organization (Ultrix 4.2A baseline).

   One protocol stack lives in the kernel; applications reach it with
   system calls.  Writes below the copy-eliminating threshold pay a
   per-byte copy plus BSD small-mbuf chaining; larger writes use the
   page-remap path (paper S4).  Input demultiplexing is an in-kernel
   PCB lookup.

   On a multiprocessor host (Machine ~cpus > 1) the kernel runs one
   protocol stack per CPU, SO_REUSEPORT-style: each socket lives on the
   stack of its application's CPU, a port->CPU steering table sends
   inbound TCP/UDP/RRP traffic to the right netisr, and ARP broadcasts
   reach every stack (so all of them resolve link addresses).  Whether
   those netisrs actually run in parallel is the Tcp_params.smp_locking
   ablation: `Big_lock serializes every Stack.input under one kernel
   lock (faithful to contemporary BSD/Ultrix — splnet as a single
   mutex); `Per_conn locks only the target stack, so connections
   steered to different CPUs proceed concurrently.  Syscall-side socket
   work is charged to the application's CPU outside the lock (sosend
   and soreceive drop it while sleeping).  A 1-CPU machine takes the
   original single-stack, lock-free code path, byte-identically. *)

module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Mailbox = Uln_engine.Mailbox
module Mutex = Uln_engine.Mutex
module View = Uln_buf.View
module Ip = Uln_addr.Ip
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Nic = Uln_net.Nic
module Frame = Uln_net.Frame
module Stack = Uln_proto.Stack
module Proto_env = Uln_proto.Proto_env
module Tcp = Uln_proto.Tcp

type t = {
  machine : Machine.t;
  stacks : Stack.t array;
  (* [||] on a uniprocessor (no locking); [|bkl|] under `Big_lock; one
     lock per stack under `Per_conn. *)
  locks : Mutex.t array;
  port_cpu : (int, int) Hashtbl.t;
  mutable ephemeral : int;
  an1 : bool; (* connects pay the controller flow-slot/BQI driver setup *)
}

let stack t = t.stacks.(0)

(* Serialize one netisr's input processing per the locking ablation. *)
let with_input_lock t i f =
  let site = "org_inkernel.with_input_lock" in
  match Array.length t.locks with
  | 0 -> f ()
  | 1 -> Mutex.with_lock ~site t.locks.(0) f
  | _ -> Mutex.with_lock ~site t.locks.(i) f

let cpu_of_port t port =
  match Hashtbl.find_opt t.port_cpu port with Some i -> i | None -> 0

(* Receive steering for the multiprocessor path, reading the same wire
   offsets the packet filters use: TCP and UDP steer by destination
   port, RRP by server port on requests and client port on responses,
   ARP goes to every stack (each must learn link addresses), anything
   else to CPU 0.  Only the first 44 wire bytes are read: on a shorter
   frame the prefix is the whole frame, and on a longer one both length
   tests below hold either way. *)
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

let create machine (nic : Nic.t) ~ip ?tcp_params () =
  let costs = machine.Machine.costs in
  let tg =
    Option.map (fun p -> p.Uln_proto.Tcp_params.timer_granularity) tcp_params
  in
  let n = Machine.num_cpus machine in
  if n = 1 then begin
    (* The pre-SMP kernel, verbatim: one stack, one netisr, no locks. *)
    let env = Proto_env.of_machine ?timer_granularity:tg machine in
    let stack =
      Stack.create env
        ~netif:{ Stack.mtu = nic.Nic.mtu; mac = nic.Nic.mac; tx = nic.Nic.send }
        ~ip_addr:ip ?tcp_params ()
    in
    let rxq = Mailbox.create () in
    nic.Nic.install_rx (fun info -> Mailbox.send rxq info.Nic.frame);
    let rec rx_loop () =
      let frame = Mailbox.recv rxq in
      (* In-kernel dispatch: protocol-control-block lookup. *)
      Cpu.use machine.Machine.cpu costs.Costs.demux_inkernel;
      Stack.input stack frame;
      rx_loop ()
    in
    Sched.spawn machine.Machine.sched ~name:(machine.Machine.name ^ ".netisr") rx_loop;
    { machine;
      stacks = [| stack |];
      locks = [||];
      port_cpu = Hashtbl.create 16;
      ephemeral = 49152;
      an1 = nic.Nic.bqi <> None }
  end
  else begin
    let locking =
      match tcp_params with
      | Some p -> p.Uln_proto.Tcp_params.smp_locking
      | None -> Uln_proto.Tcp_params.default.Uln_proto.Tcp_params.smp_locking
    in
    let mname = machine.Machine.name in
    let sched = machine.Machine.sched in
    let mk_stack i =
      let env =
        if i = 0 then Proto_env.of_machine ?timer_granularity:tg machine
        else
          Proto_env.create sched machine.Machine.cpus.(i) costs
            ~rng:(Uln_engine.Rng.split machine.Machine.rng) ?timer_granularity:tg ()
      in
      (* Transmit device work is charged to the CPU whose stack rang
         the doorbell. *)
      let tx frame =
        nic.Nic.set_tx_cpu (Some machine.Machine.cpus.(i));
        nic.Nic.send frame
      in
      Stack.create env
        ~netif:{ Stack.mtu = nic.Nic.mtu; mac = nic.Nic.mac; tx }
        ~ip_addr:ip ?tcp_params ()
    in
    let stacks = Array.init n mk_stack in
    let locks =
      match locking with
      | `Big_lock -> [| Mutex.create ~name:(mname ^ ".bkl") ~sched () |]
      | `Per_conn ->
          Array.init n (fun i ->
              Mutex.create ~name:(Printf.sprintf "%s.stack%d.lock" mname i) ~sched ())
    in
    let t =
      { machine;
        stacks;
        locks;
        port_cpu = Hashtbl.create 16;
        ephemeral = 49152;
        an1 = nic.Nic.bqi <> None }
    in
    let qs = Array.init n (fun _ -> Mailbox.create ()) in
    nic.Nic.install_rx (fun info ->
        match steer t info.Nic.frame with
        | `All -> Array.iter (fun q -> Mailbox.send q info.Nic.frame) qs
        | `Cpu i -> Mailbox.send qs.(i) info.Nic.frame);
    (* Interrupt + DMA-touch costs follow the steering decision (RSS):
       ARP broadcasts and unknown flows interrupt the boot CPU. *)
    nic.Nic.install_rx_steer (fun info ->
        match steer t info.Nic.frame with
        | `All -> None
        | `Cpu 0 -> None
        | `Cpu i -> Some machine.Machine.cpus.(i));
    for i = 0 to n - 1 do
      let rec rx_loop () =
        let frame = Mailbox.recv qs.(i) in
        with_input_lock t i (fun () ->
            Cpu.use machine.Machine.cpus.(i) costs.Costs.demux_inkernel;
            Stack.input stacks.(i) frame);
        rx_loop ()
      in
      Sched.spawn sched ~name:(Printf.sprintf "%s.netisr%d" mname i) rx_loop
    done;
    t
  end

let charge_on cpu span = Cpu.use cpu span

(* Data movement between user and kernel: bcopy for small writes (plus
   mbuf chaining), page remap for large ones. *)
let charge_data_crossing t cpu len =
  let c = t.machine.Machine.costs in
  if len < Calibration.copy_eliminate_threshold then begin
    charge_on cpu (Time.ns (len * c.Costs.copy_per_byte_ns));
    charge_on cpu Calibration.small_write_buffering
  end
  else charge_on cpu (Time.span_scale c.Costs.vm_remap ((len + 4095) / 4096))

let wrap_conn t cpu conn =
  let c = t.machine.Machine.costs in
  let charge = charge_on cpu in
  let send data =
    charge (Time.span_add c.Costs.trap c.Costs.socket_layer);
    charge_data_crossing t cpu (View.length data);
    Tcp.write conn data
  in
  let recv ~max =
    charge (Time.span_add c.Costs.trap c.Costs.socket_layer);
    let was_blocked = Tcp.bytes_available conn = 0 in
    let result = Tcp.read conn ~max in
    (match result with
    | Some v ->
        if was_blocked then begin
          (* sowakeup: the sleeping process is rescheduled. *)
          Sched.sleep t.machine.Machine.sched c.Costs.wakeup_latency;
          charge c.Costs.context_switch
        end;
        charge_data_crossing t cpu (View.length v)
    | None -> ());
    result
  in
  { Sockets.send;
    recv;
    (* No user-level zero-copy path through the kernel socket layer:
       loaning falls back to the copying calls. *)
    alloc_tx = (fun _ -> None);
    send_owned = send;
    recv_loan = recv;
    return_loan = (fun _ -> ());
    close = (fun () -> charge c.Costs.trap; Tcp.close conn);
    abort = (fun () -> charge c.Costs.trap; Tcp.abort conn);
    conn_state = (fun () -> Tcp.state conn);
    conn_fsm = (fun () -> Tcp.fsm conn);
    await_closed = (fun () -> Tcp.await_closed conn) }

let app ?(cpu = 0) t ~name =
  let c = t.machine.Machine.costs in
  let n = Array.length t.stacks in
  let idx = ((cpu mod n) + n) mod n in
  let cpu = Machine.cpu_at t.machine idx in
  let stack = t.stacks.(idx) in
  let charge span = charge_on cpu span in
  let pin port = if n > 1 then Hashtbl.replace t.port_cpu port idx in
  let connect ~src_port ~dst ~dst_port =
    charge (Time.span_add c.Costs.trap c.Costs.socket_layer);
    charge Calibration.bsd_socket_create;
    (* The AN1 driver programs a controller flow slot per connection —
       why the paper's Ultrix setup is slower on AN1 than Ethernet. *)
    if t.an1 then charge c.Costs.an1_driver_setup;
    let src_port =
      if src_port = 0 then begin
        t.ephemeral <- t.ephemeral + 1;
        t.ephemeral
      end
      else src_port
    in
    pin src_port;
    match Tcp.connect stack.Stack.tcp ~src_port ~dst ~dst_port with
    | Ok (conn, _established) -> Ok (wrap_conn t cpu conn)
    | Error e -> Error e
  in
  let listen ~port =
    charge c.Costs.trap;
    pin port;
    let l = Tcp.listen stack.Stack.tcp ~port in
    { Sockets.accept =
        (fun () ->
          charge c.Costs.trap;
          wrap_conn t cpu (fst (Tcp.accept l))) }
  in
  let udp_bind ~port =
    charge c.Costs.trap;
    pin port;
    let ep = Uln_proto.Udp.bind stack.Stack.udp ~port in
    { Sockets.sendto =
        (fun ~dst ~dst_port data ->
          charge (Time.span_add c.Costs.trap c.Costs.socket_layer);
          charge_data_crossing t cpu (View.length data);
          Uln_proto.Udp.sendto stack.Stack.udp ~src_port:port ~dst ~dst_port data);
      recv_from =
        (fun () ->
          charge (Time.span_add c.Costs.trap c.Costs.socket_layer);
          let d = Uln_proto.Udp.recv ep in
          charge_data_crossing t cpu (View.length d.Uln_proto.Udp.data);
          (d.Uln_proto.Udp.src, d.Uln_proto.Udp.src_port, d.Uln_proto.Udp.data));
      udp_close =
        (fun () ->
          charge c.Costs.trap;
          Uln_proto.Udp.unbind stack.Stack.udp ep) }
  in
  let rrp_client () =
    charge c.Costs.trap;
    t.ephemeral <- t.ephemeral + 1;
    let port = t.ephemeral in
    pin port;
    { Sockets.rrp_call =
        (fun ~dst ~dst_port data ->
          charge (Time.span_add c.Costs.trap c.Costs.socket_layer);
          charge_data_crossing t cpu (View.length data);
          let r = Uln_proto.Rrp.call stack.Stack.rrp ~src_port:port ~dst ~dst_port data in
          (match r with Ok v -> charge_data_crossing t cpu (View.length v) | Error _ -> ());
          r);
      rrp_client_close = (fun () -> ()) }
  in
  let rrp_serve ~port handler =
    charge c.Costs.trap;
    pin port;
    let srv =
      Uln_proto.Rrp.serve stack.Stack.rrp ~port (fun req ->
          (* Upcall into the application: kernel boundary both ways. *)
          Cpu.use cpu (Time.span_scale c.Costs.trap 2);
          handler req)
    in
    { Sockets.rrp_stop = (fun () -> Uln_proto.Rrp.stop stack.Stack.rrp srv) }
  in
  { Sockets.app_name = name;
    app_ip = Uln_proto.Ipv4.my_ip stack.Stack.ip;
    connect;
    listen;
    udp_bind;
    rrp_client;
    rrp_serve;
    exit_app = (fun ~graceful -> ignore graceful) }
