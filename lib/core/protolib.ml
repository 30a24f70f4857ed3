module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Semaphore = Uln_engine.Semaphore
module Rng = Uln_engine.Rng
module View = Uln_buf.View
module Ip = Uln_addr.Ip
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Addr_space = Uln_host.Addr_space
module Nic = Uln_net.Nic
module Shared_mem = Uln_host.Shared_mem
module Stack = Uln_proto.Stack
module Proto_env = Uln_proto.Proto_env
module Tcp = Uln_proto.Tcp

type lib_conn = {
  stack : Stack.t;
  conn : Tcp.conn;
  channel : Netio.channel;
  txpool : Shared_mem.t option; (* transmit loan pool (zero-copy only) *)
  mutable released : bool;
  mutable ops : Sockets.conn option; (* identity for connection passing *)
  mutable retire : (unit -> unit) option;
      (* resource return on final close; [None] = registry release IPC.
         Leased connections return their port and channel to the
         library-local lease instead. *)
}

(* Library-side view of an endpoint lease: the registry's grant plus
   free lists of the ports and channels not currently on a connection.
   A port enters the free list only when its connection has fully closed
   (TIME_WAIT served locally), so quiet periods are respected. *)
type lease_home = {
  lh_grant : Registry.lease_grant;
  lh_free_ports : int Queue.t;
  lh_free_channels : Netio.channel Queue.t;
}

(* One endpoint's registration with the library's receive service.
   Under rx_coalesce a poll episode sweeps {e every} channel of the
   library, so a fan-in of single-frame-per-endpoint arrivals — the
   incast/RPC pattern — pays one notification chain per burst, not one
   per endpoint.  Per-endpoint receive threads cannot buy that
   amortization: each response lands in its own ring and would wake its
   own thread. *)
type rx_entry = {
  re_channel : Netio.channel;
  re_stack : Stack.t;
  re_zc : bool;
  re_learn : bool; (* datagram endpoint: learn peer MACs from frames *)
  re_released : unit -> bool;
}

type bufstats = {
  bs_pool_capacity : int;
  bs_pool_available : int;
  bs_pool_in_use : int;
  bs_pool_exhausted : int;
  bs_loaned_bytes : int;
  bs_tx_doorbells : int;
  bs_tx_batches : int;
  bs_tx_sync_fallbacks : int;
  bs_tx_batch_hist : (int * int) list;
}

type t = {
  machine : Machine.t;
  netio : Netio.t;
  registry : Registry.t;
  name : string;
  host_ip : Ip.t;
  dom : Addr_space.t;
  tcp_params : Uln_proto.Tcp_params.t option;
  (* The application CPU this library is pinned to: every charge the
     library makes (engine, socket ops, receive threads) lands on it,
     and the channels it adopts are steered there.  Index 0 — the
     default, and everything on a 1-CPU machine — is the boot CPU. *)
  cpu_idx : int;
  cpu : Uln_host.Cpu.t;
  mutable conns : lib_conn list;
  (* Endpoint-lease state (endpoint_lease switch). *)
  mutable lease : lease_home option;
  mac_cache : (Ip.t, Uln_addr.Mac.t) Hashtbl.t;
  mutable leased_connects : int;
  mutable lease_fallbacks : int;
  (* TIME_WAIT residues waiting to be parked on the registry wheel
     (time_wait_wheel switch): coalesced into one one-way message per
     batch so the crossing amortizes at churn rate. *)
  mutable tw_residues : (Ip.t * int * int) list;
  mutable tw_flush_armed : bool;
  (* Coalesced-receive service state (rx_coalesce): the channels the
     episode drainer sweeps, and whether an episode is running.  At
     most one fiber drains at a time; signals landing while it runs
     are absorbed by the open episode (the software analogue of
     keeping interrupts masked during a NAPI poll). *)
  mutable rx_entries : rx_entry list;
  mutable rx_draining : bool;
}

let domain t = t.dom
let live_connections t = List.length t.conns
let cpu t = t.cpu

let charge t span = Cpu.use t.cpu span
let costs t = t.machine.Machine.costs

(* A switch of an optional parameter set: off under the stack default. *)
let switch prm f = match prm with Some p -> f p | None -> false

(* Parking a residue must not charge the engine thread mid-segment, so
   the hook only queues; a spawned thread pays for the actual send.
   The flush bounds how long a residue sits local — far inside the
   slack of the FIFO port free list, whose 2MSL clock only starts at
   the registry. *)
let tw_park_batch = 8
let tw_flush_after = Time.ms 20

let tw_flush t =
  match t.tw_residues with
  | [] -> ()
  | rs ->
      t.tw_residues <- [];
      Registry.post t.registry Registry.Park_tw (List.rev rs)

let tw_queue t residue =
  t.tw_residues <- residue :: t.tw_residues;
  if List.length t.tw_residues >= tw_park_batch then
    Sched.spawn t.machine.Machine.sched ~name:(t.name ^ ".tw_flush") (fun () -> tw_flush t)
  else if not t.tw_flush_armed then begin
    t.tw_flush_armed <- true;
    Sched.spawn t.machine.Machine.sched ~name:(t.name ^ ".tw_flush") (fun () ->
        Sched.sleep t.machine.Machine.sched tw_flush_after;
        t.tw_flush_armed <- false;
        tw_flush t)
  end

(* Connectionless endpoints answer arbitrary peers, so they learn link
   addresses from the frames they receive ("discovering ... by examining
   the link-level headers of incoming messages", paper SS3/SS5) instead
   of broadcasting ARP through their templated channel. *)
let learn_peer stack (frame : Uln_net.Frame.t) =
  if frame.Uln_net.Frame.ethertype = Uln_net.Frame.ethertype_ip then begin
    let payload = Uln_buf.Mbuf.flatten frame.Uln_net.Frame.payload in
    if Uln_buf.View.length payload >= 20 then
      Stack.add_static_arp stack
        (Uln_addr.Ip.of_int32 (Uln_buf.View.get_uint32 payload 12))
        frame.Uln_net.Frame.src
  end

(* TCP endpoints know their peer from the handshake; only datagram
   endpoints pay the per-frame flatten. *)
let rx_input e frame =
  if e.re_learn then learn_peer e.re_stack frame;
  Stack.input e.re_stack frame

let drop_txpool lc = match lc.txpool with Some p -> Shared_mem.destroy p | None -> ()

(* Return a closed connection's port and channel: to the lease it came
   from, or to the registry. *)
let retire t lc =
  match lc.retire with
  | Some f -> f ()
  | None ->
      Registry.call t.registry Registry.Release (Tcp.local_port lc.conn, lc.channel)

(* Release the connection's resources once it is fully closed
   (TIME_WAIT served locally by the library). *)
let release t lc =
  if not lc.released then begin
    lc.released <- true;
    drop_txpool lc;
    t.conns <- List.filter (fun c -> c != lc) t.conns;
    retire t lc
  end

(* The transmit loan pool is a separate pinned region, not the channel
   region: on BQI hardware every channel buffer is committed to the
   controller's receive ring, so loans for the send direction need
   their own storage.  Mapped into the application and the kernel,
   like any channel region. *)
let make_txpool t ~zero_copy =
  if not zero_copy then None
  else begin
    let pool =
      Shared_mem.create ~name:(t.name ^ ".txpool") ~count:Calibration.tx_pool_slots
        ~size:Calibration.tx_pool_buffer_size
    in
    Shared_mem.map pool t.dom;
    Shared_mem.map pool t.machine.Machine.kernel;
    Some pool
  end

(* The library's one receive service.  Every channel-backed endpoint —
   TCP connection, UDP port, RRP client or server — gets a receive
   thread that waits on its channel semaphore, drains the shared ring
   and upcalls into the endpoint's engine; under rx_coalesce the
   endpoint also joins the library-wide poll episode. *)
let spawn_rx t e =
  let c = costs t in
  let channel = e.re_channel and zero_copy = e.re_zc and is_released = e.re_released in
  let coalesce = switch t.tcp_params (fun p -> p.Uln_proto.Tcp_params.rx_coalesce) in
  if coalesce then t.rx_entries <- e :: t.rx_entries;
  let pending e =
    (not (e.re_released ()))
    && (try Netio.rx_pending e.re_channel ~from_domain:t.dom
        with Uln_host.Capability.Violation _ -> false)
  in
  (* Coalesced receive (rx_coalesce): one library-wide poll {e episode}
     per notification chain.  The drainer sweeps every channel of the
     library — the first frame of the episode pays the full per-segment
     library price (it bought the thread switch); every further frame,
     from {e any} connection and including ones a later re-check
     discovers, is dispatch bookkeeping only, with the stack-side GRO
     merge doing the rest.  Each stack's burst bracket opens at its
     first frame and stays open for the whole episode, so merging spans
     re-check gaps.  Between re-checks the drainer sleeps (the CPU is
     free); after [gro_quiescent_polls] empty sweeps (or the episode
     budget) every bracket closes, the merge runs flush, and the
     drainer re-arms on its semaphore. *)
  let lib_episode () =
    let sched = t.machine.Machine.sched in
    let rec run () =
      t.rx_entries <- List.filter (fun e -> not (e.re_released ())) t.rx_entries;
      let entries = t.rx_entries in
      let total = ref 0 in
      let opened = ref [] in
      let pop_entry e =
        let rec go () =
          match Netio.rx_pop e.re_channel ~from_domain:t.dom with
          | None -> ()
          | Some frame ->
              if not (List.memq e !opened) then begin
                opened := e :: !opened;
                Stack.begin_rx_burst e.re_stack
              end;
              charge t
                (if !total = 0 then
                   Time.span_add c.Costs.user_thread_switch
                     (if e.re_zc then Calibration.userlib_rx_per_segment_zc
                      else Calibration.userlib_rx_per_segment)
                 else Calibration.userlib_rx_gro_frame);
              incr total;
              rx_input e frame;
              Netio.recycle t.netio e.re_channel;
              go ()
        in
        (* A charge yields the CPU, and a close can finish (revoking the
           channel) during that window: treat the revoked channel as
           drained rather than tearing the whole episode down. *)
        if not (e.re_released ()) then
          try go () with Uln_host.Capability.Violation _ -> ()
      in
      let sweep () = List.iter pop_entry entries in
      let start = Sched.now sched in
      Fun.protect
        ~finally:(fun () -> List.iter (fun e -> Stack.end_rx_burst e.re_stack) !opened)
        (fun () ->
          sweep ();
          let rec settle misses =
            if
              misses < Calibration.gro_quiescent_polls
              && Time.to_us_f (Time.diff (Sched.now sched) start)
                 < Time.to_us_f Calibration.gro_episode_budget
            then begin
              Sched.sleep sched Calibration.gro_poll_interval;
              charge t Calibration.rx_poll_tick;
              let before = !total in
              sweep ();
              if !total > before then settle 0 else settle (misses + 1)
            end
          in
          settle 0);
      if !total > 0 then Netio.note_rx_burst t.netio !total;
      (* Budget ran out mid-flood: frames already in the rings rode
         signals this episode consumed, so open the next episode right
         away instead of stranding them behind the semaphores. *)
      if List.exists pending t.rx_entries then run ()
    in
    run ()
  in
  let rec rx_loop () =
    Semaphore.wait (Netio.rx_sem channel);
    if not (is_released ()) then begin
      (* Frames consumed by the post-drain poll below (or by another
         connection's sweep, or a still-running episode) leave their
         empty->non-empty signal behind; swallow such a stale wakeup
         without charging the notification chain for work already done.
         (The plain copying path never polls, so its signals always
         find work; its accounting is untouched.) *)
      let stale =
        if coalesce then t.rx_draining || not (pending e) else zero_copy && not (pending e)
      in
      if stale then rx_loop ()
      else if coalesce then begin
        (* Become the library's drainer.  Claim the episode before the
           wakeup latency elapses: a sibling's signal arriving during
           the dispatch window is then absorbed by this episode instead
           of buying a second notification chain. *)
        t.rx_draining <- true;
        Fun.protect
          ~finally:(fun () -> t.rx_draining <- false)
          (fun () ->
            Sched.sleep t.machine.Machine.sched c.Costs.wakeup_latency;
            charge t
              (Time.span_add c.Costs.semaphore_wakeup
                 (Time.span_add c.Costs.context_switch Calibration.userlib_batch_overhead));
            lib_episode ());
        rx_loop ()
      end
      else begin
        (* Process wakeup after the kernel's semaphore signal; paid per
           notification, so batching amortizes it. *)
        Sched.sleep t.machine.Machine.sched c.Costs.wakeup_latency;
        charge t
          (Time.span_add c.Costs.semaphore_wakeup
             (Time.span_add c.Costs.context_switch Calibration.userlib_batch_overhead));
        let handle frame =
          charge t
            (Time.span_add c.Costs.user_thread_switch
               (if zero_copy then Calibration.userlib_rx_per_segment_zc
                else Calibration.userlib_rx_per_segment));
          rx_input e frame;
          Netio.recycle t.netio channel
        in
        let rec drain n =
          match Netio.rx_pop channel ~from_domain:t.dom with
          | None -> n
          | Some frame ->
              handle frame;
              drain (n + 1)
        in
        (* Receive-side analogue of doorbell coalescing: once the ring
           runs dry, spin on it (it is mapped — no kernel crossing) for a
           bounded budget before sleeping on the semaphore again.  A
           steady bulk stream then pays the wakeup/notification chain
           once per lull instead of once per frame; the spin itself is
           charged as real CPU time, tick by tick. *)
        let rec poll spent =
          if
            (not (is_released ()))
            && Time.to_us_f spent < Time.to_us_f Calibration.rx_poll_budget
          then begin
            charge t Calibration.rx_poll_tick;
            match Netio.rx_pop channel ~from_domain:t.dom with
            | None -> poll (Time.span_add spent Calibration.rx_poll_tick)
            | Some frame ->
                handle frame;
                Netio.note_rx_burst t.netio (1 + drain 0);
                poll (Time.ns 0)
          end
        in
        (try
           Netio.note_rx_burst t.netio (drain 0);
           if zero_copy then poll (Time.ns 0)
         with Uln_host.Capability.Violation _ -> ());
        rx_loop ()
      end
    end
    else
      (* The connection was handed to another library (or retired to the
         lease): give the wakeup back so the next owner's receive thread
         sees it. *)
      Semaphore.signal (Netio.rx_sem channel)
  in
  Sched.spawn t.machine.Machine.sched ~name:(t.name ^ ".rx") rx_loop

(* The socket operations of one connection. *)
let make_ops t ~zero_copy ~txpool ~conn =
  let c = costs t in
  let charge_write () =
    charge t
      (Time.span_add c.Costs.library_call
         (Time.span_add c.Costs.socket_layer Calibration.userlib_per_write))
  in
  (* A zero-copy send from a buffer {e outside} the loan pool still has
     to make the bytes reachable from pinned memory: small writes are
     copied, large ones remapped page by page — the same
     copy-eliminating threshold the in-kernel socket layer applies. *)
  let charge_crossing len =
    if len < Calibration.copy_eliminate_threshold then begin
      let span = Time.ns (len * c.Costs.copy_per_byte_ns) in
      Cpu.note_data t.cpu Cpu.Copy span;
      Cpu.use t.cpu span
    end
    else charge t (Time.span_scale c.Costs.vm_remap ((len + 4095) / 4096))
  in
  let send data =
    charge_write ();
    if zero_copy then charge_crossing (View.length data);
    Tcp.write conn data
  in
  let recv ~max =
    charge t c.Costs.library_call;
    Tcp.read conn ~max
  in
  let alloc_tx size =
    match txpool with
    | None -> None
    | Some pool ->
        charge t c.Costs.library_call;
        if size <= 0 || size > Shared_mem.buffer_size pool then None
        else (
          match Shared_mem.alloc pool t.dom with
          | None -> None
          | Some v -> Some (View.sub v 0 size))
  in
  let send_owned data =
    charge_write ();
    match txpool with
    | Some pool when Shared_mem.owns pool data ->
        (* The buffer stays referenced by the retransmission queue until
           its last byte is acknowledged; only then does it return to
           the pool.  [is_mapped] guards teardown races: a release that
           fires after the region is torn down is a no-op. *)
        Tcp.write_owned conn data ~release:(fun () ->
            if Shared_mem.is_mapped pool t.dom then Shared_mem.free pool t.dom data)
    | _ ->
        if zero_copy then charge_crossing (View.length data);
        Tcp.write conn data
  in
  let recv_loan ~max =
    charge t c.Costs.library_call;
    if zero_copy then Tcp.read_loan conn ~max else Tcp.read conn ~max
  in
  let return_loan v = if zero_copy then Tcp.return_loan conn (View.length v) in
  { Sockets.send;
    recv;
    alloc_tx;
    send_owned;
    recv_loan;
    return_loan;
    close = (fun () -> Tcp.close conn);
    abort = (fun () -> Tcp.abort conn);
    conn_state = (fun () -> Tcp.state conn);
    conn_fsm = (fun () -> Tcp.fsm conn);
    await_closed = (fun () -> Tcp.await_closed conn) }

(* The one endpoint builder: pin the channel to this library's CPU
   before anything else runs (rx notification, send charges and the
   engine all move with it), then build a private engine on a split of
   the machine's randomness whose transmit enters the kernel through the
   channel.  Under zero copy, transmission goes through the channel's
   descriptor ring: the library queues and rings the doorbell, and one
   kernel drain picks up every descriptor present (doorbell coalescing).
   Datagram endpoints pass no [tcp_params]. *)
let endpoint t ?tcp_params channel =
  let m = t.machine in
  let nic = Netio.nic t.netio in
  Netio.set_channel_affinity t.netio channel t.cpu_idx;
  let env =
    Proto_env.create m.Machine.sched t.cpu m.Machine.costs
      ~rng:(Rng.split m.Machine.rng)
      ?timer_granularity:
        (Option.map (fun p -> p.Uln_proto.Tcp_params.timer_granularity) tcp_params)
      ()
  in
  let zero_copy = switch tcp_params (fun p -> p.Uln_proto.Tcp_params.zero_copy) in
  let tx frame =
    if zero_copy then Netio.send_batched t.netio channel ~from_domain:t.dom frame
    else Netio.send t.netio channel ~from_domain:t.dom frame
  in
  let stack =
    Stack.create env
      ~netif:{ Stack.mtu = nic.Nic.mtu; mac = nic.Nic.mac; tx }
      ~ip_addr:t.host_ip ?tcp_params ()
  in
  (stack, zero_copy)

let tcp_rx ~zero_copy ~channel ~stack is_released =
  { re_channel = channel; re_stack = stack; re_zc = zero_copy; re_learn = false;
    re_released = is_released }

(* Register a connection with the library and open its socket
   operations; its final close releases it, [retire] = [None] returning
   its port and channel to the registry. *)
let attach t ?retire ~zero_copy ~channel ~stack conn =
  let txpool = make_txpool t ~zero_copy in
  let lc = { stack; conn; channel; txpool; released = false; ops = None; retire } in
  t.conns <- lc :: t.conns;
  Tcp.on_closed conn (fun () -> release t lc);
  let ops = make_ops t ~zero_copy ~txpool ~conn in
  lc.ops <- Some ops;
  (lc, ops)

(* A connection handed off by the registry (or passed by another
   library): a private engine imports the established state.  [params]
   overrides the library default — the paper's "canned options"
   customization (SS5): each connection gets its own engine, so each can
   be tuned to its application without touching anyone else. *)
let adopt_parts t ?params ~snapshot ~channel ~remote_mac () =
  let tcp_params = match params with Some p -> Some p | None -> t.tcp_params in
  let stack, zero_copy = endpoint t ?tcp_params channel in
  Stack.add_static_arp stack snapshot.Tcp.snap_remote_ip remote_mac;
  let conn = Tcp.import stack.Stack.tcp snapshot in
  let lc, ops = attach t ~zero_copy ~channel ~stack conn in
  spawn_rx t (tcp_rx ~zero_copy ~channel ~stack (fun () -> lc.released));
  ops

(* Leased connect (endpoint_lease switch): the library already holds a
   port block, ready channels and the kernel-side lease, so setting up a
   connection involves no registry IPC at all.  The channel is armed
   with the pre-verified filter/template by an unprivileged kernel entry
   {e before} the SYN goes out, and — unlike the registry path — the
   library runs the three-way handshake on its own engine, so there is
   no state export/import and no handoff window. *)
let leased_parts t ?params ~lh ~channel ~local_port ~dst ~dst_port ~remote_mac () =
  let tcp_params = match params with Some p -> Some p | None -> t.tcp_params in
  let stack, zero_copy = endpoint t ?tcp_params channel in
  Stack.add_static_arp stack dst remote_mac;
  (* The receive thread must exist before the handshake: the SYN-ACK
     arrives in this channel's ring. *)
  let released = ref false in
  spawn_rx t (tcp_rx ~zero_copy ~channel ~stack (fun () -> !released));
  (* Fully closed (or never opened): the quiet period was either served
     by this engine or parked on the registry wheel — both port and
     channel go back to the lease's free lists.  The free lists are
     FIFO, so a parked tuple is not re-stamped until every other leased
     port has cycled. *)
  let retire () =
    released := true;
    Netio.release_leased t.netio channel ~from_domain:t.dom;
    Queue.push local_port lh.lh_free_ports;
    Queue.push channel lh.lh_free_channels
  in
  match Tcp.connect stack.Stack.tcp ~src_port:local_port ~dst ~dst_port with
  | Error e ->
      retire ();
      Error (Registry.Handshake_failed e)
  | Ok (conn, _established) ->
      (* With the wheel on, the quiet period migrates to the registry:
         the residue joins the next coalesced one-way park message and
         the local control block finishes at once, so the lease's port
         and channel recycle at churn rate instead of once per 2MSL. *)
      if switch tcp_params (fun p -> p.Uln_proto.Tcp_params.time_wait_wheel) then
        Tcp.set_time_wait_hook stack.Stack.tcp (fun c ->
            let remote_ip, remote_port = Tcp.remote_addr c in
            tw_queue t (remote_ip, remote_port, Tcp.local_port c);
            true);
      Ok (snd (attach t ~retire ~zero_copy ~channel ~stack conn))

let adopt t ?params (grant : Registry.grant) =
  adopt_parts t ?params ~snapshot:grant.Registry.snapshot ~channel:grant.Registry.channel
    ~remote_mac:grant.Registry.remote_mac ()

(* Pass an established connection to another application on the same
   host, inetd-style: neither the registry server nor any privileged
   operation is involved — the channel capability moves with the
   connection state (paper SS3.2). *)
let pass_connection t ops ~to_lib =
  match List.find_opt (fun lc -> match lc.ops with Some o -> o == ops | None -> false) t.conns
  with
  | None -> failwith "Protolib.pass_connection: connection does not belong to this library"
  | Some lc ->
      Tcp.await_drained lc.conn;
      let remote_ip, _ = Tcp.remote_addr lc.conn in
      let remote_mac =
        match Uln_proto.Arp.lookup lc.stack.Stack.arp remote_ip with
        | Some mac -> mac
        | None -> Uln_addr.Mac.broadcast
      in
      let witness =
        match Tcp.established_witness lc.conn with
        | Some w -> w
        | None -> failwith "Protolib.pass_connection: connection not ESTABLISHED"
      in
      let snapshot = Tcp.export lc.conn ~witness in
      lc.released <- true (* the new owner releases the port at close *);
      drop_txpool lc (* drained above, so every loan is back in the pool *);
      t.conns <- List.filter (fun c -> c != lc) t.conns;
      Netio.transfer_channel t.netio lc.channel ~from_domain:t.dom ~to_domain:to_lib.dom;
      adopt_parts to_lib ~snapshot ~channel:lc.channel ~remote_mac ()

let create machine netio registry ~name ~ip ?tcp_params ?(cpu = 0) () =
  { machine;
    netio;
    registry;
    name;
    host_ip = ip;
    dom = Machine.new_user_domain machine name;
    tcp_params;
    cpu_idx = cpu;
    cpu = Machine.cpu_at machine cpu;
    conns = [];
    lease = None;
    mac_cache = Hashtbl.create 8;
    leased_connects = 0;
    lease_fallbacks = 0;
    tw_residues = [];
    tw_flush_armed = false;
    rx_entries = [];
    rx_draining = false }

let connect_via_registry ?params t ~src_port ~dst ~dst_port =
  match
    Registry.call t.registry Registry.Connect
      { Registry.c_app = t.dom; c_src_port = src_port; c_dst = dst; c_dst_port = dst_port }
  with
  | Error e -> Error e
  | Ok grant -> Ok (adopt t ?params grant)

(* One registry IPC amortized over the whole lease; the typed
   [Out_of_ports] error surfaces as a connect failure. *)
let ensure_lease t =
  match t.lease with
  | Some lh -> Ok lh
  | None -> (
      match Registry.call t.registry Registry.Lease t.dom with
      | Error e -> Error e
      | Ok g ->
          let lh =
            { lh_grant = g;
              lh_free_ports =
                Queue.of_seq (Seq.init g.Registry.lg_count (( + ) g.Registry.lg_base));
              lh_free_channels = Queue.of_seq (List.to_seq g.Registry.lg_channels) }
          in
          t.lease <- Some lh;
          Ok lh)

(* The registry owns ARP; ask once per peer and cache — repeat connects
   to the same host pay no resolution IPC. *)
let mac_for t dst =
  match Hashtbl.find_opt t.mac_cache dst with
  | Some m -> m
  | None ->
      let m = Registry.call t.registry Registry.Resolve dst in
      Hashtbl.replace t.mac_cache dst m;
      m

let connect_leased ?params t ~dst ~dst_port =
  match ensure_lease t with
  | Error e -> Error e
  | Ok lh when Queue.is_empty lh.lh_free_ports -> Error Registry.Out_of_ports
  | Ok lh when Queue.is_empty lh.lh_free_channels ->
      (* Every lease channel is on a live connection: fall back to a
         per-connection registry setup rather than block. *)
      t.lease_fallbacks <- t.lease_fallbacks + 1;
      connect_via_registry ?params t ~src_port:0 ~dst ~dst_port
  | Ok lh -> (
      let port = Queue.pop lh.lh_free_ports and ch = Queue.pop lh.lh_free_channels in
      charge t Calibration.lease_local_alloc;
      match
        Netio.activate_leased t.netio ch ~from_domain:t.dom ~lease:lh.lh_grant.Registry.lg_lease
          ~remote_ip:dst ~remote_port:dst_port ~local_port:port
      with
      | exception Uln_host.Capability.Violation m ->
          Queue.push port lh.lh_free_ports;
          Queue.push ch lh.lh_free_channels;
          Error (Registry.Lease_violation m)
      | () ->
          t.leased_connects <- t.leased_connects + 1;
          let remote_mac = mac_for t dst in
          leased_parts t ?params ~lh ~channel:ch ~local_port:port ~dst ~dst_port ~remote_mac ())

(* Typed connect: quota denials surface as {!Registry.Quota_exceeded}
   and port exhaustion (of the registry's ranges or of the library's
   lease) as {!Registry.Out_of_ports}, so multi-tenant callers can shed
   load and retry instead of parsing a message. *)
let connect_q ?params t ~src_port ~dst ~dst_port =
  let prm = match params with Some p -> Some p | None -> t.tcp_params in
  let leased = switch prm (fun p -> p.Uln_proto.Tcp_params.endpoint_lease) in
  (* An explicit source port lies outside any leased block: registry path. *)
  if leased && src_port = 0 then connect_leased ?params t ~dst ~dst_port
  else connect_via_registry ?params t ~src_port ~dst ~dst_port

let listen t ~port =
  match Registry.call t.registry Registry.Listen port with
  | Error e -> failwith ("listen: " ^ Registry.error_to_string e)
  | Ok () ->
      { Sockets.accept =
          (fun () ->
            let req = { Registry.a_app = t.dom; a_port = port } in
            match Registry.call t.registry Registry.Accept req with
            | Error e -> failwith ("accept: " ^ Registry.error_to_string e)
            | Ok grant -> adopt t grant) }

(* Connectionless endpoints (paper SS5): the registry authorises the
   port and builds the channel during a binding phase; datagrams then
   flow directly between the library and the network I/O module.
   Returns the endpoint's stack, its port, an idempotent close, and the
   registry-backed ARP fill for a destination. *)
let dgram_bind t kind ~port =
  match Registry.call t.registry Registry.Bind_dgram (t.dom, kind, port) with
  | Error (Registry.Port_in_use p) ->
      let name = match kind with Udp -> "udp" | Rrp _ -> "rrp" in
      Error (Printf.sprintf "bind: %s port %d in use" name p)
  | Error e -> Error ("bind: " ^ Registry.error_to_string e)
  | Ok (channel, port) ->
      let stack, _ = endpoint t channel in
      let closed = ref false in
      spawn_rx t
        { re_channel = channel; re_stack = stack; re_zc = false; re_learn = true;
          re_released = (fun () -> !closed) };
      (* The registry owns ARP; the library asks it once per peer. *)
      let ensure_mac dst =
        match Uln_proto.Arp.lookup stack.Stack.arp dst with
        | Some _ -> ()
        | None ->
            let mac = Registry.call t.registry Registry.Resolve dst in
            Stack.add_static_arp stack dst mac
      in
      let close () =
        if not !closed then begin
          closed := true;
          Registry.call t.registry Registry.Release_dgram (kind, port, channel)
        end
      in
      Ok (stack, port, close, ensure_mac)

(* An explicit port that is taken is the caller's error. *)
let bound = function Ok b -> b | Error e -> failwith e

let udp_bind t ~port =
  let stack, port, close, ensure_mac = bound (dgram_bind t Registry.Udp ~port) in
  let c = costs t in
  let ep = Uln_proto.Udp.bind stack.Stack.udp ~port in
  { Sockets.sendto =
      (fun ~dst ~dst_port data ->
        charge t
          (Time.span_add c.Costs.library_call
             (Time.span_add c.Costs.socket_layer Calibration.userlib_per_write));
        ensure_mac dst;
        Uln_proto.Udp.sendto stack.Stack.udp ~src_port:port ~dst ~dst_port data);
    recv_from =
      (fun () ->
        charge t c.Costs.library_call;
        let d = Uln_proto.Udp.recv ep in
        (d.Uln_proto.Udp.src, d.Uln_proto.Udp.src_port, d.Uln_proto.Udp.data));
    udp_close =
      (fun () ->
        Uln_proto.Udp.unbind stack.Stack.udp ep;
        close ()) }

(* The request-response transport through the same binding phase:
   software demux, source-pinning template, direct data path. *)
let rrp_client t =
  Result.map
    (fun (stack, port, close, ensure_mac) ->
      let c = costs t in
      { Sockets.rrp_call =
          (fun ~dst ~dst_port data ->
            charge t (Time.span_add c.Costs.library_call Calibration.userlib_per_write);
            ensure_mac dst;
            Uln_proto.Rrp.call stack.Stack.rrp ~src_port:port ~dst ~dst_port data);
        rrp_client_close = close })
    (dgram_bind t (Registry.Rrp `Client) ~port:0)

let rrp_serve t ~port handler =
  let stack, port, close, _ = bound (dgram_bind t (Registry.Rrp `Server) ~port) in
  let c = costs t in
  let srv =
    Uln_proto.Rrp.serve stack.Stack.rrp ~port (fun req ->
        charge t c.Costs.library_call;
        handler req)
  in
  { Sockets.rrp_stop =
      (fun () ->
        Uln_proto.Rrp.stop stack.Stack.rrp srv;
        close ()) }

let exit_app t ~graceful =
  (* The registry server inherits open connections (paper §3.4):
     maintaining the shutdown delay for orderly exits, resetting the
     peer otherwise. *)
  let open_conns = t.conns in
  t.conns <- [];
  let wheel = switch t.tcp_params (fun p -> p.Uln_proto.Tcp_params.time_wait_wheel) in
  let batch = ref [] in
  List.iter
    (fun lc ->
      if not lc.released then begin
        (* Drain before marking the connection released: its receive
           thread must keep taking in the ACKs the drain waits for. *)
        if graceful then Tcp.await_drained lc.conn;
        (* A drain that ends in a close (peer reset, retransmission
           give-up) has already released the connection. *)
        if not lc.released then begin
          lc.released <- true;
          drop_txpool lc;
          match Tcp.state lc.conn with
          | Uln_proto.Tcp_state.Established ->
              let snap =
                match (if graceful then Tcp.established_witness lc.conn else None) with
                | Some w -> Tcp.export lc.conn ~witness:w
                | None -> Tcp.export_force lc.conn
              in
              if wheel then
                (* One IPC for the whole set: residues park on the
                   registry's TIME_WAIT wheel (graceful) or are retired
                   by the batched RST sweep (abnormal). *)
                batch := (snap, lc.channel) :: !batch
              else
                Registry.call t.registry Registry.Inherit (snap, lc.channel, graceful)
          | _ ->
              Tcp.abort lc.conn;
              retire t lc
        end
      end)
    open_conns;
  (match !batch with
  | [] -> ()
  | conns ->
      Registry.call t.registry Registry.Inherit_batch (List.rev conns, graceful));
  (* Residues still waiting for a coalesced park go now: the library is
     leaving and nothing else will flush them. *)
  tw_flush t;
  (* Return the endpoint lease: the registry reclaims the port block and
     the channels still in the library's hands. *)
  match t.lease with
  | None -> ()
  | Some lh ->
      t.lease <- None;
      Registry.call t.registry Registry.Release_lease
        { lh.lh_grant with Registry.lg_channels = List.of_seq (Queue.to_seq lh.lh_free_channels) }

let lease t = Option.map (fun lh -> lh.lh_grant) t.lease
let conns t = List.rev_map (fun lc -> (lc.stack.Stack.tcp, lc.conn)) t.conns

let bufstats t =
  List.rev_map
    (fun lc ->
      let cap, avail, in_use, exh =
        match lc.txpool with
        | Some p ->
            (Shared_mem.capacity p, Shared_mem.available p, Shared_mem.in_use p,
             Shared_mem.exhausted p)
        | None -> (0, 0, 0, 0)
      in
      { bs_pool_capacity = cap;
        bs_pool_available = avail;
        bs_pool_in_use = in_use;
        bs_pool_exhausted = exh;
        bs_loaned_bytes = Tcp.loaned_bytes lc.conn;
        bs_tx_doorbells = Netio.tx_doorbells lc.channel;
        bs_tx_batches = Netio.tx_batches lc.channel;
        bs_tx_sync_fallbacks = Netio.tx_sync_fallbacks lc.channel;
        bs_tx_batch_hist = Netio.tx_batch_histogram lc.channel })
    t.conns

type rxstats = {
  rs_wakeups : int;
  rs_frames : int;
  rs_burst_hist : (int * int) list;
  rs_gro_merged : int;
  rs_gro_flushes : int;
  rs_acks_elided : int;
  rs_interrupts : int;
  rs_polls : int;
  rs_polled_frames : int;
  rs_ring_drops : int;
  rs_ring_overflows : int;
}

let rxstats t =
  (* GRO and ACK-elision counters live on each connection's private
     engine; sum them over the connections still open.  The wakeup and
     NAPI counters are module-wide and survive connection close. *)
  let gm, gf, ae =
    List.fold_left
      (fun (gm, gf, ae) lc ->
        let tcp = lc.stack.Stack.tcp in
        (gm + Tcp.gro_merged tcp, gf + Tcp.gro_flushes tcp, ae + Tcp.acks_elided tcp))
      (0, 0, 0) t.conns
  in
  let napi = Netio.napi_stats t.netio in
  { rs_wakeups = Netio.rx_wakeups t.netio;
    rs_frames = Netio.rx_frames t.netio;
    rs_burst_hist = Netio.rx_burst_histogram t.netio;
    rs_gro_merged = gm;
    rs_gro_flushes = gf;
    rs_acks_elided = ae;
    rs_interrupts = napi.Uln_net.Napi.interrupts;
    rs_polls = napi.Uln_net.Napi.polls;
    rs_polled_frames = napi.Uln_net.Napi.polled_frames;
    rs_ring_drops = napi.Uln_net.Napi.ring_drops;
    rs_ring_overflows = Netio.ring_overflows t.netio }

type txstats = {
  ts_gso_sends : int;
  ts_gso_fallbacks : int;
  ts_gso_episodes : int;
  ts_gso_frames : int;
  ts_pacer_waits : int;
  ts_pacer_wait_us : float;
  ts_pacer_hist : (int * int) list;
}

let merge_hist a b =
  List.sort
    (fun (x, _) (y, _) -> Stdlib.compare x y)
    (List.fold_left
       (fun acc (k, v) ->
         let cur = try List.assoc k acc with Not_found -> 0 in
         (k, cur + v) :: List.remove_assoc k acc)
       a b)

let txstats t =
  (* GSO and pacer counters live on each connection's private engine;
     sum over the connections still open.  The NIC-side Txq counters
     are module-wide and survive connection close. *)
  let gs, gf, pw, pu, ph =
    List.fold_left
      (fun (gs, gf, pw, pu, ph) lc ->
        let tcp = lc.stack.Stack.tcp in
        ( gs + Tcp.gso_sends tcp,
          gf + Tcp.gso_fallbacks tcp,
          pw + Tcp.pacer_waits tcp,
          pu +. Tcp.pacer_wait_us tcp,
          merge_hist ph (Tcp.pacer_hist tcp) ))
      (0, 0, 0, 0., []) t.conns
  in
  let txq = Netio.txq_stats t.netio in
  { ts_gso_sends = gs;
    ts_gso_fallbacks = gf;
    ts_gso_episodes = txq.Uln_net.Txq.gso_episodes;
    ts_gso_frames = txq.Uln_net.Txq.gso_frames;
    ts_pacer_waits = pw;
    ts_pacer_wait_us = pu;
    ts_pacer_hist = ph }

type leasestats = {
  lst_leased_connects : int;
  lst_fallbacks : int;
  lst_free_ports : int;
  lst_free_channels : int;
}

let leasestats t =
  let fp, fc =
    match t.lease with
    | None -> (0, 0)
    | Some lh -> (Queue.length lh.lh_free_ports, Queue.length lh.lh_free_channels)
  in
  { lst_leased_connects = t.leased_connects;
    lst_fallbacks = t.lease_fallbacks;
    lst_free_ports = fp;
    lst_free_channels = fc }

let app t =
  { Sockets.app_name = t.name;
    app_ip = t.host_ip;
    connect =
      (fun ~src_port ~dst ~dst_port ->
        Result.map_error Registry.error_to_string (connect_q t ~src_port ~dst ~dst_port));
    listen = (fun ~port -> listen t ~port);
    udp_bind = (fun ~port -> udp_bind t ~port);
    rrp_client = (fun () -> rrp_client t);
    rrp_serve = (fun ~port handler -> rrp_serve t ~port handler);
    exit_app = (fun ~graceful -> exit_app t ~graceful) }
