module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Semaphore = Uln_engine.Semaphore
module Stats = Uln_engine.Stats
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ring = Uln_buf.Ring
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Addr_space = Uln_host.Addr_space
module Capability = Uln_host.Capability
module Shared_mem = Uln_host.Shared_mem
module Nic = Uln_net.Nic
module Frame = Uln_net.Frame
module Absint = Uln_filter.Absint
module Demux = Uln_filter.Demux
module Program = Uln_filter.Program
module Template = Uln_filter.Template
module Verify = Uln_filter.Verify

exception Send_rejected of string

type lease = {
  l_id : int;
  l_owner : Addr_space.t;
  l_ip : Uln_addr.Ip.t;
  l_base : int;
  l_count : int;
  mutable l_revoked : bool;
}

type channel = {
  id : int;
  mutable owner : Addr_space.t;
  region : Shared_mem.t;
  rx_ring : Frame.t Ring.t;
  sem : Semaphore.t;
  bqi : int;
  mutable template : Template.t option;
  mutable filters : Demux.key list;
  mutable active : bool;
  mutable destroyed : bool;
  mutable lease : lease option; (* armed through an endpoint lease *)
  gate : unit Capability.t; (* revocation point for the whole channel *)
  (* Batched transmit: descriptors accumulate in a shared tx ring; the
     kernel drains every descriptor present per fast_trap, so N queued
     segments cost one kernel boundary (doorbell coalescing). *)
  tx_ring : Frame.t Ring.t;
  mutable tx_kick_pending : bool; (* a drain is scheduled or running *)
  mutable tx_doorbells : int; (* descriptors submitted via the ring *)
  mutable tx_batches : int; (* kernel drains (fast_trap charges) *)
  mutable tx_sync_fallbacks : int; (* ring-full synchronous sends *)
  tx_batch_hist : (int, int) Hashtbl.t; (* batch size -> occurrences *)
  (* Receive flow steering: the CPU index this channel's processing is
     pinned to, and the CPU its last packet was handled on (-1 before
     the first).  A delivery whose home differs from [last_cpu] is a
     migration and pays the cache-affinity penalty. *)
  mutable affinity : int;
  mutable last_cpu : int;
}

type t = {
  machine : Machine.t;
  nic : Nic.t;
  demux : channel Demux.t;
  by_bqi : (int, channel) Hashtbl.t;
  mutable next_id : int;
  mutable rejected : int;
  mutable unmatched : int;
  mutable overflows : int;
  mutable hw_demuxed : int;
  mutable sw_demuxed : int;
  mutable migrations : int;
  mutable next_lease : int;
  demux_cost : Stats.Dist.t;
  (* receive-burst accounting (library wakeup coalescing) *)
  mutable rx_wakeups : int;
  mutable rx_frames : int;
  rx_burst_hist : (int, int) Hashtbl.t; (* burst size -> occurrences *)
}

let nic t = t.nic
let machine t = t.machine
let sends_rejected t = t.rejected
let unmatched_drops t = t.unmatched
let demux_cost_dist t = t.demux_cost
let rx_sem ch = ch.sem
let channel_bqi ch = ch.bqi
let home_cpu t ch = Machine.cpu_at t.machine ch.affinity

let require_privileged caller op =
  if not (Addr_space.is_privileged caller) then
    raise
      (Capability.Violation
         (Printf.sprintf "%s: domain %s is not privileged" op (Addr_space.name caller)))

(* Queue a frame into a channel's shared ring, signalling the semaphore
   only on the empty->non-empty transition (notification batching).
   Delivery work lands on the channel's home CPU; if the flow last ran
   on a different CPU this handoff pays the cache-affinity penalty
   there.  On a 1-CPU machine home = last = the boot CPU and the charge
   sequence is exactly the pre-SMP one. *)
let deliver t ch frame =
  (* Leased channels learn the peer's BQI from the first inbound frame
     the remote registry marked (the spare link-header field): the
     kernel — not the application — refreshes the template stamp, so
     the impersonation constraints never change hands. *)
  (match ch.lease with
  | Some _ when frame.Frame.bqi_hint > 0 -> (
      match ch.template with
      | Some tpl when Template.bqi tpl = 0 ->
          ch.template <- Some (Template.with_bqi tpl ~bqi:frame.Frame.bqi_hint)
      | _ -> ())
  | _ -> ());
  let costs = t.machine.Machine.costs in
  let home = home_cpu t ch in
  let migrate =
    if ch.last_cpu >= 0 && ch.last_cpu <> Cpu.id home then begin
      t.migrations <- t.migrations + 1;
      Cpu.note_migration home costs.Costs.cpu_migrate_ns;
      costs.Costs.cpu_migrate_ns
    end
    else 0
  in
  ch.last_cpu <- Cpu.id home;
  let was_empty = Ring.is_empty ch.rx_ring in
  if Ring.push ch.rx_ring frame then begin
    if was_empty then
      Cpu.use_async home
        (Time.span_add (Time.ns migrate) costs.Costs.semaphore_signal)
        (fun () -> Semaphore.signal ch.sem)
    else if migrate > 0 then Cpu.use_async home (Time.ns migrate) (fun () -> ())
  end
  else t.overflows <- t.overflows + 1

let create machine nic ~mode ?(flow_cache = false) ?(hier = false) ?(napi = false) () =
  let t =
    { machine;
      nic;
      demux = Demux.create ~mode ~budget:Calibration.filter_cycle_budget ~flow_cache ~hier ();
      by_bqi = Hashtbl.create 8;
      next_id = 0;
      rejected = 0;
      unmatched = 0;
      overflows = 0;
      hw_demuxed = 0;
      sw_demuxed = 0;
      migrations = 0;
      next_lease = 0;
      demux_cost = Stats.Dist.create (machine.Machine.name ^ ".demux_us");
      rx_wakeups = 0;
      rx_frames = 0;
      rx_burst_hist = Hashtbl.create 8 }
  in
  (* Adaptive interrupt suppression: hand the NIC a NAPI configuration
     so sustained load is polled with a budget instead of interrupting
     per frame, with early drop at the bounded software ring. *)
  if napi then
    nic.Nic.set_napi
      (Some { Uln_net.Napi.budget = Calibration.napi_budget; ring = Calibration.napi_ring_slots });
  let costs = machine.Machine.costs in
  let deliver ch frame = deliver t ch frame in
  let rx (info : Nic.rx_info) =
    match Hashtbl.find_opt t.by_bqi info.Nic.bqi with
    | Some ch when info.Nic.bqi > 0 && ch.active ->
        (* Hardware demultiplexing: only device management to charge. *)
        t.hw_demuxed <- t.hw_demuxed + 1;
        Stats.Dist.record t.demux_cost (Time.to_us_f costs.Costs.demux_hardware);
        (* Device management runs on the channel's home CPU — the
           hardware (BQI) steered the interrupt there. *)
        Cpu.use_async (home_cpu t ch) costs.Costs.demux_hardware (fun () ->
            deliver ch info.Nic.frame;
            (* The DMA buffer's bytes now live in the shared ring entry;
               the buffer itself returns to the pool for re-provisioning. *)
            match info.Nic.buffer with
            | Some buf -> (
                try Shared_mem.free ch.region t.machine.Machine.kernel buf
                with Invalid_argument _ | Capability.Violation _ -> ())
            | None -> ())
    | _ ->
        (* Software path: run the filter table over the wire bytes. *)
        t.sw_demuxed <- t.sw_demuxed + 1;
        let wire = Frame.to_wire info.Nic.frame in
        let target, cycles = Demux.dispatch_steered t.demux wire in
        let cost =
          Time.span_add Calibration.netio_demux_overhead
            (Time.ns (cycles * costs.Costs.cycle_ns))
        in
        Stats.Dist.record t.demux_cost (Time.to_us_f cost);
        Cpu.use_async machine.Machine.cpu
          (Time.span_add costs.Costs.drv_rx cost)
          (fun () ->
            (* The filter ran on the interrupt CPU; [deliver] hands the
               frame to the endpoint's home CPU (the recorded affinity
               rides on the channel itself, so a re-installed endpoint
               can never land on a stale CPU's queue). *)
            match target with
            | Some (ch, _affinity) when ch.active && not ch.destroyed ->
                deliver ch info.Nic.frame
            | Some _ | None -> t.unmatched <- t.unmatched + 1)
  in
  nic.Nic.install_rx rx;
  (* Hardware-demultiplexed frames steer their interrupt + DMA-touch
     cost straight to the owning channel's home CPU; everything else
     (BQI 0, unknown rings) interrupts the boot CPU. *)
  nic.Nic.install_rx_steer (fun (info : Nic.rx_info) ->
      if info.Nic.bqi > 0 then
        match Hashtbl.find_opt t.by_bqi info.Nic.bqi with
        | Some ch when ch.active -> Some (home_cpu t ch)
        | _ -> None
      else None);
  t

let create_channel t ~caller ~owner ~use_bqi =
  require_privileged caller "Netio.create_channel";
  t.next_id <- t.next_id + 1;
  let name = Printf.sprintf "%s.chan%d" t.machine.Machine.name t.next_id in
  let region =
    Shared_mem.create ~name ~count:Calibration.channel_ring_slots
      ~size:(Stdlib.max Calibration.channel_buffer_size (t.nic.Nic.mtu + 100))
  in
  Shared_mem.map region t.machine.Machine.kernel;
  Shared_mem.map region owner;
  let bqi =
    match (use_bqi, t.nic.Nic.bqi) with
    | true, Some ops ->
        let b = ops.Nic.alloc_ring ~capacity:Calibration.channel_ring_slots in
        (* Stock the controller ring with the region's buffers. *)
        let rec stock n =
          if n > 0 then
            match Shared_mem.alloc region t.machine.Machine.kernel with
            | Some buf ->
                ignore (ops.Nic.provide_buffer b buf);
                stock (n - 1)
            | None -> ()
        in
        stock Calibration.channel_ring_slots;
        b
    | _ -> 0
  in
  let ch =
    { id = t.next_id;
      owner;
      region;
      rx_ring = Ring.create ~capacity:Calibration.channel_ring_slots;
      sem =
        Semaphore.create ~name:(name ^ ".rx_sem") ~sched:t.machine.Machine.sched ();
      bqi;
      template = None;
      filters = [];
      active = false;
      destroyed = false;
      lease = None;
      gate = Capability.mint ~tag:name ();
      tx_ring = Ring.create ~capacity:Calibration.channel_ring_slots;
      tx_kick_pending = false;
      tx_doorbells = 0;
      tx_batches = 0;
      tx_sync_fallbacks = 0;
      tx_batch_hist = Hashtbl.create 8;
      affinity = 0;
      last_cpu = -1 }
  in
  if bqi > 0 then Hashtbl.replace t.by_bqi bqi ch;
  Uln_engine.Trace.debugf t.machine.Machine.sched "netio" "created chan%d (owner %s, bqi %d)"
    ch.id (Addr_space.name owner) bqi;
  ch

(* A strict partial overlap with another channel's installed filter —
   both would accept a common packet and neither subsumes the other —
   is the eavesdropping/ambiguity hazard the verifier exists to catch.
   (Overlaps on the same channel, and subsumption shadowing like a
   connection filter under its listener, are benign and not flagged.) *)
let conflict_of t ch analyzed =
  match
    List.filter (fun (c : channel Demux.conflict) -> c.Demux.with_endpoint != ch)
      (Demux.conflicts t.demux analyzed)
  with
  | [] -> None
  | { Demux.witness; _ } :: _ as cs ->
      Some
        (Printf.sprintf "accept sets of %d installed filter(s) intersect (witness: %d-byte packet)"
           (List.length cs) (Uln_buf.View.length witness))

let filter_conflict t ch program = conflict_of t ch (program, Absint.analyze program)

(* [analyzed] is the program paired with its analysis, run once by the
   caller and shared by the overlap check, the demux entry's group and
   (in [activate]) the template cross-check. *)
let install_filter t ch analyzed =
  (match conflict_of t ch analyzed with
  | None -> ()
  | Some desc ->
      Uln_engine.Trace.infof t.machine.Machine.sched "netio" "filter overlap on chan%d: %s" ch.id
        desc);
  match Demux.install_analyzed ~affinity:ch.affinity t.demux analyzed ch with
  | Ok k ->
      ch.filters <- k :: ch.filters;
      k
  | Error e -> raise (Verify.Rejected e)

let add_filter t ~caller ch program =
  require_privileged caller "Netio.add_filter";
  install_filter t ch (program, Absint.analyze program)

(* Population fast path for the sparse-scale benches: stamp a verified
   template's constraints with another connection's bytes.  Skips the
   overlap check [install_filter] runs: that check reads an entry's
   installed program, which for a stamped entry is the template's, so
   the template's own install already made it, and distinct 4-tuples
   cannot overlap each other.  The entry joins the template's overlap
   group, so later checks against the table cost the same however many
   entries were stamped. *)
let add_stamped_filter t ~caller ch ~template ~constraints ~min_len =
  require_privileged caller "Netio.add_stamped_filter";
  match
    Demux.install_stamped ~affinity:ch.affinity t.demux ~template ~constraints ~min_len ch
  with
  | Ok k ->
      ch.filters <- k :: ch.filters;
      k
  | Error e -> invalid_arg ("Netio.add_stamped_filter: " ^ e)

let remove_filter t ~caller k =
  require_privileged caller "Netio.remove_filter";
  Demux.remove t.demux k

let activate t ~caller ch ~filter ~template =
  require_privileged caller "Netio.activate";
  let a = Absint.analyze filter in
  (match Verify.check_template ~filter:a template with
  | Ok () -> ()
  | Error te ->
      raise
        (Capability.Violation
           (Format.asprintf "Netio.activate on chan%d: %a" ch.id Verify.pp_template_error te)));
  ch.template <- Some template;
  ch.active <- true;
  ignore (install_filter t ch (filter, a))

let reassign_owner t ~caller ch ~owner =
  require_privileged caller "Netio.reassign_owner";
  ignore t;
  Shared_mem.unmap ch.region ch.owner;
  Shared_mem.map ch.region owner;
  ch.owner <- owner

let transfer_channel t ch ~from_domain ~to_domain =
  ignore t;
  Capability.deref ch.gate;
  if not (Addr_space.equal from_domain ch.owner) then
    raise (Capability.Violation "Netio.transfer_channel: caller does not own the channel");
  Shared_mem.unmap ch.region ch.owner;
  Shared_mem.map ch.region to_domain;
  ch.owner <- to_domain

(* Park a channel for recycling (the channel-pool ablation): strip its
   filters and template and mark it inactive, but keep the shared
   region, its mappings, the semaphore, the capability gate and any BQI
   ring — everything whose construction dominates
   [Calibration.registry_channel_setup].  A later [activate] (after
   [reassign_owner] if the next connection belongs elsewhere) re-arms
   it for [Calibration.channel_reuse_setup]. *)
let park_channel t ~caller ch =
  require_privileged caller "Netio.park_channel";
  if not ch.destroyed then begin
    ch.active <- false;
    ch.template <- None;
    ch.lease <- None;
    List.iter (Demux.remove t.demux) ch.filters;
    ch.filters <- [];
    (* Drop any frames of the previous connection still in the ring. *)
    let rec flush () = match Ring.pop ch.rx_ring with Some _ -> flush () | None -> () in
    flush ()
  end

let channel_destroyed ch = ch.destroyed

(* --- Endpoint leases -------------------------------------------------- *)

let grant_lease t ~caller ~owner ~ip ~base_port ~count =
  require_privileged caller "Netio.grant_lease";
  t.next_lease <- t.next_lease + 1;
  Uln_engine.Trace.debugf t.machine.Machine.sched "netio" "lease %d: ports %d..%d for %s"
    t.next_lease base_port (base_port + count - 1) (Addr_space.name owner);
  { l_id = t.next_lease;
    l_owner = owner;
    l_ip = ip;
    l_base = base_port;
    l_count = count;
    l_revoked = false }

let revoke_lease t ~caller lease =
  require_privileged caller "Netio.revoke_lease";
  ignore t;
  lease.l_revoked <- true

(* Arm a channel for one connection under an endpoint lease.  This is
   the unprivileged kernel entry that replaces the registry round trip:
   the caller supplies only the 4-tuple, and the network I/O module
   itself instantiates the pre-verified filter/template shape — the
   application never hands in a program, so the anti-impersonation
   check is exactly as strong as on the registry path.  The local port
   must lie inside the leased block, and the template pins the leased
   address as packet source. *)
let activate_leased t ch ~from_domain ~lease ~remote_ip ~remote_port ~local_port =
  let costs = t.machine.Machine.costs in
  let cpu = home_cpu t ch in
  Cpu.use cpu costs.Costs.fast_trap;
  Capability.deref ch.gate;
  let refuse msg = raise (Capability.Violation ("Netio.activate_leased: " ^ msg)) in
  if ch.destroyed then refuse "channel destroyed";
  if ch.active then refuse "channel already active";
  if lease.l_revoked then refuse "lease revoked";
  if not (Addr_space.equal from_domain ch.owner) then refuse "channel not owned by caller";
  if not (Addr_space.equal from_domain lease.l_owner) then refuse "lease not owned by caller";
  if local_port < lease.l_base || local_port >= lease.l_base + lease.l_count then
    refuse (Printf.sprintf "port %d outside leased block" local_port);
  Cpu.use cpu Calibration.lease_stamp;
  let filter =
    Program.tcp_conn ~src_ip:remote_ip ~dst_ip:lease.l_ip ~src_port:remote_port
      ~dst_port:local_port
  in
  let template =
    Template.tcp_conn ~src_ip:lease.l_ip ~dst_ip:remote_ip ~src_port:local_port
      ~dst_port:remote_port ()
  in
  ch.template <- Some template;
  ch.lease <- Some lease;
  ch.active <- true;
  ignore (install_filter t ch (filter, Absint.analyze filter))

(* Disarm a leased channel after its connection fully closes, returning
   it to the library's cache: filters out, template cleared, region and
   rings kept.  Owner-callable — the send capability itself is the
   authorization, as with [transfer_channel]. *)
let release_leased t ch ~from_domain =
  let costs = t.machine.Machine.costs in
  Cpu.use (home_cpu t ch) costs.Costs.fast_trap;
  Capability.deref ch.gate;
  if ch.destroyed then raise (Capability.Violation "Netio.release_leased: channel destroyed");
  (match ch.lease with
  | Some l when Addr_space.equal from_domain l.l_owner && Addr_space.equal from_domain ch.owner
    ->
      ()
  | _ -> raise (Capability.Violation "Netio.release_leased: caller does not hold the lease"));
  ch.active <- false;
  ch.template <- None;
  ch.lease <- None;
  List.iter (Demux.remove t.demux) ch.filters;
  ch.filters <- [];
  let rec flush () = match Ring.pop ch.rx_ring with Some _ -> flush () | None -> () in
  flush ()


let destroy_channel t ~caller ch =
  require_privileged caller "Netio.destroy_channel";
  ch.destroyed <- true;
  ch.active <- false;
  Capability.revoke ch.gate;
  List.iter (Demux.remove t.demux) ch.filters;
  ch.filters <- [];
  if ch.bqi > 0 then begin
    Hashtbl.remove t.by_bqi ch.bqi;
    match t.nic.Nic.bqi with
    | Some ops -> ops.Nic.release_ring ch.bqi
    | None -> ()
  end;
  Shared_mem.destroy ch.region

(* The template reads fixed header offsets, so only the wire bytes it
   can reach are materialised — never the whole (possibly 64 KB GSO)
   frame. *)
let conforms tpl frame = Template.matches tpl (Frame.wire_prefix frame (Template.span tpl))

let send t ch ~from_domain frame =
  let costs = t.machine.Machine.costs in
  let cpu = home_cpu t ch in
  Cpu.use cpu costs.Costs.fast_trap;
  Capability.deref ch.gate;
  if not ch.active then raise (Capability.Violation "Netio.send: channel not activated");
  if not (Addr_space.equal from_domain ch.owner || Addr_space.is_privileged from_domain)
  then raise (Capability.Violation "Netio.send: channel not owned by caller");
  match ch.template with
  | None -> raise (Capability.Violation "Netio.send: no template")
  | Some tpl ->
      Cpu.use cpu (Time.ns (Template.check_cycles tpl * costs.Costs.cycle_ns));
      if not (conforms tpl frame) then begin
        t.rejected <- t.rejected + 1;
        Uln_engine.Trace.infof t.machine.Machine.sched "netio"
          "send rejected on chan%d: header does not match template" ch.id;
        raise (Send_rejected "packet header does not match capability template")
      end;
      (* Stamp the peer's BQI into the link header; trusted servers may
         pre-stamp handshake frames themselves. *)
      let bqi =
        if Addr_space.is_privileged from_domain && frame.Frame.bqi <> 0 then frame.Frame.bqi
        else Template.bqi tpl
      in
      (* A leased channel that has not yet learned its peer's BQI is
         still in its handshake: advertise our own receive BQI in the
         spare link-header field, as the registry does for the
         connections it sets up. *)
      let bqi_hint =
        match ch.lease with
        | Some _ when Template.bqi tpl = 0 && ch.bqi > 0 -> ch.bqi
        | _ -> frame.Frame.bqi_hint
      in
      t.nic.Nic.set_tx_cpu (Some cpu);
      t.nic.Nic.send { frame with Frame.bqi; bqi_hint }

(* Transmit one descriptor from kernel context during a batch drain.
   Unlike [send], failures are counted rather than raised — the
   application thread that rang the doorbell is long gone. *)
let transmit_one t ch frame =
  let costs = t.machine.Machine.costs in
  let cpu = home_cpu t ch in
  match ch.template with
  | None -> t.rejected <- t.rejected + 1
  | Some tpl ->
      Cpu.use cpu (Time.ns (Template.check_cycles tpl * costs.Costs.cycle_ns));
      if not (conforms tpl frame) then begin
        t.rejected <- t.rejected + 1;
        Uln_engine.Trace.infof t.machine.Machine.sched "netio"
          "batched send rejected on chan%d: header does not match template" ch.id
      end
      else begin
        let bqi_hint =
          match ch.lease with
          | Some _ when Template.bqi tpl = 0 && ch.bqi > 0 -> ch.bqi
          | _ -> frame.Frame.bqi_hint
        in
        t.nic.Nic.set_tx_cpu (Some cpu);
        t.nic.Nic.send { frame with Frame.bqi = Template.bqi tpl; bqi_hint }
      end

let rec drain_tx t ch =
  let costs = t.machine.Machine.costs in
  (* One kernel entry covers every descriptor present — including any
     rung in while earlier frames of this batch were transmitting.  The
     drain runs on the channel's home CPU (where the doorbell rang). *)
  Cpu.use (home_cpu t ch) costs.Costs.fast_trap;
  let count = ref 0 in
  let rec pump () =
    match Ring.pop ch.tx_ring with
    | None -> ()
    | Some frame ->
        incr count;
        if not ch.destroyed then transmit_one t ch frame;
        pump ()
  in
  pump ();
  if !count > 0 then begin
    ch.tx_batches <- ch.tx_batches + 1;
    Hashtbl.replace ch.tx_batch_hist !count
      (1 + Option.value ~default:0 (Hashtbl.find_opt ch.tx_batch_hist !count))
  end;
  ch.tx_kick_pending <- false;
  (* A doorbell rung between the final pop and clearing the flag would
     otherwise be stranded. *)
  if not (Ring.is_empty ch.tx_ring) then begin
    ch.tx_kick_pending <- true;
    drain_tx t ch
  end

let send_batched t ch ~from_domain frame =
  let costs = t.machine.Machine.costs in
  (* The user-space half: write a descriptor into the shared ring and
     ring the doorbell.  No kernel boundary here — the fast_trap is
     paid once per batch by the drain. *)
  Cpu.use (home_cpu t ch) costs.Costs.doorbell;
  Capability.deref ch.gate;
  if not ch.active then
    raise (Capability.Violation "Netio.send_batched: channel not activated");
  if not (Addr_space.equal from_domain ch.owner || Addr_space.is_privileged from_domain)
  then raise (Capability.Violation "Netio.send_batched: channel not owned by caller");
  if ch.template = None then raise (Capability.Violation "Netio.send_batched: no template");
  if Ring.push ch.tx_ring frame then begin
    ch.tx_doorbells <- ch.tx_doorbells + 1;
    if not ch.tx_kick_pending then begin
      ch.tx_kick_pending <- true;
      Sched.spawn t.machine.Machine.sched ~name:"netio.txkick" (fun () -> drain_tx t ch)
    end
  end
  else begin
    (* Descriptor ring full: degrade to the synchronous trap path. *)
    ch.tx_sync_fallbacks <- ch.tx_sync_fallbacks + 1;
    send t ch ~from_domain frame
  end

let tx_doorbells ch = ch.tx_doorbells
let tx_batches ch = ch.tx_batches
let tx_sync_fallbacks ch = ch.tx_sync_fallbacks

let tx_batch_histogram ch =
  List.sort compare (Hashtbl.fold (fun size n acc -> (size, n) :: acc) ch.tx_batch_hist [])

let rx_pop ch ~from_domain =
  Shared_mem.assert_mapped ch.region from_domain;
  Ring.pop ch.rx_ring

let rx_pending ch ~from_domain =
  Shared_mem.assert_mapped ch.region from_domain;
  not (Ring.is_empty ch.rx_ring)

let recycle t ch =
  (* Hand one buffer back to the controller ring so DMA can continue. *)
  if ch.bqi > 0 && not ch.destroyed then
    match t.nic.Nic.bqi with
    | Some ops ->
        if ops.Nic.ring_depth ch.bqi < Calibration.channel_ring_slots then begin
          match Shared_mem.alloc ch.region t.machine.Machine.kernel with
          | Some buf -> ignore (ops.Nic.provide_buffer ch.bqi buf)
          | None -> ()
        end
    | None -> ()

let inject t ~caller ch frame =
  require_privileged caller "Netio.inject";
  (* Channels may receive forwarded traffic between creation and
     activation (the handoff window); only destruction refuses it. *)
  if not ch.destroyed then deliver t ch frame

(* Re-pin a channel (its library thread moved, or the endpoint was
   re-installed with a new affinity).  The demux entries are re-tagged —
   which flushes the flow cache — so no dispatch after this returns can
   name the old CPU, and the channel's own [affinity] is what [deliver]
   consults, so queued history cannot steer stale either. *)
let set_channel_affinity t ch cpu =
  if ch.affinity <> cpu then begin
    ch.affinity <- cpu;
    List.iter (fun k -> Demux.set_affinity t.demux k cpu) ch.filters
  end

let migrations t = t.migrations

(* One library receive wakeup drained [n] frames from channel rings. *)
let note_rx_burst t n =
  if n > 0 then begin
    t.rx_wakeups <- t.rx_wakeups + 1;
    t.rx_frames <- t.rx_frames + n;
    Hashtbl.replace t.rx_burst_hist n
      (1 + Option.value ~default:0 (Hashtbl.find_opt t.rx_burst_hist n))
  end

let rx_wakeups t = t.rx_wakeups
let rx_frames t = t.rx_frames

let rx_burst_histogram t =
  List.sort compare (Hashtbl.fold (fun size n acc -> (size, n) :: acc) t.rx_burst_hist [])

let napi_stats t = t.nic.Nic.napi_stats ()
let txq_stats t = t.nic.Nic.txq_stats ()

let ring_overflows t = t.overflows
let hw_demuxed t = t.hw_demuxed
let sw_demuxed t = t.sw_demuxed
let channel_id ch = ch.id
