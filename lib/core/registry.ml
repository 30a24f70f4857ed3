module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Semaphore = Uln_engine.Semaphore
module Mutex = Uln_engine.Mutex
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ip = Uln_addr.Ip
module Mac = Uln_addr.Mac
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs
module Addr_space = Uln_host.Addr_space
module Ipc = Uln_host.Ipc
module Frame = Uln_net.Frame
module Nic = Uln_net.Nic
module Program = Uln_filter.Program
module Template = Uln_filter.Template
module Demux = Uln_filter.Demux
module Verify = Uln_filter.Verify
module Stack = Uln_proto.Stack
module Proto_env = Uln_proto.Proto_env
module Tcp = Uln_proto.Tcp
module Tcp_fsm = Uln_proto.Tcp_fsm
module Tcp_params = Uln_proto.Tcp_params
module Arp = Uln_proto.Arp
module Timers = Uln_engine.Timers

type grant = { snapshot : Tcp.snapshot; channel : Netio.channel; remote_mac : Mac.t }

type connect_req = {
  c_app : Addr_space.t;
  c_src_port : int;
  c_dst : Ip.t;
  c_dst_port : int;
}

type accept_req = { a_app : Addr_space.t; a_port : int }
type dgram = Udp | Rrp of [ `Server | `Client ]

(* Typed service errors: every refusal a library can meet is one arm,
   and [error_to_string] prints the message each surface shows. *)
type quota_resource = Conns | Mem

type error =
  | Quota_exceeded of { principal : string; resource : quota_resource; used : int; limit : int }
  | Out_of_ports
  | Port_in_use of int
  | Not_listening of int
  | Filter_rejected of string
  | Handshake_failed of string
  | Lease_violation of string

let error_to_string = function
  | Quota_exceeded { principal; resource; used; limit } ->
      Printf.sprintf "quota exceeded for %s: %s %d of %d" principal
        (match resource with Conns -> "connections" | Mem -> "channel bytes")
        used limit
  | Out_of_ports -> "out of ports"
  | Port_in_use p -> Printf.sprintf "port %d in use" p
  | Not_listening p -> Printf.sprintf "port %d is not listening" p
  | Filter_rejected m | Handshake_failed m | Lease_violation m -> m

(* Per-tenant admission quota: ceilings on concurrently granted
   connections and on the shared channel memory they pin. *)
type quota = { q_max_conns : int; q_max_mem_bytes : int }

let default_quota =
  { q_max_conns = Calibration.tenant_max_conns;
    q_max_mem_bytes = Calibration.tenant_max_mem_bytes }

type tenant = {
  tn_principal : string;
  mutable tn_active : int;
  mutable tn_mem_bytes : int;
  mutable tn_peak : int;
  mutable tn_denied : int;
}

(* Per-handshake bookkeeping: which local BQI to advertise outbound, and
   which remote BQI the peer advertised. *)
type pending = {
  mutable stamp_bqi : int;
  mutable peer_bqi : int;
  mutable p_bqi : Tcp_fsm.bqi_permit option;
      (* proof that this endpoint is in a handshake state; stamping or
         learning a BQI hint is gated on holding one *)
  mutable pre_channel : Netio.channel option; (* passive side, created at SYN *)
  mutable pre_reused : bool; (* pre_channel came from the recycling pool *)
}

type port_state = Listening of Tcp.listener | In_use | Leased

(* One endpoint lease handed to a library: a port block plus channels
   that live for the lease's lifetime. *)
type lease_grant = {
  lg_lease : Netio.lease;
  lg_base : int;
  lg_count : int;
  lg_channels : Netio.channel list;
}

(* The registry protocol: one constructor per service, typed by its
   request and reply. *)
type (_, _) leg =
  | Connect : (connect_req, (grant, error) result) leg
  | Listen : (int, (unit, error) result) leg
  | Accept : (accept_req, (grant, error) result) leg
  | Release : (int * Netio.channel, unit) leg
  | Inherit : (Tcp.snapshot * Netio.channel * bool, unit) leg
  | Inherit_batch : ((Tcp.snapshot * Netio.channel) list * bool, unit) leg
  | Lease : (Addr_space.t, (lease_grant, error) result) leg
  | Release_lease : (lease_grant, unit) leg
  | Bind_dgram : (Addr_space.t * dgram * int, (Netio.channel * int, error) result) leg
  | Release_dgram : (dgram * int * Netio.channel, unit) leg
  | Resolve : (Ip.t, Mac.t) leg
  | Park_tw : ((Ip.t * int * int) list, unit) leg

(* Each leg's (request, reply) bytes, the IPC transfer charge.  [Park_tw]
   is one-way: it pays no reply. *)
let sizes : type q r. (q, r) leg -> q -> int * int =
 fun leg req ->
  match leg with
  | Connect -> (64, 256)
  | Listen -> (16, 16)
  | Accept -> (32, 256)
  | Release -> (16, 16)
  | Inherit -> (128, 128)
  | Inherit_batch -> (128 * List.length (fst req), 16)
  | Lease -> (64, 512)
  | Release_lease -> (32, 16)
  | Bind_dgram -> (32, 128)
  | Release_dgram -> (16, 16)
  | Resolve -> (16, 16)
  | Park_tw -> (16 * List.length req, 0)

(* A request on the wire, with the slot its reply lands in. *)
type request = Request : ('q, 'r) leg * 'q * 'r option ref -> request

(* Per-connection wall-clock legs of the most recent setups, for the
   observability surface (netlab stats). *)
type leg_totals = {
  mutable lt_samples : int;
  mutable lt_port_alloc_us : float;
  mutable lt_round_trip_us : float;
  mutable lt_finish_us : float;
  mutable lt_total_us : float;
}

type tw_entry = {
  e_key : int32 * int * int;
  e_port : int;
  e_filter : Demux.key option;
  mutable e_done : bool;
  mutable e_timer : Uln_engine.Timers.handle option;
}

(* One registry shard: the port, pending-connection, handoff and
   TIME_WAIT tables of the connections routed to it, the CPU its table
   work is charged to, and a ranked lock guarding the tables.  With
   [shard_registry] off there is exactly one shard on the boot CPU, its
   lock is never taken and no routing cost is charged — the flat-table
   oracle path, byte-identical to the pre-shard registry.  Cross-shard
   deferred work (timer expiries, connection-close callbacks) arrives
   through [sh_post], a one-way IPC port served on the shard's CPU. *)
type shard = {
  sh_idx : int;
  sh_cpu : int;
  sh_lock : Mutex.t;
  sh_ports : (int, port_state) Hashtbl.t;
  sh_pending : (int32 * int * int, pending) Hashtbl.t; (* remote ip, rport, lport *)
  sh_handoffs : (int32 * int * int, Netio.channel) Hashtbl.t;
      (* connections handed to applications: segments that still match a
         registry filter (handoff races) are forwarded to the owner *)
  sh_tw_entries : (int32 * int * int, tw_entry) Hashtbl.t;
  sh_tw_order : tw_entry Queue.t;
  sh_inherit_filters : (int32 * int * int, Demux.key) Hashtbl.t;
  sh_space : Port_space.t; (* this shard's residue class of 49152-65535 *)
  sh_post : (unit -> unit, unit) Ipc.t option; (* Some only when sharded *)
}

type t = {
  machine : Machine.t;
  netio : Netio.t;
  dom : Addr_space.t;
  my_ip : Ip.t;
  stack : Stack.t;
  channel : Netio.channel;
  sharded : bool;
  nshards : int;
  shards : shard array;
  mutable handshakes : int;
  mutable inherited : int;
  prm : Uln_proto.Tcp_params.t;
  (* Tenant quotas: per-principal admission accounting. *)
  quota : quota;
  tenants : (string, tenant) Hashtbl.t;
  grants : (int, string) Hashtbl.t; (* channel id -> granted principal *)
  (* Channel recycling pool (channel_pool switch). *)
  mutable pool : Netio.channel list;
  mutable pool_count : int; (* |pool|, maintained (no per-call List.length) *)
  mutable pool_hits : int;
  mutable pool_misses : int;
  (* Endpoint leases (endpoint_lease switch). *)
  mutable leases_granted : int;
  mutable leases_active : int;
  (* TIME_WAIT wheel (time_wait_wheel switch). *)
  tw_timers : Uln_engine.Timers.t;
  mutable tw_parked : int;
  mutable tw_evicted : int;
  legs : leg_totals;
  calls : (request, unit) Ipc.t; (* every leg but [Park_tw] *)
  park_p : (request, unit) Ipc.t;
  (* Datagram bindings keyed by (IP protocol, port): UDP (17) and RRP
     (81) port spaces are disjoint, as on the wire. *)
  dgram_ports : (int * int, unit) Hashtbl.t;
  dgram_space : Port_space.t; (* client ports, 40001-65535 *)
}

let domain t = t.dom
let ip t = t.my_ip

(* {2 Shard routing}

   Placement is a stable function of the connection key: every piece of
   a connection's control state — its local port, its pending-handshake
   record, its handoff entry, its TIME_WAIT residue — shares the local
   port, so hashing that component of the 4-tuple (residue classes mod
   the shard count) colocates them on one shard and keeps placement
   deterministic across runs.  Ephemeral connects pick their shard by a
   stable hash of the remote endpoint (spreading load), then allocate
   the local port from that shard's residue class, preserving the
   colocation invariant. *)

let shard_of_port t p = if t.sharded then t.shards.(p mod t.nshards) else t.shards.(0)
let shard_of_key t (_, _, local_port) = shard_of_port t local_port

let conn_shard t ~dst ~dst_port =
  if not t.sharded then t.shards.(0)
  else
    let h = (Int32.to_int (Ip.to_int32 dst) land 0xffffff) + (31 * dst_port) in
    t.shards.(h mod t.nshards)

let shard_cpu t sh = Machine.cpu_at t.machine sh.sh_cpu
let charge_sh t sh span = Cpu.use (shard_cpu t sh) span

(* One routed table operation: the 4-tuple hash + indirection charge and
   the shard's ranked lock around [f].  The flat path (sharding off)
   charges nothing and takes no lock — it IS the old code. *)
let shard_sync ?(site = "registry.shard") t sh f =
  if t.sharded then begin
    charge_sh t sh Calibration.registry_shard_route;
    Mutex.with_lock ~site sh.sh_lock f
  end
  else f ()

(* Deferred cross-shard work (timer expiry, close callbacks): posted as
   a one-way IPC to the shard's own CPU when sharded, direct otherwise. *)
let shard_defer t sh f =
  match sh.sh_post with
  | Some p when t.sharded -> ignore (Ipc.post p ~size:16 f)
  | _ -> f ()

let ports_in_use t =
  Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.sh_ports) 0 t.shards

let handshakes_completed t = t.handshakes
let inherited_connections t = t.inherited
let stack t = t.stack

type pool_stats = { ps_hits : int; ps_misses : int; ps_parked : int }

let pool_stats t = { ps_hits = t.pool_hits; ps_misses = t.pool_misses; ps_parked = t.pool_count }

type lease_stats = { ls_granted : int; ls_active : int }

let lease_stats t = { ls_granted = t.leases_granted; ls_active = t.leases_active }

type time_wait_stats = {
  tw_pending : int;
  tw_parked_total : int;
  tw_evicted : int;
  tw_capacity : int;
}

let time_wait_stats t =
  { tw_pending =
      Array.fold_left (fun acc sh -> acc + Hashtbl.length sh.sh_tw_entries) 0 t.shards;
    tw_parked_total = t.tw_parked;
    tw_evicted = t.tw_evicted;
    tw_capacity = Calibration.time_wait_capacity }

type setup_legs = {
  sl_samples : int;
  sl_port_alloc_us : float;
  sl_round_trip_us : float;
  sl_finish_us : float;
  sl_total_us : float;
}

let setup_legs t =
  let l = t.legs in
  let n = Stdlib.max 1 l.lt_samples in
  let avg x = x /. float_of_int n in
  { sl_samples = l.lt_samples;
    sl_port_alloc_us = avg l.lt_port_alloc_us;
    sl_round_trip_us = avg l.lt_round_trip_us;
    sl_finish_us = avg l.lt_finish_us;
    sl_total_us = avg l.lt_total_us }

type tenant_stats = {
  ts_principal : string;
  ts_active : int;
  ts_mem_bytes : int;
  ts_peak : int;
  ts_denied : int;
}

let tenant_stats t =
  Hashtbl.fold
    (fun _ tn acc ->
      { ts_principal = tn.tn_principal;
        ts_active = tn.tn_active;
        ts_mem_bytes = tn.tn_mem_bytes;
        ts_peak = tn.tn_peak;
        ts_denied = tn.tn_denied }
      :: acc)
    t.tenants []
  |> List.sort (fun a b -> compare a.ts_principal b.ts_principal)

let quota_limits t = t.quota

type shard_stats = {
  ss_shard : int;
  ss_cpu : int;
  ss_ports : int;
  ss_pending : int;
  ss_tw_pending : int;
  ss_lock_acquisitions : int;
  ss_lock_contended : int;
}

let shard_stats t =
  Array.to_list
    (Array.map
       (fun sh ->
         let ls = Mutex.stats sh.sh_lock in
         { ss_shard = sh.sh_idx;
           ss_cpu = sh.sh_cpu;
           ss_ports = Hashtbl.length sh.sh_ports;
           ss_pending = Hashtbl.length sh.sh_pending;
           ss_tw_pending = Hashtbl.length sh.sh_tw_entries;
           ss_lock_acquisitions = ls.Semaphore.s_acquisitions;
           ss_lock_contended = ls.Semaphore.s_contended })
       t.shards)

let sharded t = t.sharded
let num_shards t = t.nshards

(* {2 Tenant quota accounting}

   A reservation is taken before the handshake (so concurrent setups
   cannot overshoot the ceiling) and either matures into a grant —
   recorded against the channel so release/inheritance can find the
   principal — or is returned on any failure path.  Leased connects
   never reach the registry per connection; their exposure is bounded by
   the lease block itself and accounted at lease-grant time by the
   block's channel set. *)

let tenant_of t principal =
  match Hashtbl.find_opt t.tenants principal with
  | Some tn -> tn
  | None ->
      let tn =
        { tn_principal = principal; tn_active = 0; tn_mem_bytes = 0; tn_peak = 0; tn_denied = 0 }
      in
      Hashtbl.replace t.tenants principal tn;
      tn

let tenant_reserve t principal =
  let tn = tenant_of t principal in
  if tn.tn_active + 1 > t.quota.q_max_conns then begin
    tn.tn_denied <- tn.tn_denied + 1;
    Error
      (Quota_exceeded
         { principal; resource = Conns; used = tn.tn_active; limit = t.quota.q_max_conns })
  end
  else if tn.tn_mem_bytes + Calibration.tenant_mem_per_conn > t.quota.q_max_mem_bytes then begin
    tn.tn_denied <- tn.tn_denied + 1;
    Error
      (Quota_exceeded
         { principal;
           resource = Mem;
           used = tn.tn_mem_bytes;
           limit = t.quota.q_max_mem_bytes })
  end
  else begin
    tn.tn_active <- tn.tn_active + 1;
    tn.tn_mem_bytes <- tn.tn_mem_bytes + Calibration.tenant_mem_per_conn;
    tn.tn_peak <- Stdlib.max tn.tn_peak tn.tn_active;
    Ok tn
  end

let tenant_release t principal =
  match Hashtbl.find_opt t.tenants principal with
  | None -> ()
  | Some tn ->
      tn.tn_active <- Stdlib.max 0 (tn.tn_active - 1);
      tn.tn_mem_bytes <- Stdlib.max 0 (tn.tn_mem_bytes - Calibration.tenant_mem_per_conn)

(* A reservation matures: bind it to the granted channel. *)
let tenant_bind t principal channel =
  Hashtbl.replace t.grants (Netio.channel_id channel) principal

(* The grant ends (release or inheritance): return the quota. *)
let tenant_drop t channel =
  let id = Netio.channel_id channel in
  match Hashtbl.find_opt t.grants id with
  | None -> ()
  | Some principal ->
      Hashtbl.remove t.grants id;
      tenant_release t principal

(* Minimal TCP header inspection of an IP payload — the layering
   violation the paper accepts for setup-time machinery. *)
type tcp_peek = { p_src : Ip.t; p_dst : Ip.t; p_sport : int; p_dport : int; p_flags : int }

let peek_tcp payload =
  if Mbuf.length payload >= 40 then begin
    let hdr = Mbuf.flatten (Mbuf.take payload 40) in
    if View.get_uint8 hdr 0 = 0x45 && View.get_uint8 hdr 9 = 6 then
      Some
        { p_src = Ip.of_int32 (View.get_uint32 hdr 12);
          p_dst = Ip.of_int32 (View.get_uint32 hdr 16);
          p_sport = View.get_uint16 hdr 20;
          p_dport = View.get_uint16 hdr 22;
          p_flags = View.get_uint8 hdr 33 }
    else None
  end
  else None

let flag_syn = 2
let flag_ack = 16

let pending_key ~remote_ip ~remote_port ~local_port =
  (Ip.to_int32 remote_ip, remote_port, local_port)

(* A connection's inbound segments, routed to [ch]: a stamp of the
   host's one connection-filter shape. *)
let conn_filter t ch ~remote_ip ~remote_port ~local_port =
  Netio.add_stamped_filter t.netio ~caller:t.dom ch ~remote_ip ~remote_port ~local_ip:t.my_ip
    ~local_port

let conn_template t ~remote_ip ~remote_port ~local_port ~bqi =
  Template.tcp_conn ~src_ip:t.my_ip ~dst_ip:remote_ip ~src_port:local_port
    ~dst_port:remote_port ~bqi ()

let charge t span = Cpu.use t.machine.Machine.cpu span

(* A datagram binding's key in the (IP protocol, port) table. *)
let dgram_key kind port = ((match kind with Udp -> 17 | Rrp _ -> 81), port)

(* Verifier refusals and overlap conflicts surface as [Filter_rejected]
   from the leg that tried the install. *)
let verifier_error e = Filter_rejected (Format.asprintf "filter rejected: %a" Verify.pp_error e)
let conflict_error desc = Filter_rejected ("capability install conflict: " ^ desc)

(* The registry reaches the device with ordinary IPC, not shared memory
   (paper §4: part of why setup is costlier than data transfer). *)
let device_ipc_cost t =
  let c = t.machine.Machine.costs in
  Time.span_add c.Costs.ipc_fixed c.Costs.context_switch

(* {2 Connection-churn fast-path helpers} *)

(* Channel recycling (channel_pool): a parked channel keeps its shared
   region, mappings, semaphore, capability gate and BQI ring, so
   re-arming it for a new connection skips the expensive mapping work.
   The pool is a registry-global resource (not per shard): its accesses
   happen on the serving thread and its size is a maintained counter. *)
let take_channel t ~owner =
  let use_bqi = (Netio.nic t.netio).Nic.bqi <> None in
  if t.prm.Tcp_params.channel_pool then
    match t.pool with
    | ch :: rest when not (Netio.channel_destroyed ch) ->
        t.pool <- rest;
        t.pool_count <- t.pool_count - 1;
        t.pool_hits <- t.pool_hits + 1;
        Netio.reassign_owner t.netio ~caller:t.dom ch ~owner;
        (ch, true)
    | _ ->
        t.pool_misses <- t.pool_misses + 1;
        (Netio.create_channel t.netio ~caller:t.dom ~owner ~use_bqi, false)
  else (Netio.create_channel t.netio ~caller:t.dom ~owner ~use_bqi, false)

let put_channel t ch =
  if
    t.prm.Tcp_params.channel_pool
    && (not (Netio.channel_destroyed ch))
    && t.pool_count < Calibration.channel_pool_max
  then begin
    Netio.park_channel t.netio ~caller:t.dom ch;
    t.pool <- ch :: t.pool;
    t.pool_count <- t.pool_count + 1
  end
  else Netio.destroy_channel t.netio ~caller:t.dom ch

(* The per-connection channel construction charge: a recycled channel
   pays the cheap re-arm cost; a fresh one the full setup, plus ring
   stocking when it has a hardware BQI. *)
let charge_channel_build t ~app_ch ~reused =
  charge t
    (if reused then Calibration.channel_reuse_setup
     else
       Time.span_add Calibration.registry_channel_setup
         (if Netio.channel_bqi app_ch > 0 then Calibration.bqi_setup else 0))

let record_legs t ~t0 ~t1 ~t2 ~t3 =
  let l = t.legs in
  l.lt_samples <- l.lt_samples + 1;
  l.lt_port_alloc_us <- l.lt_port_alloc_us +. Time.to_us_f (Time.diff t1 t0);
  l.lt_round_trip_us <- l.lt_round_trip_us +. Time.to_us_f (Time.diff t2 t1);
  l.lt_finish_us <- l.lt_finish_us +. Time.to_us_f (Time.diff t3 t2);
  l.lt_total_us <- l.lt_total_us +. Time.to_us_f (Time.diff t3 t0)

(* {2 TIME_WAIT wheel (time_wait_wheel)} *)

(* Per-shard slice of the global parking capacity (the whole cap with
   one shard). *)
let tw_cap t = Stdlib.max 1 (Calibration.time_wait_capacity / t.nshards)

(* Free a port that a connection held, unless a listener or a lease has
   claimed it since.  Callers hold [sh]'s lock when sharded. *)
let free_in_use sh port =
  match Hashtbl.find_opt sh.sh_ports port with
  | Some In_use -> Hashtbl.remove sh.sh_ports port
  | Some (Listening _ | Leased) | None -> ()

(* Callers hold [sh]'s lock when sharded. *)
let tw_expire_u t sh entry =
  if not entry.e_done then begin
    entry.e_done <- true;
    (match entry.e_timer with Some h -> Timers.disarm h | None -> ());
    (match entry.e_filter with
    | Some k -> Netio.remove_filter t.netio ~caller:t.dom k
    | None -> ());
    Hashtbl.remove sh.sh_tw_entries entry.e_key;
    free_in_use sh entry.e_port
  end

(* Claim an inherited connection's 2MSL quiet period: instead of a live
   control block ticking in the engine, the residue is one wheel entry
   (4-tuple, port, demux filter).  Stray segments for a parked residue
   match the kept filter, reach the registry engine's unknown-connection
   path and are dropped silently.  Capacity is bounded: past the cap the
   oldest residue forfeits its remaining quiet time (counted).  Callers
   hold [sh]'s lock when sharded. *)
let tw_park_u t sh ~key ~port =
  if Hashtbl.mem sh.sh_tw_entries key then false
  else begin
    charge_sh t sh Calibration.time_wait_entry;
    while
      Hashtbl.length sh.sh_tw_entries >= tw_cap t && not (Queue.is_empty sh.sh_tw_order)
    do
      let oldest = Queue.pop sh.sh_tw_order in
      if not oldest.e_done then begin
        t.tw_evicted <- t.tw_evicted + 1;
        tw_expire_u t sh oldest
      end
    done;
    let entry =
      { e_key = key;
        e_port = port;
        e_filter = Hashtbl.find_opt sh.sh_inherit_filters key;
        e_done = false;
        e_timer = None }
    in
    Hashtbl.remove sh.sh_inherit_filters key;
    entry.e_timer <-
      Some
        (Timers.arm t.tw_timers
           (Time.span_scale t.prm.Tcp_params.msl 2)
           (fun () ->
             (* Timer context: cross-shard, so defer to the shard.  The
                post charges CPU time, which only a thread can wait for. *)
             let expire () =
               shard_sync ~site:"registry.tw_expire" t sh (fun () -> tw_expire_u t sh entry)
             in
             if t.sharded then
               Sched.spawn t.machine.Machine.sched ~name:"registry.tw_expire" (fun () ->
                   shard_defer t sh expire)
             else expire ()));
    Hashtbl.replace sh.sh_tw_entries key entry;
    Queue.push entry sh.sh_tw_order;
    t.tw_parked <- t.tw_parked + 1;
    true
  end

let tw_park t ~key ~port =
  let sh = shard_of_key t key in
  shard_sync ~site:"registry.tw_park" t sh (fun () -> tw_park_u t sh ~key ~port)

let tw_claim t conn =
  let remote_ip, remote_port = Tcp.remote_addr conn in
  let local_port = Tcp.local_port conn in
  tw_park t ~key:(pending_key ~remote_ip ~remote_port ~local_port) ~port:local_port

(* A library offloads leased connections' quiet periods: each local
   control block (and its channel) freed immediately; the registry owns
   the 2MSL residues.  The ports stay inside the lease block, so expiry
   touches no port state.  Libraries batch residues into one message to
   amortize the crossing at churn rate. *)
let do_park_tw t residues =
  if t.prm.Tcp_params.time_wait_wheel then
    List.iter
      (fun (remote_ip, remote_port, local_port) ->
        ignore
          (tw_park t
             ~key:(pending_key ~remote_ip ~remote_port ~local_port)
             ~port:local_port))
      residues

let make_shard machine ~sharded ~nshards i =
  { sh_idx = i;
    sh_cpu = i;
    sh_lock =
      Mutex.create
        ~name:(Printf.sprintf "%s.registry.shard%d.lock" machine.Machine.name i)
        ~sched:machine.Machine.sched ();
    sh_ports = Hashtbl.create 16;
    sh_pending = Hashtbl.create 16;
    sh_handoffs = Hashtbl.create 16;
    sh_tw_entries = Hashtbl.create 64;
    sh_tw_order = Queue.create ();
    sh_inherit_filters = Hashtbl.create 64;
    sh_space = Port_space.create ~stride:nshards ~residue:i ~lo:49152 ~hi:65535 ();
    sh_post =
      (if sharded then
         Some
           (Ipc.create machine.Machine.sched (Machine.cpu_at machine i)
              machine.Machine.costs
              ~name:(Printf.sprintf "registry.shard%d.post" i))
       else None) }

let rec create machine netio ~ip ?tcp_params ?(quota = default_quota) () =
  let dom = Machine.new_server_domain machine "tcp-registry" in
  let nic = Netio.nic netio in
  let channel = Netio.create_channel netio ~caller:dom ~owner:dom ~use_bqi:false in
  Netio.activate netio ~caller:dom channel ~filter:(Program.arp ()) ~template:(Template.make []);
  let env = Proto_env.of_machine machine in
  let prm = match tcp_params with Some p -> p | None -> Uln_proto.Tcp_params.default in
  let sharded = prm.Tcp_params.shard_registry in
  let nshards = if sharded then Stdlib.max 1 (Machine.num_cpus machine) else 1 in
  let shards = Array.init nshards (make_shard machine ~sharded ~nshards) in
  let rec t =
    lazy
      (let tx frame =
         let tt = Lazy.force t in
         (* Stamp our advertised BQI into the spare link-header field on
            handshake frames. *)
         let frame =
           match peek_tcp frame.Frame.payload with
           | Some peek -> (
               let key =
                 pending_key ~remote_ip:peek.p_dst ~remote_port:peek.p_dport
                   ~local_port:peek.p_sport
               in
               let sh = shard_of_key tt key in
               match
                 shard_sync ~site:"registry.tx_stamp" tt sh (fun () ->
                     Hashtbl.find_opt sh.sh_pending key)
               with
               | Some p when p.stamp_bqi > 0 && p.p_bqi <> None ->
                   { frame with Frame.bqi_hint = p.stamp_bqi }
               | _ -> frame)
           | None -> frame
         in
         charge tt (device_ipc_cost tt);
         Netio.send tt.netio tt.channel ~from_domain:tt.dom frame
       in
       let stack =
         Stack.create env
           ~netif:{ Stack.mtu = nic.Nic.mtu; mac = nic.Nic.mac; tx }
           ~ip_addr:ip ?tcp_params ()
       in
       Tcp.set_rst_on_unknown stack.Stack.tcp false;
       let costs = machine.Machine.costs in
       { machine;
         netio;
         dom;
         my_ip = ip;
         stack;
         channel;
         sharded;
         nshards;
         shards;
         handshakes = 0;
         inherited = 0;
         prm;
         quota;
         tenants = Hashtbl.create 8;
         grants = Hashtbl.create 64;
         pool = [];
         pool_count = 0;
         pool_hits = 0;
         pool_misses = 0;
         leases_granted = 0;
         leases_active = 0;
         tw_timers =
           Uln_engine.Timers.create machine.Machine.sched
             ~granularity:Calibration.time_wait_granularity;
         tw_parked = 0;
         tw_evicted = 0;
         legs =
           { lt_samples = 0;
             lt_port_alloc_us = 0.;
             lt_round_trip_us = 0.;
             lt_finish_us = 0.;
             lt_total_us = 0. };
         calls = Ipc.create machine.Machine.sched machine.Machine.cpu costs ~name:"registry";
         park_p =
           Ipc.create machine.Machine.sched machine.Machine.cpu costs ~name:"registry.park_tw";
         dgram_ports = Hashtbl.create 16;
         dgram_space = Port_space.create ~lo:40001 ~hi:65535 () })
  in
  let t = Lazy.force t in
  (* Receive loop: handshake/ARP traffic routed to the registry channel. *)
  let costs = machine.Machine.costs in
  let rec rx_loop () =
    Semaphore.wait (Netio.rx_sem channel);
    Sched.sleep machine.Machine.sched costs.Costs.wakeup_latency;
    Cpu.use machine.Machine.cpu costs.Costs.context_switch;
    let rec drain () =
      match Netio.rx_pop channel ~from_domain:dom with
      | None -> ()
      | Some frame ->
          charge t (device_ipc_cost t);
          if not (forwarded t frame) then begin
            on_rx t frame;
            Stack.input t.stack frame
          end;
          drain ()
    in
    drain ();
    rx_loop ()
  in
  Sched.spawn machine.Machine.sched ~name:"registry.rx" rx_loop;
  (* Belt and braces for handoff races: a segment that was already past
     the forwarding check when the handoff registered reaches the
     engine's unknown-connection path; reconstruct a frame and deliver
     it to the owning channel. *)
  Tcp.set_unknown_segment_hook t.stack.Stack.tcp (fun ~src ~dst segment ->
      if Mbuf.length segment < 4 then false
      else begin
        let hdr = Mbuf.flatten (Mbuf.take segment 4) in
        let sport = View.get_uint16 hdr 0 and dport = View.get_uint16 hdr 2 in
        let key = pending_key ~remote_ip:src ~remote_port:sport ~local_port:dport in
        let sh = shard_of_key t key in
        match
          shard_sync ~site:"registry.unknown_seg" t sh (fun () ->
              Hashtbl.find_opt sh.sh_handoffs key)
        with
        | None -> false
        | Some ch ->
            let ip_hdr = View.create 20 in
            View.set_uint8 ip_hdr 0 0x45;
            View.set_uint16 ip_hdr 2 (20 + Mbuf.length segment);
            View.set_uint8 ip_hdr 8 64;
            View.set_uint8 ip_hdr 9 6;
            View.set_uint32 ip_hdr 12 (Ip.to_int32 src);
            View.set_uint32 ip_hdr 16 (Ip.to_int32 dst);
            View.set_uint16 ip_hdr 10 (Uln_proto.Checksum.of_view ip_hdr);
            let frame =
              Frame.make ~src:nic.Nic.mac ~dst:nic.Nic.mac ~ethertype:Frame.ethertype_ip
                (Mbuf.prepend ip_hdr segment)
            in
            Netio.inject t.netio ~caller:t.dom ch frame;
            true
      end);
  if t.prm.Tcp_params.time_wait_wheel then
    Tcp.set_time_wait_hook t.stack.Stack.tcp (fun conn -> tw_claim t conn);
  serve t;
  t

(* A segment of an already-handed-off connection (it matched a registry
   filter in the window before the application's filter existed) is
   re-delivered into the owning channel. *)
and forwarded t frame =
  if frame.Frame.ethertype <> Frame.ethertype_ip then false
  else
    match peek_tcp frame.Frame.payload with
    | None -> false
    | Some peek -> (
        let key =
          pending_key ~remote_ip:peek.p_src ~remote_port:peek.p_sport
            ~local_port:peek.p_dport
        in
        let sh = shard_of_key t key in
        match
          shard_sync ~site:"registry.forward" t sh (fun () ->
              Hashtbl.find_opt sh.sh_handoffs key)
        with
        | Some ch ->
            Netio.inject t.netio ~caller:t.dom ch frame;
            true
        | None -> false)

(* Observe inbound handshake frames: capture the peer's advertised BQI
   and pre-create channels for incoming SYNs on listening ports. *)
and on_rx t frame =
  if frame.Frame.ethertype = Frame.ethertype_ip then
    match peek_tcp frame.Frame.payload with
    | None -> ()
    | Some peek -> (
        let key =
          pending_key ~remote_ip:peek.p_src ~remote_port:peek.p_sport
            ~local_port:peek.p_dport
        in
        let sh = shard_of_key t key in
        let is_syn_only = peek.p_flags land flag_syn <> 0 && peek.p_flags land flag_ack = 0 in
        shard_sync ~site:"registry.on_rx" t sh (fun () ->
            match Hashtbl.find_opt sh.sh_pending key with
            | Some p ->
                if frame.Frame.bqi_hint > 0 && p.p_bqi <> None then
                  p.peer_bqi <- frame.Frame.bqi_hint
            | None ->
                if is_syn_only && Hashtbl.mem sh.sh_ports peek.p_dport then begin
                  match Hashtbl.find_opt sh.sh_ports peek.p_dport with
                  | Some (Listening l) ->
                      let ch, reused = take_channel t ~owner:t.dom in
                      Hashtbl.replace sh.sh_pending key
                        { stamp_bqi = Netio.channel_bqi ch;
                          peer_bqi = frame.Frame.bqi_hint;
                          p_bqi = Some (Tcp_fsm.bqi_exchange (Tcp.listener_witness l));
                          pre_channel = Some ch;
                          pre_reused = reused }
                  | Some (In_use | Leased) | None -> ()
                end))

and resolve_mac t dst =
  match Arp.lookup t.stack.Stack.arp dst with
  | Some mac -> mac
  | None ->
      let result = ref None in
      let resume = ref (fun () -> ()) in
      Arp.resolve t.stack.Stack.arp dst (fun r ->
          result := r;
          !resume ());
      Sched.suspend (fun wake -> resume := wake);
      (match !result with Some m -> m | None -> Mac.broadcast)

and do_connect t (req : connect_req) =
  let sched = t.machine.Machine.sched in
  let t0 = Sched.now sched in
  let sh =
    if req.c_src_port <> 0 then shard_of_port t req.c_src_port
    else conn_shard t ~dst:req.c_dst ~dst_port:req.c_dst_port
  in
  charge_sh t sh Calibration.registry_port_alloc;
  let principal = Addr_space.name req.c_app in
  match tenant_reserve t principal with
  | Error e -> Error e
  | Ok _ -> (
      let unreserve () = tenant_release t principal in
      let claim =
        shard_sync ~site:"registry.connect" t sh (fun () ->
            (* An ephemeral port comes from [sh]'s residue class, so its
               own routing lands back on [sh] (the colocation invariant). *)
            match
              if req.c_src_port = 0 then Port_space.take sh.sh_space ~held:(Hashtbl.mem sh.sh_ports)
              else Ok req.c_src_port
            with
            | Error Port_space.Exhausted -> Error Out_of_ports
            | Ok src_port when Hashtbl.mem sh.sh_ports src_port ->
                Error (Port_in_use src_port)
            | Ok src_port ->
                Hashtbl.replace sh.sh_ports src_port In_use;
                Ok src_port)
      in
      match claim with
      | Error e ->
          unreserve ();
          Error e
      | Ok src_port -> (
          let app_ch, reused = take_channel t ~owner:req.c_app in
          let key =
            pending_key ~remote_ip:req.c_dst ~remote_port:req.c_dst_port ~local_port:src_port
          in
          shard_sync ~site:"registry.connect" t sh (fun () ->
              Hashtbl.replace sh.sh_pending key
                { stamp_bqi = Netio.channel_bqi app_ch;
                  peer_bqi = 0;
                  p_bqi = None;
                  (* no permit yet: minted from the SYN_SENT witness below,
                     before the SYN leaves — stamping stays dark until then *)
                  pre_channel = None;
                  pre_reused = false });
          (* Route this handshake's inbound segments to the registry. *)
          let tmp_filter =
            conn_filter t t.channel ~remote_ip:req.c_dst ~remote_port:req.c_dst_port
              ~local_port:src_port
          in
              let cleanup () =
                Netio.remove_filter t.netio ~caller:t.dom tmp_filter;
                shard_sync ~site:"registry.connect" t sh (fun () ->
                    Hashtbl.remove sh.sh_pending key;
                    Hashtbl.remove sh.sh_ports src_port);
                put_channel t app_ch;
                unreserve ()
              in
              (* Split open: allocate the SYN_SENT control block first so its
                 witness can mint the BQI permit before any wire activity —
                 the tx stamper refuses to decorate frames for a pending entry
                 that holds no handshake-state proof. *)
              match
                Tcp.connect_prepare t.stack.Stack.tcp ~src_port ~dst:req.c_dst
                  ~dst_port:req.c_dst_port
              with
              | Error e ->
                  cleanup ();
                  Error (Handshake_failed e)
              | Ok (conn, syn_sent) -> (
                  shard_sync ~site:"registry.connect" t sh (fun () ->
                      (Hashtbl.find sh.sh_pending key).p_bqi <-
                        Some (Tcp_fsm.bqi_exchange syn_sent));
                  let t1 = Sched.now sched in
                  match Tcp.connect_launch conn with
                  | Error e ->
                      cleanup ();
                      Error (Handshake_failed e)
                  | Ok witness ->
                      let t2 = Sched.now sched in
                      let p =
                        shard_sync ~site:"registry.connect" t sh (fun () ->
                            Hashtbl.find sh.sh_pending key)
                      in
                      let r =
                        finish_setup t ~principal ~conn ~witness ~app_ch ~reused
                          ~remote_ip:req.c_dst ~remote_port:req.c_dst_port ~local_port:src_port
                          ~peer_bqi:p.peer_bqi ~tmp_filter:(Some tmp_filter) ~key
                      in
                      record_legs t ~t0 ~t1 ~t2 ~t3:(Sched.now sched);
                      r)))

and finish_setup t ~principal ~conn ~witness ~app_ch ~reused ~remote_ip ~remote_port ~local_port
    ~peer_bqi ~tmp_filter ~key =
  (* Build the user channel: shared region already exists; install the
     connection filter and the anti-impersonation template.  The handoff
     entry is registered first so that segments racing the transfer are
     diverted to the application's channel rather than processed (and
     then lost) by the registry's own engine. *)
  let sh = shard_of_key t key in
  shard_sync ~site:"registry.finish" t sh (fun () ->
      Hashtbl.replace sh.sh_handoffs key app_ch);
  charge_channel_build t ~app_ch ~reused;
  Netio.activate_conn t.netio ~caller:t.dom app_ch ~remote_ip ~remote_port ~local_ip:t.my_ip
    ~local_port
    ~template:(conn_template t ~remote_ip ~remote_port ~local_port ~bqi:peer_bqi);
  (match tmp_filter with
  | Some k -> Netio.remove_filter t.netio ~caller:t.dom k
  | None -> ());
  shard_sync ~site:"registry.finish" t sh (fun () -> Hashtbl.remove sh.sh_pending key);
  let snapshot = Tcp.export conn ~witness in
  charge t Calibration.registry_state_transfer;
  t.handshakes <- t.handshakes + 1;
  tenant_bind t principal app_ch;
  Ok { snapshot; channel = app_ch; remote_mac = resolve_mac t remote_ip }

and do_listen t port =
  let sh = shard_of_port t port in
  if shard_sync ~site:"registry.listen" t sh (fun () -> Hashtbl.mem sh.sh_ports port) then
    Error (Port_in_use port)
  else begin
    charge_sh t sh Calibration.registry_port_alloc;
    match
      Netio.add_filter t.netio ~caller:t.dom t.channel
        (Program.tcp_dst_port ~dst_ip:t.my_ip ~dst_port:port)
    with
    | exception Verify.Rejected e -> Error (verifier_error e)
    | _ ->
        let listener = Tcp.listen t.stack.Stack.tcp ~port in
        shard_sync ~site:"registry.listen" t sh (fun () ->
            Hashtbl.replace sh.sh_ports port (Listening listener));
        Ok ()
  end

and do_accept t (req : accept_req) =
  let sh = shard_of_port t req.a_port in
  match
    shard_sync ~site:"registry.accept" t sh (fun () ->
        Hashtbl.find_opt sh.sh_ports req.a_port)
  with
  | Some (Listening listener) -> (
      let principal = Addr_space.name req.a_app in
      (* Block for a connection first, reserve after: a parked accept
         must not pin a quota slot for a SYN that never arrives. *)
      let conn, witness = Tcp.accept listener in
      let remote_ip, remote_port = Tcp.remote_addr conn in
      let key = pending_key ~remote_ip ~remote_port ~local_port:req.a_port in
      let p =
        shard_sync ~site:"registry.accept" t sh (fun () ->
            Hashtbl.find_opt sh.sh_pending key)
      in
      match tenant_reserve t principal with
      | Error e ->
          (* Admission denied: reset the peer and recycle anything the
             SYN pre-built. *)
          shard_sync ~site:"registry.accept" t sh (fun () ->
              Hashtbl.remove sh.sh_pending key);
          (match p with Some { pre_channel = Some ch; _ } -> put_channel t ch | _ -> ());
          Tcp.abort conn;
          Error e
      | Ok _ ->
          let app_ch, reused =
            match p with
            | Some { pre_channel = Some ch; pre_reused; _ } ->
                Netio.reassign_owner t.netio ~caller:t.dom ch ~owner:req.a_app;
                (ch, pre_reused)
            | _ -> take_channel t ~owner:req.a_app
          in
          let peer_bqi = match p with Some p -> p.peer_bqi | None -> 0 in
          finish_setup t ~principal ~conn ~witness ~app_ch ~reused ~remote_ip ~remote_port
            ~local_port:req.a_port ~peer_bqi ~tmp_filter:None ~key)
  | Some (In_use | Leased) | None ->
      Error (Not_listening req.a_port)

and drop_handoff t channel =
  Array.iter
    (fun sh ->
      shard_sync ~site:"registry.drop_handoff" t sh (fun () ->
          let stale =
            Hashtbl.fold
              (fun k ch acc -> if ch == channel then k :: acc else acc)
              sh.sh_handoffs []
          in
          List.iter (Hashtbl.remove sh.sh_handoffs) stale))
    t.shards

and do_release t (port, channel) =
  tenant_drop t channel;
  drop_handoff t channel;
  put_channel t channel;
  let sh = shard_of_port t port in
  shard_sync ~site:"registry.release" t sh (fun () -> free_in_use sh port)

and do_inherit_one t (snapshot, channel) ~graceful =
  t.inherited <- t.inherited + 1;
  tenant_drop t channel;
  drop_handoff t channel;
  let remote_ip = snapshot.Tcp.snap_remote_ip in
  let remote_port = snapshot.Tcp.snap_remote_port in
  let local_port = snapshot.Tcp.snap_local_port in
  let wheel = t.prm.Tcp_params.time_wait_wheel in
  let key = pending_key ~remote_ip ~remote_port ~local_port in
  let sh = shard_of_key t key in
  let free_port () =
    shard_sync ~site:"registry.inherit_close" t sh (fun () -> free_in_use sh local_port)
  in
  if wheel && not graceful then begin
    (* Abnormal exit with the wheel on: batched RST sweep.  No filter
       re-point — the RST retires the remote end, and a late segment
       simply matches no channel.  One per-connection sweep charge
       replaces the full inherit dispatch. *)
    charge_sh t sh Calibration.rst_batch_per_conn;
    put_channel t channel;
    let conn = Tcp.import t.stack.Stack.tcp snapshot in
    Tcp.on_closed conn (fun () -> shard_defer t sh free_port);
    Tcp.abort conn
  end
  else begin
    (* Re-point the connection's packets at the registry, then drop the
       application's channel. *)
    let fkey = conn_filter t t.channel ~remote_ip ~remote_port ~local_port in
    if wheel then
      shard_sync ~site:"registry.inherit" t sh (fun () ->
          Hashtbl.replace sh.sh_inherit_filters key fkey);
    put_channel t channel;
    let conn = Tcp.import t.stack.Stack.tcp snapshot in
    Tcp.on_closed conn (fun () ->
        (* When the wheel claimed the 2MSL residue the port stays held
           until the wheel entry expires. *)
        shard_defer t sh (fun () ->
            if
              not
                (wheel
                && shard_sync ~site:"registry.inherit_close" t sh (fun () ->
                       Hashtbl.mem sh.sh_tw_entries key))
            then free_port ()));
    if graceful then Tcp.close conn
    else begin
      (* Abnormal termination: reset the remote peer (paper §3.4). *)
      Tcp.abort conn
    end
  end

and do_lease t app =
  (* One IPC buys a port block, the kernel-side lease (pre-verified
     filter/template shape) and a set of ready channels. *)
  charge t Calibration.lease_grant;
  let block = Calibration.lease_block_ports in
  match
    Port_space.find_block ~lo:49152 ~hi:65535 ~size:block ~held:(fun p ->
        Hashtbl.mem (shard_of_port t p).sh_ports p)
  with
  | Error Port_space.Exhausted -> Error Out_of_ports
  | Ok base ->
      for p = base to base + block - 1 do
        let sh = shard_of_port t p in
        shard_sync ~site:"registry.lease" t sh (fun () ->
            Hashtbl.replace sh.sh_ports p Leased)
      done;
      let lease =
        Netio.grant_lease t.netio ~caller:t.dom ~owner:app ~ip:t.my_ip ~base_port:base
          ~count:block
      in
      let channels =
        List.init Calibration.lease_channels (fun _ ->
            let ch, reused = take_channel t ~owner:app in
            charge_channel_build t ~app_ch:ch ~reused;
            ch)
      in
      t.leases_granted <- t.leases_granted + 1;
      t.leases_active <- t.leases_active + 1;
      Ok { lg_lease = lease; lg_base = base; lg_count = block; lg_channels = channels }

and do_release_lease t (g : lease_grant) =
  Netio.revoke_lease t.netio ~caller:t.dom g.lg_lease;
  for p = g.lg_base to g.lg_base + g.lg_count - 1 do
    let sh = shard_of_port t p in
    shard_sync ~site:"registry.release_lease" t sh (fun () ->
        match Hashtbl.find_opt sh.sh_ports p with
        | Some Leased -> Hashtbl.remove sh.sh_ports p
        | Some (Listening _ | In_use) | None -> ())
  done;
  List.iter
    (fun ch -> if not (Netio.channel_destroyed ch) then put_channel t ch)
    g.lg_channels;
  t.leases_active <- t.leases_active - 1

(* The binding phase of every connectionless endpoint (paper SS5): one
   (protocol, port) table, one client-port cursor, one channel build.
   Client ports skip any port of the protocol still bound (served ports
   included). *)
and do_bind_dgram t (app, kind, port) =
  let held p = Hashtbl.mem t.dgram_ports (dgram_key kind p) in
  match if port = 0 then Port_space.take t.dgram_space ~held else Ok port with
  | Error Port_space.Exhausted -> Error Out_of_ports
  | Ok port when held port -> Error (Port_in_use port)
  | Ok port ->
      charge t Calibration.registry_port_alloc;
      let src_ip = t.my_ip in
      let filter, template =
        match kind with
        | Udp ->
            ( Program.udp_port ~dst_ip:src_ip ~dst_port:port,
              Template.udp_bound ~src_ip ~src_port:port () )
        | Rrp role ->
            ( (match role with `Server -> Program.rrp_server | `Client -> Program.rrp_client)
                ~dst_ip:src_ip ~port,
              Template.rrp_endpoint ~src_ip ~role ~port () )
      in
      let ch = Netio.create_channel t.netio ~caller:t.dom ~owner:app ~use_bqi:false in
      let refuse e =
        Netio.destroy_channel t.netio ~caller:t.dom ch;
        Error e
      in
      match Netio.vet_filter t.netio ch filter with
      | Error desc -> refuse (conflict_error desc)
      | Ok vetted -> (
          charge t Calibration.registry_channel_setup;
          try
            Netio.activate_vetted t.netio ~caller:t.dom ch vetted ~template;
            Hashtbl.replace t.dgram_ports (dgram_key kind port) ();
            Ok (ch, port)
          with Verify.Rejected e -> refuse (verifier_error e))

and do_release_dgram t (kind, port, channel) =
  Netio.destroy_channel t.netio ~caller:t.dom channel;
  Hashtbl.remove t.dgram_ports (dgram_key kind port)

(* The one dispatch of every leg. *)
and dispatch : type q r. t -> (q, r) leg -> q -> r =
 fun t leg req ->
  match leg with
  | Connect -> do_connect t req
  | Listen -> do_listen t req
  | Accept -> do_accept t req
  | Release -> do_release t req
  | Inherit ->
      let snapshot, channel, graceful = req in
      do_inherit_one t (snapshot, channel) ~graceful
  | Inherit_batch ->
      let conns, graceful = req in
      List.iter (fun cg -> do_inherit_one t cg ~graceful) conns
  | Lease -> do_lease t req
  | Release_lease -> do_release_lease t req
  | Bind_dgram -> do_bind_dgram t req
  | Release_dgram -> do_release_dgram t req
  | Resolve -> resolve_mac t req
  | Park_tw -> do_park_tw t req

and answer t (Request (leg, req, reply)) = reply := Some (dispatch t leg req)

and serve t =
  Ipc.serve_concurrent t.calls (fun (Request (leg, req, _) as r) ->
      answer t r;
      ((), snd (sizes leg req)));
  (* Parking is handled serially and sends no reply. *)
  Ipc.serve_oneway t.park_p (answer t);
  (* Cross-shard deferred work: each shard drains its own post port on
     its own CPU. *)
  Array.iter
    (fun sh ->
      match sh.sh_post with
      | Some p -> Ipc.serve_oneway p (fun f -> f ())
      | None -> ())
    t.shards

let port (type q r) t (leg : (q, r) leg) = match leg with Park_tw -> t.park_p | _ -> t.calls

let call t leg req =
  let reply = ref None in
  Ipc.call (port t leg) ~size:(fst (sizes leg req)) (Request (leg, req, reply));
  Option.get !reply

let post t leg req =
  ignore (Ipc.post (port t leg) ~size:(fst (sizes leg req)) (Request (leg, req, ref None)))
