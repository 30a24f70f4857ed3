module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Tcp_params = Uln_proto.Tcp_params
module World = Uln_core.World
module Sockets = Uln_core.Sockets
module Registry = Uln_core.Registry
module Protolib = Uln_core.Protolib
module Organization = Uln_core.Organization

type result = {
  r_system : string;
  r_config : string;
  r_pairs : int;
  r_conns : int;
  r_conns_per_sec : float;
  r_setup_ms : float;
  r_churn_ms : float;
  r_leg_port_alloc_ms : float;
  r_leg_round_trip_ms : float;
  r_leg_finish_ms : float;
  r_pool_hit_rate : float;
  r_lease_hit_rate : float;
  r_tw_parked : int;
  r_population : int;
  r_churn_p : Percentile.summary;
}

let base_port = 9000

(* One churn cell: [pairs] clients on host 0, each against a server on
   its own host (1+i) so the shared resource is the client host — the
   side whose setup work the fast path removes.  Two phases:

   - churn: every client opens, then immediately closes,
     [conns_per_pair] connections back to back (close is asynchronous —
     the loop is paced by [connect] alone, the RPC/HTTP-like pattern).
     Yields aggregate connections/sec and the loaded latency.
   - paced: [paced_samples] further connects on a quiet system, Table 4
     protocol, so [r_setup_ms] is directly comparable with the paper's
     per-system setup costs. *)
let run ?(pairs = 2) ?(conns_per_pair = 64) ?(paced_samples = 8) ?(cpus = 1)
    ?(population = 0) ?tcp_params ~config ~network ~org () =
  let w = World.create ~network ~org ?tcp_params ~cpus ~num_hosts:(pairs + 1) () in
  let sched = World.sched w in
  (* Sparse mode: the first server host already carries [population]
     background connection filters, so every churn connect pays the
     populated miss path (user-library organization only). *)
  if population > 0 then Experiments.populate_background w ~host:1 population;
  for i = 0 to pairs - 1 do
    let accepts = conns_per_pair + if i = 0 then paced_samples else 0 in
    let app = World.app w ~host:(1 + i) (Printf.sprintf "churn-srv%d" i) in
    Sched.spawn sched ~name:(Printf.sprintf "churn-srv%d" i) (fun () ->
        let l = app.Sockets.listen ~port:(base_port + i) in
        for _ = 1 to accepts do
          let conn = l.Sockets.accept () in
          (match conn.Sockets.recv ~max:16 with Some _ -> () | None -> ());
          conn.Sockets.close ()
        done)
  done;
  (* Userlib clients keep the Protolib handle so lease statistics
     survive the run; other organizations only have the socket app. *)
  let clients =
    List.init pairs (fun i ->
        let name = Printf.sprintf "churn-cli%d" i in
        match World.library w ~host:0 name with
        | Some lib -> (Protolib.app lib, Some lib)
        | None -> (World.app w ~host:0 name, None))
  in
  let churn_lat = ref 0 in
  let samples = Array.make (pairs * conns_per_pair) 0. in
  let si = ref 0 in
  let started = ref Time.zero in
  let ended = ref Time.zero in
  let setup_lat = ref 0 in
  Sched.block_on sched (fun () ->
      started := Sched.now sched;
      let remaining = ref pairs in
      let wake_main = ref (fun () -> ()) in
      List.iteri
        (fun i (app, _) ->
          Sched.spawn sched ~name:(Printf.sprintf "churn-loop%d" i) (fun () ->
              for _ = 1 to conns_per_pair do
                let t0 = Sched.now sched in
                match
                  app.Sockets.connect ~src_port:0 ~dst:(World.host_ip w (1 + i))
                    ~dst_port:(base_port + i)
                with
                | Error e -> failwith ("churn connect: " ^ e)
                | Ok conn ->
                    let dt = Time.diff (Sched.now sched) t0 in
                    churn_lat := !churn_lat + dt;
                    samples.(!si) <- Time.to_us_f dt;
                    incr si;
                    conn.Sockets.close ()
              done;
              decr remaining;
              if !remaining = 0 then begin
                ended := Sched.now sched;
                !wake_main ()
              end))
        clients;
      Sched.suspend (fun wake -> wake_main := wake);
      (* Paced phase: quiet system, one connection at a time. *)
      let app0, _ = List.hd clients in
      for _ = 1 to paced_samples do
        Sched.sleep sched (Time.ms 50);
        let t0 = Sched.now sched in
        match app0.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:base_port with
        | Error e -> failwith ("churn paced connect: " ^ e)
        | Ok conn ->
            setup_lat := !setup_lat + Time.diff (Sched.now sched) t0;
            conn.Sockets.close ()
      done);
  let conns = pairs * conns_per_pair in
  let elapsed_s = Time.to_us_f (Time.diff !ended !started) /. 1e6 in
  let leased =
    List.fold_left
      (fun acc (_, lib) ->
        match lib with
        | Some l -> acc + (Protolib.leasestats l).Protolib.lst_leased_connects
        | None -> acc)
      0 clients
  in
  let pool_hits, pool_misses =
    List.fold_left
      (fun (h, m) i ->
        match World.registry w i with
        | Some r ->
            let p = Registry.pool_stats r in
            (h + p.Registry.ps_hits, m + p.Registry.ps_misses)
        | None -> (h, m))
      (0, 0)
      (List.init (pairs + 1) Fun.id)
  in
  let legs, tw =
    match World.registry w 0 with
    | Some r0 ->
        (Some (Registry.setup_legs r0), (Registry.time_wait_stats r0).Registry.tw_parked_total)
    | None -> (None, 0)
  in
  let leg f = match legs with Some l -> f l /. 1000. | None -> 0. in
  { r_system = Experiments.sys_name org;
    r_config = config;
    r_pairs = pairs;
    r_conns = conns;
    r_conns_per_sec = (if elapsed_s > 0. then float_of_int conns /. elapsed_s else 0.);
    r_setup_ms = Time.to_ms_f (!setup_lat / paced_samples);
    r_churn_ms = Time.to_ms_f (!churn_lat / conns);
    r_leg_port_alloc_ms = leg (fun l -> l.Registry.sl_port_alloc_us);
    r_leg_round_trip_ms = leg (fun l -> l.Registry.sl_round_trip_us);
    r_leg_finish_ms = leg (fun l -> l.Registry.sl_finish_us);
    r_pool_hit_rate =
      (let total = pool_hits + pool_misses in
       if total = 0 then 0. else float_of_int pool_hits /. float_of_int total);
    r_lease_hit_rate = float_of_int leased /. float_of_int (conns + paced_samples);
    r_tw_parked = tw;
    r_population = population;
    r_churn_p = Percentile.summarize samples }

(* The ablation ladder for the user library — cumulative, in the order
   the tentpole motivates them.  [Tcp_params.fast] is the base for every
   cell (including the reference organizations) so local TIME_WAIT tails
   do not dominate a short benchmark run. *)
let configs =
  let f po le wh =
    { Tcp_params.fast with
      Tcp_params.channel_pool = po;
      endpoint_lease = le;
      time_wait_wheel = wh }
  in
  [ ("baseline", f false false false);
    ("+pool", f true false false);
    ("+lease", f true true true) ]
