module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Semaphore = Uln_engine.Semaphore
module View = Uln_buf.View
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module World = Uln_core.World
module Sockets = Uln_core.Sockets
module Organization = Uln_core.Organization

type result = {
  r_org : string;
  r_locking : string;
  r_cpus : int;
  r_pairs : int;
  r_mbps : float;
  r_bytes : int;
  r_duration : Time.span;
  r_cpu0_util : float;
  r_avg_util : float;
  r_max_util : float;
  r_migrations : int;
  r_lock_acquisitions : int;
  r_lock_contended : int;
  r_lock_wait_ns : int;
}

let locking_name = function `Big_lock -> "big_lock" | `Per_conn -> "per_conn"

(* Saturating bulk transfer: large socket buffers on the 100 Mb/s AN1
   segment keep a single connection CPU-bound, so adding processors can
   actually help (a window-limited configuration would hide the CPUs
   behind the network round-trip). *)
let params locking =
  { Uln_proto.Tcp_params.default with
    Uln_proto.Tcp_params.snd_buf = 65535;
    rcv_buf = 65535;
    smp_locking = locking }

let run ?(bytes_per_pair = 1_000_000) ?(locking = `Big_lock) ?(seed = 1) ~org ~cpus ~pairs
    () =
  let w =
    World.create ~cpus ~seed ~network:World.An1 ~org ~tcp_params:(params locking) ()
  in
  let sched = World.sched w in
  let ready = Semaphore.create () in
  let go = Semaphore.create () in
  let finished = Semaphore.create () in
  let total = ref 0 in
  let last_rx = ref Time.zero in
  for p = 0 to pairs - 1 do
    let cpu = p mod cpus in
    let port = 9000 + p in
    let sink = World.app ~cpu w ~host:1 (Printf.sprintf "sink%d" p) in
    Sched.spawn sched ~name:(Printf.sprintf "sink%d" p) (fun () ->
        let l = sink.Sockets.listen ~port in
        let conn = l.Sockets.accept () in
        let rec drain () =
          match conn.Sockets.recv ~max:65536 with
          | None -> ()
          | Some v ->
              total := !total + View.length v;
              let now = Sched.now sched in
              if Time.compare now !last_rx > 0 then last_rx := now;
              drain ()
        in
        drain ();
        conn.Sockets.close ();
        Semaphore.signal finished);
    let source = World.app ~cpu w ~host:0 (Printf.sprintf "source%d" p) in
    Sched.spawn sched ~name:(Printf.sprintf "source%d" p) (fun () ->
        match
          source.Sockets.connect ~src_port:0 ~dst:(World.host_ip w 1) ~dst_port:port
        with
        | Error e -> failwith (Printf.sprintf "smp pair %d connect: %s" p e)
        | Ok conn ->
            Semaphore.signal ready;
            Semaphore.wait go;
            let write_size = 8192 in
            let chunk = View.create write_size in
            View.fill chunk 's';
            let writes = (bytes_per_pair + write_size - 1) / write_size in
            for _ = 1 to writes do
              conn.Sockets.send chunk
            done;
            conn.Sockets.close ();
            conn.Sockets.await_closed ())
  done;
  let all_cpus =
    Array.concat
      [ (World.machine w 0).Machine.cpus; (World.machine w 1).Machine.cpus ]
  in
  let t0 = ref Time.zero in
  let busy0 = Array.make (Array.length all_cpus) 0 in
  (* Barrier: every pair establishes its connection before any data
     moves, so the measured window is pure steady-state transfer. *)
  Sched.block_on sched (fun () ->
      for _ = 1 to pairs do
        Semaphore.wait ready
      done;
      t0 := Sched.now sched;
      Array.iteri (fun i c -> busy0.(i) <- Cpu.busy_ns c) all_cpus;
      for _ = 1 to pairs do
        Semaphore.signal go
      done;
      for _ = 1 to pairs do
        Semaphore.wait finished
      done);
  let duration = max 1 (Time.diff !last_rx !t0) in
  let span_ns = float_of_int duration in
  let utils =
    Array.mapi
      (fun i c -> float_of_int (Cpu.busy_ns c - busy0.(i)) /. span_ns)
      all_cpus
  in
  let mbps = float_of_int (!total * 8) /. (Time.to_sec_f duration *. 1e6) in
  let migrations = Array.fold_left (fun a c -> a + Cpu.migrations c) 0 all_cpus in
  let acqs, cont, wait =
    List.fold_left
      (fun (a, c, wns) (s : Semaphore.stats) ->
        if String.equal s.Semaphore.s_kind "mutex" then
          ( a + s.Semaphore.s_acquisitions,
            c + s.Semaphore.s_contended,
            wns + s.Semaphore.s_total_wait_ns )
        else (a, c, wns))
      (0, 0, 0)
      (Semaphore.registered ~sched)
  in
  { r_org = Organization.name org;
    r_locking =
      (match org with
      | Organization.In_kernel -> locking_name locking
      | _ -> "none");
    r_cpus = cpus;
    r_pairs = pairs;
    r_mbps = mbps;
    r_bytes = !total;
    r_duration = duration;
    r_cpu0_util = utils.(0);
    r_avg_util = Array.fold_left ( +. ) 0.0 utils /. float_of_int (Array.length utils);
    r_max_util = Array.fold_left max 0.0 utils;
    r_migrations = migrations;
    r_lock_acquisitions = acqs;
    r_lock_contended = cont;
    r_lock_wait_ns = wait }
