module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Semaphore = Uln_engine.Semaphore
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs

let create (m : Machine.t) link ~mac ?(tx_buffers = 2) () =
  let costs = m.Machine.costs in
  let handler : (Nic.rx_info -> unit) option ref = ref None in
  let steer : (Nic.rx_info -> Cpu.t option) option ref = ref None in
  let tx_cpu_hint : Cpu.t option ref = ref None in
  let rx_cpu info =
    match !steer with
    | None -> m.Machine.cpu
    | Some f -> ( match f info with Some c -> c | None -> m.Machine.cpu)
  in
  let drops = ref 0 in
  let napi = Napi.create () in
  let pio_cost (info : Nic.rx_info) =
    let bytes = Frame.header_size + Frame.payload_length info.Nic.frame in
    Time.ns (bytes * costs.Costs.pio_per_byte_ns)
  in
  let tx_slots = Semaphore.create ~initial:tx_buffers () in
  let station =
    Link.attach link ~addr:mac (fun frame ->
        match !handler with
        | None -> incr drops
        | Some h ->
            let info = { Nic.frame; bqi = 0; buffer = None } in
            if Napi.active napi then begin
              (* Interrupt suppression: admit to the bounded software
                 ring (early drop when full) and let the poll loop
                 charge the PIO copy per frame. *)
              if Napi.full napi then Napi.note_drop napi
              else
                Napi.push napi ~cpu_of:rx_cpu ~costs ~frame_cost:pio_cost
                  ~handle:h info
            end
            else begin
              (* Interrupt entry plus the programmed-I/O copy of the
                 whole packet from board memory to host memory. *)
              let work = Time.span_add costs.Costs.interrupt (pio_cost info) in
              Cpu.use_async (rx_cpu info) work (fun () -> h info)
            end)
  in
  let txq = Txq.create () in
  let send frame =
    (* Wait for a board transmit buffer, then PIO the packet into it.
       The PIO bytes are moved by whichever CPU rang the doorbell. *)
    let cpu =
      match !tx_cpu_hint with
      | Some c ->
          tx_cpu_hint := None;
          c
      | None -> m.Machine.cpu
    in
    Semaphore.wait tx_slots;
    let bytes = Frame.header_size + Frame.payload_length frame in
    let pio = Time.ns (bytes * costs.Costs.pio_per_byte_ns) in
    if frame.Frame.gso_size > 0 then begin
      (* Segmentation offload (board-side segmentation of one staged
         super-packet): the host PIOs the oversized packet once —
         headers once, not per frame — and pays the episode setup plus
         a small per-frame descriptor cost while the board cuts wire
         frames from its staging area. *)
      let frames = Txq.split frame in
      let n = List.length frames in
      Txq.note_gso txq ~frames:n;
      Cpu.use cpu
        (Time.span_add costs.Costs.drv_tx
           (Time.span_add costs.Costs.tx_gso_setup
              (Time.span_add (Time.span_scale costs.Costs.tx_gso_frame n) pio)));
      List.iteri
        (fun i f ->
          let on_done =
            if i = n - 1 then fun () ->
              Txq.complete txq (fun () -> Semaphore.signal tx_slots)
            else fun () -> ()
          in
          Link.transmit link station f ~on_done)
        frames
    end
    else begin
      Cpu.use cpu (Time.span_add costs.Costs.drv_tx pio);
      Link.transmit link station frame ~on_done:(fun () ->
          Txq.complete txq (fun () -> Semaphore.signal tx_slots))
    end
  in
  { Nic.name = Printf.sprintf "%s.lance" m.Machine.name;
    mac;
    mtu = 1500;
    send;
    install_rx = (fun h -> handler := Some h);
    install_rx_steer = (fun f -> steer := Some f);
    set_tx_cpu = (fun c -> tx_cpu_hint := c);
    bqi = None;
    rx_drops = (fun () -> !drops);
    set_napi = Napi.set napi;
    napi_stats = (fun () -> Napi.stats napi);
    txq_stats = (fun () -> Txq.stats txq) }
