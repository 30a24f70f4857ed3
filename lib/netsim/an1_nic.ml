module Sched = Uln_engine.Sched
module Time = Uln_engine.Time
module Semaphore = Uln_engine.Semaphore
module Mac = Uln_addr.Mac
module View = Uln_buf.View
module Mbuf = Uln_buf.Mbuf
module Ring = Uln_buf.Ring
module Machine = Uln_host.Machine
module Cpu = Uln_host.Cpu
module Costs = Uln_host.Costs

type ring_slot = Free | Active of View.t Ring.t

let create (m : Machine.t) link ~mac ?(tx_buffers = 8) ?(mtu = 1500) ?(table_size = 64) () =
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
  let dma_cost (info : Nic.rx_info) =
    let bytes = Frame.payload_length info.Nic.frame in
    Time.ns (bytes * costs.Costs.dma_rx_per_byte_ns)
  in
  let tx_slots = Semaphore.create ~initial:tx_buffers () in
  (* Slot 0 is the kernel default and is never allocatable. *)
  let table = Array.make table_size Free in
  let dma_latency = Time.us 5 in
  let deliver info =
    match !handler with
    | None -> incr drops
    | Some h ->
        if Napi.active napi then
          Napi.push napi ~cpu_of:rx_cpu ~costs ~frame_cost:dma_cost ~handle:h info
        else
          (* Interrupt plus the memory-system cost of the DMA'd bytes. *)
          let work = Time.span_add costs.Costs.interrupt (dma_cost info) in
          Cpu.use_async (rx_cpu info) work (fun () -> h info)
  in
  let receive frame =
    let for_us = Mac.equal frame.Frame.dst mac || Mac.is_broadcast frame.Frame.dst in
    if for_us then
      Sched.after m.Machine.sched dma_latency (fun () ->
          (* Early drop before any BQI ring buffer is committed: a full
             NAPI software ring sheds load at the device. *)
          if Napi.active napi && Napi.full napi then Napi.note_drop napi
          else
          let bqi = frame.Frame.bqi in
          let valid =
            bqi > 0 && bqi < table_size
            && match table.(bqi) with Active _ -> true | Free -> false
          in
          if not valid then deliver { Nic.frame; bqi = 0; buffer = None }
          else
            match table.(bqi) with
            | Free -> assert false
            | Active ring -> (
                match Ring.pop ring with
                | None ->
                    (* Ring empty: nowhere to DMA — the controller drops. *)
                    incr drops
                | Some buffer ->
                    let len = Frame.payload_length frame in
                    if View.length buffer < len then incr drops
                    else begin
                      Mbuf.blit frame.Frame.payload 0 buffer 0 len;
                      deliver { Nic.frame; bqi; buffer = Some (View.sub buffer 0 len) }
                    end))
  in
  let station = Link.attach link receive in
  let txq = Txq.create m.Machine.sched ~costs in
  let send frame =
    (* Capture the doorbell CPU before waiting: the hint is one-shot and
       the wait may yield to another sender. *)
    let cpu =
      match !tx_cpu_hint with
      | Some c ->
          tx_cpu_hint := None;
          c
      | None -> m.Machine.cpu
    in
    Semaphore.wait tx_slots;
    (* Descriptor write and doorbell; the DMA engine moves the bytes but
       contends with the CPU for the memory system.  A scatter-gather
       payload costs one extra descriptor per fragment beyond the
       first — the gather list the controller walks. *)
    let bytes = Frame.payload_length frame in
    let extra_frags = max 0 (Mbuf.segment_count frame.Frame.payload - 1) in
    let base =
      Time.span_add
        (Time.span_add costs.Costs.drv_tx costs.Costs.dma_setup)
        (Time.span_scale costs.Costs.sg_descriptor extra_frags)
    in
    let dma = Time.ns (bytes * costs.Costs.dma_tx_per_byte_ns) in
    if frame.Frame.gso_size > 0 then begin
      (* Segmentation offload: one descriptor and one board buffer
         cover the whole episode — the controller cuts the wire frames
         itself.  The host pays the episode setup plus a small
         per-frame descriptor cost; the DMA engine still moves every
         byte (headers once, not per frame). *)
      let frames = Txq.split frame in
      let n = List.length frames in
      Txq.note_gso txq ~frames:n;
      Cpu.use cpu
        (Time.span_add base
           (Time.span_add costs.Costs.tx_gso_setup
              (Time.span_add (Time.span_scale costs.Costs.tx_gso_frame n) dma)));
      List.iteri
        (fun i f ->
          let on_done =
            if i = n - 1 then fun () ->
              Txq.complete txq ~cpu (fun () -> Semaphore.signal tx_slots)
            else fun () -> ()
          in
          Link.transmit link station f ~on_done)
        frames
    end
    else begin
      Cpu.use cpu (Time.span_add base dma);
      Link.transmit link station frame ~on_done:(fun () ->
          Txq.complete txq ~cpu (fun () -> Semaphore.signal tx_slots))
    end
  in
  let alloc_ring ~capacity =
    let rec find i =
      if i >= table_size then failwith "An1_nic: BQI table full"
      else match table.(i) with Free -> i | Active _ -> find (i + 1)
    in
    let i = find 1 in
    table.(i) <- Active (Ring.create ~capacity);
    i
  in
  let release_ring i =
    if i > 0 && i < table_size then table.(i) <- Free
  in
  let provide_buffer i buf =
    if i <= 0 || i >= table_size then false
    else match table.(i) with Free -> false | Active ring -> Ring.push ring buf
  in
  let ring_depth i =
    if i <= 0 || i >= table_size then 0
    else match table.(i) with Free -> 0 | Active ring -> Ring.length ring
  in
  { Nic.name = Printf.sprintf "%s.an1" m.Machine.name;
    mac;
    mtu;
    send;
    install_rx = (fun h -> handler := Some h);
    install_rx_steer = (fun f -> steer := Some f);
    set_tx_cpu = (fun c -> tx_cpu_hint := c);
    bqi = Some { Nic.alloc_ring; release_ring; provide_buffer; ring_depth };
    rx_drops = (fun () -> !drops);
    set_napi = Napi.set napi;
    napi_stats = (fun () -> Napi.stats napi);
    set_txc = Txq.set txq;
    txq_stats = (fun () -> Txq.stats txq) }
