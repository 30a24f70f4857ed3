module Time = Uln_engine.Time

type t = {
  cycle_ns : int;
  trap : Time.span;
  fast_trap : Time.span;
  library_call : Time.span;
  context_switch : Time.span;
  user_thread_switch : Time.span;
  wakeup_latency : Time.span;
  ipc_fixed : Time.span;
  ipc_per_byte_ns : int;
  copy_per_byte_ns : int;
  checksum_per_byte_ns : int;
  copy_checksum_per_byte_ns : int;
  vm_remap : Time.span;
  doorbell : Time.span;
  pio_per_byte_ns : int;
  dma_setup : Time.span;
  sg_descriptor : Time.span;
  dma_rx_per_byte_ns : int;
  dma_tx_per_byte_ns : int;
  interrupt : Time.span;
  drv_tx : Time.span;
  drv_rx : Time.span;
  demux_software : Time.span;
  demux_hardware : Time.span;
  demux_inkernel : Time.span;
  template_check : Time.span;
  semaphore_signal : Time.span;
  semaphore_wakeup : Time.span;
  socket_layer : Time.span;
  tcp_output : Time.span;
  tcp_input : Time.span;
  ip_output : Time.span;
  ip_input : Time.span;
  arp_lookup : Time.span;
  timer_op : Time.span;
  cpu_migrate_ns : int;
  an1_driver_setup : Time.span;
  gro_append : Time.span;
  napi_poll_frame : Time.span;
  napi_poll_sched : Time.span;
  tx_gso_setup : Time.span;
  tx_gso_frame : Time.span;
  pacer_sched : Time.span;
}

(* Calibrated against the paper's Tables 1-5 for a 25 MHz R3000.  See
   EXPERIMENTS.md for the resulting paper-vs-measured comparison. *)
let r3000 =
  { cycle_ns = 40;
    trap = Time.us 20;
    fast_trap = Time.us 6;
    library_call = Time.us 1;
    context_switch = Time.us 80;
    user_thread_switch = Time.us 15;
    wakeup_latency = Time.us 120;
    ipc_fixed = Time.us 150;
    ipc_per_byte_ns = 120;
    copy_per_byte_ns = 45;
    checksum_per_byte_ns = 50;
    copy_checksum_per_byte_ns = 50;
    vm_remap = Time.us 40;
    doorbell = Time.us 2;
    pio_per_byte_ns = 600;
    dma_setup = Time.us 15;
    sg_descriptor = Time.us 2;
    dma_rx_per_byte_ns = 300;
    dma_tx_per_byte_ns = 150;
    interrupt = Time.us 35;
    drv_tx = Time.us 25;
    drv_rx = Time.us 20;
    demux_software = Time.us 52;
    demux_hardware = Time.us 50;
    demux_inkernel = Time.us 15;
    template_check = Time.us 4;
    semaphore_signal = Time.us 15;
    semaphore_wakeup = Time.us 30;
    socket_layer = Time.us 25;
    tcp_output = Time.us 120;
    tcp_input = Time.us 130;
    ip_output = Time.us 25;
    ip_input = Time.us 25;
    arp_lookup = Time.us 5;
    timer_op = Time.us 8;
    cpu_migrate_ns = 18_000;
    (* Per-connection AN1 driver work at active open in the in-kernel
       organization: allocating a controller flow slot and programming
       the BQI machinery from interrupt-masked driver code.  This is
       what puts Ultrix/AN1 setup above Ultrix/Ethernet in Table 4
       (2.9 ms vs 2.6 ms in the paper) even though AN1's data path is
       faster. *)
    an1_driver_setup = Time.us 500;
    (* The small-message coalescing fast path.  Absorbing one more
       in-order segment into a GRO merge touches only the TCP header
       and the merge bookkeeping — far under the full tcp_input state
       machine.  A polled rx frame pays descriptor+bookkeeping work
       instead of the 35 us interrupt, and a budget-exhausted poll
       slice pays one softirq-style reschedule. *)
    gro_append = Time.us 15;
    napi_poll_frame = Time.us 6;
    napi_poll_sched = Time.us 12;
    (* The transmit-side fast path.  A GSO episode programs the
       controller's segmentation machinery once (descriptor template,
       pseudo-header seed) and then pays a small per-wire-frame
       descriptor cost instead of a full tcp_output + driver pass per
       MSS.  Arming the pacer's release timer is one wheel insert plus the
       rate arithmetic. *)
    tx_gso_setup = Time.us 20;
    tx_gso_frame = Time.us 3;
    pacer_sched = Time.us 4 }

let zero =
  { cycle_ns = 0;
    trap = 0;
    fast_trap = 0;
    library_call = 0;
    context_switch = 0;
    user_thread_switch = 0;
    wakeup_latency = 0;
    ipc_fixed = 0;
    ipc_per_byte_ns = 0;
    copy_per_byte_ns = 0;
    checksum_per_byte_ns = 0;
    copy_checksum_per_byte_ns = 0;
    vm_remap = 0;
    doorbell = 0;
    pio_per_byte_ns = 0;
    dma_setup = 0;
    sg_descriptor = 0;
    dma_rx_per_byte_ns = 0;
    dma_tx_per_byte_ns = 0;
    interrupt = 0;
    drv_tx = 0;
    drv_rx = 0;
    demux_software = 0;
    demux_hardware = 0;
    demux_inkernel = 0;
    template_check = 0;
    semaphore_signal = 0;
    semaphore_wakeup = 0;
    socket_layer = 0;
    tcp_output = 0;
    tcp_input = 0;
    ip_output = 0;
    ip_input = 0;
    arp_lookup = 0;
    timer_op = 0;
    cpu_migrate_ns = 0;
    an1_driver_setup = 0;
    gro_append = 0;
    napi_poll_frame = 0;
    napi_poll_sched = 0;
    tx_gso_setup = 0;
    tx_gso_frame = 0;
    pacer_sched = 0 }

let pp ppf c =
  Format.fprintf ppf
    "@[<v>cycle=%dns trap=%a fast_trap=%a ctx=%a ipc=%a+%dns/B copy=%dns/B cksum=%dns/B \
     copy+cksum=%dns/B pio=%dns/B@]"
    c.cycle_ns Time.pp_span c.trap Time.pp_span c.fast_trap Time.pp_span c.context_switch
    Time.pp_span c.ipc_fixed c.ipc_per_byte_ns c.copy_per_byte_ns c.checksum_per_byte_ns
    c.copy_checksum_per_byte_ns c.pio_per_byte_ns
