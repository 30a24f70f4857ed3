(** The machine cost model.

    All performance in the simulator comes from two sources: link
    serialization (in [Uln_net]) and CPU time charged against a host's
    single processor using the parameters here.  The defaults are
    calibrated to the paper's testbed — a DECstation 5000/200 (25 MHz
    R3000, 40 ns/cycle) running Ultrix 4.2A or Mach 3.0 — from the
    paper's own numbers (Tables 1–5) and contemporaneous measurements of
    Mach IPC and context-switch costs.

    Every organization runs the same protocol stack; what differs is
    which of these costs its structure incurs per operation, which is
    exactly the paper's "apples to apples" argument. *)

type t = {
  cycle_ns : int;  (** nanoseconds per CPU cycle (40 = 25 MHz R3000) *)
  (* --- domain crossings --- *)
  trap : Uln_engine.Time.span;
      (** full UNIX system-call entry+exit (read/write on Ultrix) *)
  fast_trap : Uln_engine.Time.span;
      (** specialized kernel entry used by the user-level library to
          reach the network I/O module (simplified sanity checks) *)
  library_call : Uln_engine.Time.span;
      (** plain procedure call into a linked library *)
  context_switch : Uln_engine.Time.span;
      (** kernel-mediated process/thread switch *)
  user_thread_switch : Uln_engine.Time.span;
      (** C-threads user-level thread switch *)
  wakeup_latency : Uln_engine.Time.span;
      (** dispatch delay before a newly woken process runs *)
  ipc_fixed : Uln_engine.Time.span;
      (** one-way Mach message send/receive, fixed part *)
  ipc_per_byte_ns : int;  (** per byte of in-line IPC data *)
  (* --- memory --- *)
  copy_per_byte_ns : int;  (** bcopy between user and kernel *)
  checksum_per_byte_ns : int;  (** Internet checksum, software *)
  copy_checksum_per_byte_ns : int;
      (** a single fused copy-and-checksum pass over payload bytes (the
          word-at-a-time loop folds the add into the move, so it costs a
          checksum pass, not copy + checksum); the unfused ablation
          charges [copy_per_byte_ns + checksum_per_byte_ns] instead *)
  vm_remap : Uln_engine.Time.span;
      (** page-remap used by the copy-eliminating buffer path *)
  doorbell : Uln_engine.Time.span;
      (** writing a tx descriptor into the shared ring and ringing the
          channel doorbell — the per-segment cost of the batched
          descriptor path, where the [fast_trap] kernel entry is paid
          once per batch rather than once per segment *)
  (* --- devices --- *)
  pio_per_byte_ns : int;
      (** LANCE (PMADD-AA) programmed-I/O transfer, per byte; the
          dominant Ethernet cost (the interface has no DMA) *)
  dma_setup : Uln_engine.Time.span;
      (** AN1 descriptor write + doorbell per packet *)
  sg_descriptor : Uln_engine.Time.span;
      (** each additional DMA descriptor of a scatter-gather transmit
          (first fragment is covered by [dma_setup]) *)
  dma_rx_per_byte_ns : int;
      (** memory-system cost of touching DMA'd receive data (uncached
          buffers, bus contention) on the AN1 path *)
  dma_tx_per_byte_ns : int;
      (** memory-system cost of transmit DMA (bus contention, cache
          writeback) on the AN1 path *)
  interrupt : Uln_engine.Time.span;
      (** interrupt entry, dispatch and device service, per packet *)
  drv_tx : Uln_engine.Time.span;  (** driver transmit bookkeeping *)
  drv_rx : Uln_engine.Time.span;  (** driver receive bookkeeping *)
  (* --- demultiplexing (Table 5) --- *)
  demux_software : Uln_engine.Time.span;
      (** packet-filter execution per packet (LANCE path) *)
  demux_hardware : Uln_engine.Time.span;
      (** BQI device management per packet (AN1 path) *)
  demux_inkernel : Uln_engine.Time.span;
      (** in-kernel PCB lookup when the whole stack is in the kernel *)
  template_check : Uln_engine.Time.span;
      (** outbound header-template match in the network I/O module *)
  (* --- signaling --- *)
  semaphore_signal : Uln_engine.Time.span;
      (** lightweight kernel→user semaphore notification *)
  semaphore_wakeup : Uln_engine.Time.span;
      (** library thread resumption after a semaphore signal *)
  (* --- protocol code (identical in all systems) --- *)
  socket_layer : Uln_engine.Time.span;  (** socket buffer bookkeeping per call *)
  tcp_output : Uln_engine.Time.span;  (** tcp_output() per segment *)
  tcp_input : Uln_engine.Time.span;  (** tcp_input() per segment *)
  ip_output : Uln_engine.Time.span;
  ip_input : Uln_engine.Time.span;
  arp_lookup : Uln_engine.Time.span;
  timer_op : Uln_engine.Time.span;  (** arm/disarm a protocol timer *)
  (* --- multiprocessor --- *)
  cpu_migrate_ns : int;
      (** cache-affinity penalty when a flow's packet is steered to a
          different CPU than the flow last ran on: refilling the
          connection's working set (PCB, socket buffers, headers) from
          memory or a remote cache.  Charged once per handoff, on the
          destination CPU.  Irrelevant (never charged) on a 1-CPU
          machine. *)
  (* --- AN1 specifics --- *)
  an1_driver_setup : Uln_engine.Time.span;
      (** Per-connection driver work at active open on AN1 in the
          in-kernel organization: allocating a controller flow slot and
          programming its BQI machinery.  The reason the paper's
          Ultrix/AN1 setup (2.9 ms) exceeds Ultrix/Ethernet (2.6 ms)
          despite the faster network.  The user-library organization
          charges its own {!Uln_core.Calibration.bqi_setup} instead. *)
  (* --- small-message coalescing fast path --- *)
  gro_append : Uln_engine.Time.span;
      (** absorbing one more in-order segment into a GRO merge (header
          inspection and merge bookkeeping) in place of a full
          [tcp_input] pass — the {!Uln_proto.Tcp_params.t.rx_coalesce}
          per-segment cost *)
  napi_poll_frame : Uln_engine.Time.span;
      (** per-frame receive cost in the NAPI polled mode (descriptor
          read and driver bookkeeping, no interrupt entry/exit) — the
          {!Uln_proto.Tcp_params.t.int_suppress} replacement for
          [interrupt] *)
  napi_poll_sched : Uln_engine.Time.span;
      (** rescheduling a poll slice whose frame budget ran out (the
          softirq-style yield that lets protocol threads run between
          slices under sustained load) *)
  (* --- transmit-side fast path --- *)
  tx_gso_setup : Uln_engine.Time.span;
      (** programming the controller's segmentation machinery once per
          GSO episode: the descriptor template and pseudo-header seed
          the hardware replays for every wire frame it cuts — the
          {!Uln_proto.Tcp_params.t.tx_gso} per-episode cost *)
  tx_gso_frame : Uln_engine.Time.span;
      (** per-wire-frame descriptor cost while the controller segments
          a GSO super-frame (replaces the per-segment tcp_output +
          driver pass the software path would pay) *)
  pacer_sched : Uln_engine.Time.span;
      (** arming the software pacer's release timer: one timer-wheel
          insert plus the cwnd/srtt rate arithmetic — the
          {!Uln_proto.Tcp_params.t.pacing} per-deferral cost *)
}

val r3000 : t
(** The calibrated DECstation 5000/200 model. *)

val zero : t
(** All costs zero — for functional tests where timing is irrelevant. *)

val pp : Format.formatter -> t -> unit
