(** Host-network interface abstraction.

    The two controllers the paper uses differ in exactly the ways that
    matter to protocol organization:

    - {b LANCE} (DEC PMADD-AA, Ethernet): no DMA — the host CPU moves
      every byte with programmed I/O, on both transmit and receive; no
      demultiplexing help, so input dispatch is software's problem.
    - {b AN1}: DMA to/from host memory, and hardware demultiplexing via
      the {e buffer queue index} (BQI): a link-header field selecting a
      ring of host buffer descriptors; BQI 0 is the protected kernel
      default.

    Driver-level code (any organization) talks to either through this
    one record; BQI operations are present only when the hardware has
    them. *)

type rx_info = {
  frame : Frame.t;
  bqi : int;  (** ring the packet was delivered to; 0 = kernel default *)
  buffer : Uln_buf.View.t option;
      (** the host buffer DMA'd into (AN1 non-zero BQI only) *)
}

type bqi_ops = {
  alloc_ring : capacity:int -> int;
      (** allocate a fresh non-zero BQI with a ring of that many buffer
          slots; raises [Failure] when the controller table is full *)
  release_ring : int -> unit;
  provide_buffer : int -> Uln_buf.View.t -> bool;
      (** give the controller a host buffer for that ring; [false] if
          the ring is full or unknown *)
  ring_depth : int -> int;  (** buffers currently available in a ring *)
}

type t = {
  name : string;
  mac : Uln_addr.Mac.t;
  mtu : int;
  send : Frame.t -> unit;
      (** transmit from a thread: charges host CPU for the device work
          (PIO bytes or DMA setup), waits for a board transmit buffer,
          then serializes on the link asynchronously *)
  install_rx : (rx_info -> unit) -> unit;
      (** install the receive upcall; it runs in event context after
          interrupt (and PIO, for LANCE) costs have elapsed *)
  install_rx_steer : (rx_info -> Uln_host.Cpu.t option) -> unit;
      (** install receive flow steering: called per frame before any
          interrupt/byte cost is charged, it names the CPU those costs
          (and the upcall) land on — RSS in miniature.  [None] (and no
          installed steer) means the boot CPU.  On a 1-CPU machine
          every answer is the boot CPU, so behavior is unchanged. *)
  set_tx_cpu : Uln_host.Cpu.t option -> unit;
      (** one-shot hint naming the CPU the next {!send}'s device work
          (PIO bytes or DMA setup) is charged to — the CPU of the
          thread that rang the doorbell.  Consumed by that send;
          [None]/unset means the boot CPU. *)
  bqi : bqi_ops option;  (** hardware demultiplexing, if any *)
  rx_drops : unit -> int;
      (** frames dropped for want of a handler, ring buffer or board
          buffer *)
  set_napi : Napi.conf option -> unit;
      (** install (or remove) NAPI-style interrupt suppression: one
          interrupt opens a budgeted polling episode, the rx ring is
          bounded with early drop, quiescence re-arms the interrupt
          ({!Napi}).  [None] — the initial state — is the per-frame
          interrupt path, unchanged. *)
  napi_stats : unit -> Napi.stats;
      (** interrupts vs poll slices, polled frames, early ring drops *)
  txq_stats : unit -> Txq.stats;
      (** GSO episodes and cut frames, completed descriptors *)
}
