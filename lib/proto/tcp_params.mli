(** Tunable TCP parameters.

    Defaults follow 4.3BSD behaviour scaled to the simulator (100 ms
    protocol tick): Nagle on, delayed ACK with an ACK forced every
    second segment, Jacobson RTT estimation with Karn's rule, 2MSL of
    60 s. *)

type t = {
  snd_buf : int;  (** send socket-buffer size in bytes *)
  rcv_buf : int;  (** receive socket-buffer size in bytes *)
  nagle : bool;
  ack_every : int;  (** force an ACK after this many unacked segments *)
  delack : Uln_engine.Time.span;  (** delayed-ACK timeout *)
  initial_rto : Uln_engine.Time.span;
  min_rto : Uln_engine.Time.span;
  max_rto : Uln_engine.Time.span;
  timer_granularity : Uln_engine.Time.span;
      (** tick of the protocol timer wheel.  The default 100 ms is the
          BSD slow-timeout heartbeat the paper-era engine assumes; note
          that a timer armed just before a tick boundary fires at that
          boundary, so a timeout of [n] ticks can elapse in as little as
          [n-1] ticks plus an instant.  High bandwidth-delay paths need
          a fine tick (the [wan] preset uses 1 ms): with a coarse wheel
          an RTO equal to one tick fires spuriously under a WAN round
          trip, and RFC 1323 round-trip timing is quantized away. *)
  msl : Uln_engine.Time.span;  (** one maximum segment lifetime *)
  initial_cwnd_segments : int;
  keepalive : Uln_engine.Time.span option;
      (** idle time before probing the peer ([None] disables, the
          default); after {!keepalive_probes} unanswered probes the
          connection is dropped *)
  keepalive_interval : Uln_engine.Time.span;  (** spacing between probes *)
  keepalive_probes : int;
  fused_checksum : bool;
      (** Compute the transmit checksum during the copy out of the send
          buffer (one pass, charged at
          {!Uln_host.Costs.copy_checksum_per_byte_ns}) instead of
          copying then summing in two passes; [false] charges the two
          separate passes and uses the byte-at-a-time reference. *)
  zero_copy : bool;
      (** Zero-copy data path: the send queue is a scatter-gather chain
          of referenced buffers ({!Uln_buf.Iovec}), payload bytes are
          charged a single checksum-only pass (no
          [copy_per_byte_ns]/[copy_checksum_per_byte_ns]), received data
          can be loaned out to the application with outstanding loans
          shrinking the advertised window, and the library submits
          segments through batched descriptor rings.  [false] (the
          default) keeps the copying path as the differential-testing
          oracle. *)
  channel_pool : bool;
      (** Channel recycling across connections: on final release the
          registry parks the user channel (shared region, rings,
          semaphore, capability, BQI ring) instead of destroying it, and
          the next connect/accept re-arms a parked channel — paying
          {!Uln_core.Calibration.channel_reuse_setup} for the
          filter/template install instead of the full
          {!Uln_core.Calibration.registry_channel_setup} region build.
          [false] creates and destroys per connection, as the paper's
          system does. *)
  endpoint_lease : bool;
      (** Endpoint leases: one registry IPC grants the library a block
          of ports with a pre-verified parameterized filter/template
          shape plus pre-built channels; subsequent active opens stamp
          the template in the network I/O module locally (the kernel
          constructs the filter from the validated 4-tuple, preserving
          the anti-impersonation check) and run the handshake on the
          library's own engine — no registry round trip, no TCP state
          transfer.  [false] routes every connect through the
          registry. *)
  time_wait_wheel : bool;
      (** Registry TIME_WAIT wheel: connections the registry inherits
          park their 2MSL residue as a lightweight (4-tuple, port,
          filter) record on a hierarchical {!Uln_engine.Timer_wheel}
          with capacity accounting, instead of holding a full protocol
          control block with a per-connection engine timer; abnormal
          exits reset peers in one batched pass.  [false] keeps the
          full-PCB inheritance path. *)
  smp_locking : [ `Big_lock | `Per_conn ];
      (** Locking discipline of the {e in-kernel} organization on a
          multiprocessor host: [`Big_lock] (the default, faithful to
          contemporary BSD/Ultrix) serializes all netisr protocol
          processing under one kernel lock regardless of CPU count;
          [`Per_conn] gives each per-CPU stack its own lock so
          connections steered to different CPUs proceed in parallel.
          Irrelevant (no lock is ever taken) on a 1-CPU machine and in
          the other organizations. *)
  flow_cache : bool;
      (** Exact-match flow cache in front of the user-library network
          I/O module's software demux: a flow's first packet takes the
          filter scan and, when the match is provably safe to cache,
          installs its 4-tuple; later packets of the flow hit the cache
          at a flat cost independent of the table size.  Any table
          mutation flushes it.  Matching is identical to the scan
          (differentially tested); [false] (the default) scans every
          packet.  Ignored by the other organizations. *)
  hier_demux : bool;
      (** Hierarchical demultiplexing of the flow-cache miss path: the
          network I/O module's table groups conjunctive-exact filters by
          constrained-offset shape and hashes their constraint bytes, so
          a miss costs a few calibrated probes independent of the
          connection count instead of an O(n) scan of every installed
          filter.  Matching is provably identical ({!Uln_filter.Demux});
          [false] (the default) keeps the linear scan as the
          differential oracle and the measured baseline. *)
  shard_registry : bool;
      (** Sharded registry control plane: port, pending-connection and
          TIME_WAIT tables are partitioned across per-CPU shards keyed
          by a stable hash of the connection 4-tuple, each shard guarded
          by its own ranked lock, with cross-shard operations posted
          through one-way {!Uln_host.Ipc} messages — so concurrent
          setups on an SMP host stop serializing on one flat table.
          [false] (the default) keeps the single flat table as the
          differential oracle. *)
  window_scale : bool;
      (** RFC 1323 window scaling: offer a shift count on the SYN sized
          from [rcv_buf] and, when both sides agree, carry all
          non-SYN windows shifted — lifting the 16-bit/64KB flight cap
          on high bandwidth×delay paths.  [false] (the default) never
          offers the option, never honours a peer's offer, and keeps the
          64KB cap as the differential oracle. *)
  timestamps : bool;
      (** RFC 1323 timestamps: TSval/TSecr on every segment once
          negotiated on the SYN, giving an RTT measurement on every ACK
          (feeding the same Jacobson srtt/rttvar estimator) instead of
          one Karn-guarded sample per window, plus PAWS sequence checks
          on receive.  [false] (the default) keeps the single-sample
          timer as the differential oracle. *)
  sack : bool;
      (** RFC 2018 selective acknowledgements: negotiated on the SYN;
          the receiver reports up to 3 out-of-order blocks per ACK, the
          sender keeps a reneging-safe scoreboard and during recovery
          retransmits only unSACKed holes under pipe accounting
          (several holes per RTT) instead of go-back-N.  [false] (the
          default) keeps Reno fast-retransmit/timeout recovery as the
          differential oracle. *)
  cong_control : [ `Reno | `Newreno | `Cubic ];
      (** Congestion-control algorithm ({!Cong_control}): [`Reno] (the
          default) is the historical behaviour extracted verbatim;
          [`Newreno] adds RFC 6582 partial-ACK recovery; [`Cubic] grows
          the window as a cubic of time since the last loss, keeping
          high-BDP pipes full.  Payload delivery is identical under
          all three (differentially tested); only pacing differs. *)
  rx_coalesce : bool;
      (** Receive aggregation: the library drains its channel ring in
          bursts and performs a GRO-style merge of consecutive in-order
          segments of one connection before handing them to the engine,
          so the protocol input path (and its
          {!Uln_host.Costs.t.tcp_input} charge) runs once per burst
          instead of once per packet.  Merging is conservative — only
          ESTABLISHED connections, only plain ACK(+PSH) data landing
          exactly at [rcv_nxt] with no out-of-order backlog, no SACK
          blocks, PAWS-fresh timestamps, wholly inside the advertised
          window — so anything unusual flows through the per-packet
          path unchanged.  Without {!burst_ack} a merge is additionally
          capped so the ACK stream stays identical to per-packet
          arrival.  [false] (the default) is the per-packet oracle. *)
  burst_ack : bool;
      (** Burst-aware ACK coalescing: lift the {!rx_coalesce} merge cap
          to 32 segments and acknowledge once per merged burst rather
          than every {!ack_every} segments, with an immediate ACK when
          the burst carries PSH; FIN and out-of-order segments are never
          merged, so their immediate-ACK behaviour (and SACK recovery)
          is untouched.  [false] (the default) keeps the per-packet ACK
          cadence as the differential oracle. *)
  int_suppress : bool;
      (** NAPI-style adaptive interrupt suppression at the NIC: the
          first frame after quiescence raises one interrupt which
          disables further rx interrupts and enters a budgeted poll
          loop; the poll drains the device ring at
          {!Uln_host.Costs.t.napi_poll_frame} per frame, yields the CPU
          between budget slices, and re-arms interrupts when the ring
          runs dry.  The device ring is bounded, so overload drops
          frames early at the ring (cheaply, counted) instead of
          livelocking the host with per-frame interrupt work.  [false]
          (the default) charges one interrupt per frame. *)
  tx_gso : bool;
      (** GSO-style segmentation offload: one send episode builds one
          oversized logical segment (up to 65535 bytes, window- and
          cwnd-clamped) and hands it to the NIC, which cuts it into
          wire-MSS frames with replayed headers and fresh checksums
          ({!Uln_net.Txq}) — so [tcp_output], header encode and driver
          descriptor work run once per episode instead of once per MSS.
          Retransmissions, SACK-hole fills and sub-MSS tails always
          take the per-segment path.  The wire traffic is byte-identical
          to the per-segment path (differentially tested); [false] (the
          default) is the per-segment oracle. *)
  pacing : bool;
      (** Software pacing: data transmission is spread at the
          congestion-control rate cwnd/srtt (timer-wheel scheduled at
          {!timer_granularity}) instead of being released in line-rate
          bursts, so a GSO episode's frames do not arrive as one
          incast-killing burst.  Pure ACKs, retransmissions and the
          first flight (no RTT sample yet) are never delayed; data
          order is unchanged.  [false] (the default) transmits as soon
          as the window allows. *)
}

val default : t

val fast : t
(** Small timeouts for loss-recovery tests (keeps simulated durations
    short); protocol behaviour is otherwise identical. *)

val wan : t
(** High bandwidth×delay preset: [fast] timers with 1MB socket buffers
    and window scaling, timestamps, SACK and Cubic enabled — the
    configuration the [bench wan] sweep calls "+wscale+sack" rows. *)

val coalesced : t
(** Small-message preset: [fast] with {!t.rx_coalesce}, {!t.burst_ack}
    and {!t.int_suppress} all on — the full coalescing fast path the
    rpc/incast benches compare against the per-packet baseline. *)

val tx_fast : t
(** Transmit-side preset: [coalesced] with {!t.zero_copy}, {!t.tx_gso}
    and {!t.pacing} on — the sender fast
    path the [bench tx] ablation rows compare against the zero-copy
    baseline. *)

(** {2 Ablation-switch registry}

    Every switch field of {!t} that ablates an implementation technique
    (as opposed to choosing a policy) must register here with a
    differential oracle — the [file:ident] of the qcheck property that
    pins the on/off behavioural equivalence — and the bench row spec
    ({!Uln_workload.Bench_spec}) its leave-one-out row runs.  The
    proto-check switch lint fails the build when a switch field has no
    entry, or an entry's oracle or row has gone stale. *)

type switch = {
  sw_field : string;  (** record field name in {!t} *)
  sw_oracle : string;  (** [file:ident] of the differential property *)
  sw_bench_row : string;  (** name of the bench row spec that measures it *)
  sw_off : t -> t;
      (** leave the switch out: reset the field to its {!default} value,
          or turn it off where the default has it on *)
}

val switches : switch list

val policy_fields : (string * string) list
(** Switch-shaped fields exempt from the lint, with the reason each is a
    policy choice rather than an ablation. *)
