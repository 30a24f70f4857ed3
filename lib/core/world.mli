(** Experiment worlds: hosts, a network, and one protocol organization.

    Builds the testbed of the paper's §4 — DECstation-class machines on
    a 10 Mb/s Ethernet or a private 100 Mb/s AN1 segment, all running
    the same protocol stack under the chosen organization. *)

type network = Ethernet | An1 | Wan
(** [Wan] is a full-duplex 100 Mb/s path with Ethernet framing and a
    long propagation delay ([wan_delay], default 20 ms one way) — the
    high bandwidth-delay-product environment of the WAN bench. *)

val network_name : network -> string
(** ["ethernet" | "an1" | "wan"]: the [network] column of every bench
    table and the CLI's spelling. *)

val network_of_name : string -> network option

type t

val create :
  ?costs:Uln_host.Costs.t ->
  ?seed:int ->
  ?demux_mode:Uln_filter.Demux.mode ->
  ?quota:Registry.quota ->
  ?tcp_params:Uln_proto.Tcp_params.t ->
  ?num_hosts:int ->
  ?cpus:int ->
  ?an1_mtu:int ->
  ?wan_delay:Uln_engine.Time.span ->
  network:network ->
  org:Organization.t ->
  unit ->
  t
(** Defaults: calibrated R3000 costs, seed 1, interpreted filters,
    default TCP parameters, 2 hosts, 1 CPU per host.  [cpus] gives every
    host that many simulated processors (the SMP model); 1 reproduces
    the paper's uniprocessor testbed exactly.  [an1_mtu] overrides the
    AN1 driver's 1500-byte Ethernet-format encapsulation limit (the
    paper notes the hardware allows up to 64 KB packets — an
    ablation). *)

val sched : t -> Uln_engine.Sched.t
val network : t -> network
val org : t -> Organization.t
val link : t -> Uln_net.Link.t
val num_hosts : t -> int

val host_ip : t -> int -> Uln_addr.Ip.t
val machine : t -> int -> Uln_host.Machine.t
val nic : t -> int -> Uln_net.Nic.t

val app : ?cpu:int -> t -> host:int -> string -> Sockets.app
(** A new application on a host.  [cpu] (default 0) pins it — and, in
    the in-kernel and user-library organizations, its protocol
    processing — to that CPU of the host.  The single-server and
    dedicated-server organizations ignore it: their server processes
    stay on the boot CPU regardless of machine size. *)

val netio : t -> int -> Netio.t option
(** The network I/O module (user-library organization only). *)

val library : ?cpu:int -> t -> host:int -> string -> Protolib.t option
(** A fresh protocol-library instance on a host (user-library
    organization only) — exposes {!Protolib.pass_connection} in addition
    to the socket interface. *)

val libraries : t -> int -> (string * Protolib.t) list
(** Every library created on a host (by {!library} or {!app}) with its
    name, oldest first. *)

val registry : t -> int -> Registry.t option

val host_stacks : t -> int -> Uln_proto.Stack.t list
(** The shared kernel/server stacks, boot CPU's first (shared-stack
    organizations only; [[]] on a library host). *)
