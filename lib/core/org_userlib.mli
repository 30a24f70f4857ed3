(** The paper's organization: user-level protocol libraries with a
    registry server and an in-kernel network I/O module.

    This module just assembles the three components on a host and hands
    out per-application {!Protolib} instances. *)

type t

val create :
  Uln_host.Machine.t ->
  Uln_net.Nic.t ->
  ip:Uln_addr.Ip.t ->
  mode:Uln_filter.Demux.mode ->
  ?quota:Registry.quota ->
  ?tcp_params:Uln_proto.Tcp_params.t ->
  unit ->
  t
(** [mode] selects interpreted or compiled software demultiplexing in
    the network I/O module (the filter ablation); [quota] sets the
    registry's per-tenant admission ceilings (default
    {!Registry.default_quota}).  [tcp_params.flow_cache] puts the
    exact-match flow cache in front of the software demux,
    [tcp_params.hier_demux] turns on the hierarchical miss path, and
    [tcp_params.int_suppress] installs NAPI-style interrupt
    suppression in the network I/O module;
    [tcp_params.shard_registry] shards the registry control plane
    per CPU. *)

val app : ?cpu:int -> t -> name:string -> Sockets.app
(** A new application with its own address space and linked library.
    [cpu] (default 0) pins the library to that CPU of the machine. *)

val library : ?cpu:int -> t -> name:string -> Protolib.t
(** The underlying library instance (needed for connection passing). *)

val netio : t -> Netio.t
val registry : t -> Registry.t
