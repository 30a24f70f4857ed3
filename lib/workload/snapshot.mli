(** One snapshot of a whole world, and the scenario driver
    [netlab stats] takes it on.

    The snapshot walks every host: its CPUs, its network I/O module, its
    registry, every library the world created, its shared stacks, and
    the live connections with their negotiated options and retransmits
    by cause; then the named locks.  It reads the existing accessors
    into hierarchical names such as [host1.netio.rx_wakeups] and
    [host0.lib.cli0.tx.gso_sends], one [name]/[value] row each, so
    {!Bench_spec.print_rows} prints it and {!Bench_spec.json_contents}
    writes it.  Histograms become one row per bucket
    ([host1.netio.rx_burst.3]); locks appear only once contended. *)

type conf = {
  org : Uln_core.Organization.t;
  network : Uln_core.World.network;
  cpus : int;  (** per host; pair [p] runs on CPU [p mod cpus] at both ends *)
  pairs : int;  (** client [cli<p>] on host 0, server [srv<p>] on host [1 + p mod servers] *)
  servers : int;  (** server hosts *)
  conns : int;  (** connections each pair makes, one after another *)
  bytes : int;  (** per connection, sent in [size]-byte writes (rounded up) *)
  size : int;
  tcp_params : Uln_proto.Tcp_params.t;
  hold : bool;  (** keep every connection open until the snapshot *)
  max_conns : int option;  (** per-principal connection quota *)
  delay_ms : int;  (** one-way delay on the wan network *)
  loss : float;  (** independent per-frame drop probability *)
}

val default : conf
(** One user-library pair on Ethernet, one connection of 400 KB in
    4096-byte writes, default parameters. *)

val preset : string -> Uln_proto.Tcp_params.t option
(** A {!Uln_proto.Tcp_params} preset by its name ([default], [fast],
    [wan], [coalesced], [tx_fast]), else the preset of the
    {!Bench_spec} spec with that name or preset name ([+lease],
    [zc-base], [per_conn], ...). *)

val run :
  ?every:Uln_engine.Time.span ->
  ?prefixes:string list ->
  conf ->
  (Uln_core.World.t -> Bench_spec.row list -> unit) ->
  unit
(** Build the world and run the scenario.  Clients write through
    [alloc_tx]/[send_owned] and servers read through
    [recv_loan]/[return_loan]; both fall back to the copying calls
    where there is no pool.  Servers drain each connection to EOF
    before closing it; with [bytes = 0] (and no [hold]) they close at
    accept, so the server closes first.  The final snapshot is taken
    once every connection is accepted and the last byte is delivered,
    and before any close of the pairs' last (or held) connections that
    carried data; it is passed to the callback with the world, so
    the accessors can be read at the same instant.  Only rows whose
    name starts with one of [prefixes] are kept (default [[]]: all).  With [every], a
    snapshot is also passed every [every] of simulated time before
    that.  Each snapshot ends with the driver's own [run.*] rows:
    [t_ms], [connects], [refused], [delivered_bytes], mean
    [connect_ms] and [mbps] since the first connection was
    established. *)
