(** Connection-churn benchmark: the setup-plane counterpart of the
    data-path tables.  Short connections opened and closed back to back
    (the RPC/HTTP-like pattern of ROADMAP's "millions of users"
    north-star) measure aggregate connections/sec and the
    client-observed setup latency, across the fast-path ablation ladder
    {baseline, +pool, +lease} and the reference
    organizations.

    Each cell runs two phases in one world.  The churn phase drives
    [pairs] concurrent clients on host 0, each against a server on its
    own host, and reports aggregate connections/sec and the loaded
    latency ([r_churn_ms]).  The paced phase then takes
    [paced_samples] single connections on the now-quiet (but warm —
    pools populated, lease held) system, Table 4 protocol, so
    [r_setup_ms] is directly comparable with the paper's per-system
    setup costs. *)

type result = {
  r_system : string;  (** "userlib" | "mach-ux" | "ultrix" *)
  r_config : string;  (** "baseline" | "+pool" | "+lease" *)
  r_pairs : int;
  r_conns : int;  (** connections opened during the churn phase *)
  r_conns_per_sec : float;  (** churn phase, all pairs aggregated *)
  r_setup_ms : float;  (** mean paced (quiet-system) [connect] latency *)
  r_churn_ms : float;  (** mean [connect] latency under churn load *)
  r_leg_port_alloc_ms : float;  (** registry-side mean, active connects *)
  r_leg_round_trip_ms : float;
  r_leg_finish_ms : float;
  r_pool_hit_rate : float;  (** all registries, 0 when pooling is off *)
  r_lease_hit_rate : float;  (** leased connects / total connects *)
  r_tw_parked : int;  (** residues parked on the client-side wheel *)
  r_population : int;  (** background filters preloaded on host 1 *)
  r_churn_p : Percentile.summary;
      (** churn-phase per-connect latency percentiles, microseconds *)
}

val run :
  ?pairs:int ->
  ?conns_per_pair:int ->
  ?paced_samples:int ->
  ?cpus:int ->
  ?population:int ->
  ?tcp_params:Uln_proto.Tcp_params.t ->
  config:string ->
  network:Uln_core.World.network ->
  org:Uln_core.Organization.t ->
  unit ->
  result

val configs : (string * Uln_proto.Tcp_params.t) list
(** The cumulative ablation ladder, based on {!Uln_proto.Tcp_params.fast}. *)
