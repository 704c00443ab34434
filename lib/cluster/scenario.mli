(** The paper's evaluation testbed (§4), simulated.

    Builds a cluster of memtier-style clients, one or more load
    balancers each owning a VIP, and N memcached servers, wired with DSR
    routing: client→LB and LB→server links carry requests,
    per-(server, client) links carry responses directly back. Exposes
    the LB→server links so experiments can inject the paper's 1 ms
    delay.

    With [n_lbs > 1] the same builder wires an LB fleet over one server
    pool (§5 Q4): LB [l] owns VIP ip [1 + l], client [j] goes to LB
    [j mod n_lbs], servers accept any VIP on the service port, and an
    optional {!Coordination} control plane links the controllers.

    The whole cluster runs on one {!Des.Engine} with one fabric and one
    snapshotter. Independent scenarios run in parallel through
    {!Parallel}, one engine per domain. *)

type config = {
  n_lbs : int;
      (** Load balancers over the one server pool, 1..{!max_lbs}
          (default 1). *)
  n_servers : int;
  n_clients : int;
  policy : Inband.Policy.t;
  lb : Inband.Config.t;
  table_size : int;
  client_lb_delay : Des.Time.t;  (** One-way, request path hop 1. *)
  client_delay_overrides : (int * Des.Time.t) list;
      (** Per-client one-way client→LB delay overrides — "far,
          non-equidistant clients" (§5 Q1). The same extra distance is
          applied to the client's DSR return paths so the whole RTT
          moves. *)
  lb_server_delay : Des.Time.t;  (** One-way, request path hop 2. *)
  server_client_delay : Des.Time.t;  (** One-way, DSR return path. *)
  return_jitter : Stats.Dist.t option;
      (** Extra per-packet delay on the return path (ns), modelling
          kernel/NIC variability; [None] = deterministic. *)
  link_rate_bps : int;
  server : Memcache.Server.config;
  server_overrides : (int * Memcache.Server.config) list;
      (** Per-server config overrides, e.g. a persistently slower
          service distribution for one replica. *)
  interference : (int * Stats.Dist.t * Stats.Dist.t) list;
      (** Per-server interference processes: (server index, gap dist,
          pause-duration dist), both in ns — §2.2's preemption/GC
          stalls. *)
  memtier : Workload.Memtier.config;
  memtier_overrides : (int * Workload.Memtier.config) list;
      (** Per-client workload overrides — e.g. a mostly-persistent
          fleet with a couple of churning clients that keep every
          backend's in-band estimate fresh (the remap frontier's
          mix). *)
  key_count : int;
  key_dist : Workload.Keyspace.dist;
  preload_value_size : int;
  latency_bucket : Des.Time.t;  (** Time-series bucket for the log. *)
  metrics_interval : Des.Time.t;
      (** Telemetry snapshot period (default 500 ms). *)
  coord : Coordination.config;
      (** The fleet's control plane; the default is uncoordinated, which
          builds none. Any other policy needs a controller policy. *)
  seed : int;
}

val default_config : config
(** One LB, two servers (the paper's setup), one client host, static
    Maglev, ~170 µs network RTT, ~50 µs service times. *)

val max_lbs : int
(** 9: LB VIPs sit below the first server IP. *)

val lb_vip : int -> Netsim.Addr.t
(** LB [l]'s VIP address (IP [1 + l], the service port). *)

type t

val build : config -> t
(** Construct the whole cluster. Clients are not started yet.

    @raise Invalid_argument if [n_lbs] is outside 1..{!max_lbs}, or if
    a coordination policy is set without a controller policy. *)

val engine : t -> Des.Engine.t
val fabric : t -> Netsim.Fabric.t

val balancer : t -> Inband.Balancer.t
(** LB 0. *)

val balancers : t -> Inband.Balancer.t array
(** Every LB, in LB order. *)

val lb_telemetry : t -> int -> Telemetry.Registry.t
(** LB [l]'s metric registry: {!telemetry} for LB 0, a registry of its
    own for every later LB (each LB registers the same [lb.*],
    [ctl.*], [coord.*] and [link.lb_server.*] names). *)

val coordination : t -> Coordination.t option
(** The control plane, unless [config.coord] is uncoordinated. *)

val servers : t -> Memcache.Server.t array
val clients : t -> Workload.Memtier.t array

val log : t -> Workload.Latency_log.t
(** The cluster-wide client latency log. *)

val vip : t -> Netsim.Addr.t
(** LB 0's VIP. *)

val config : t -> config

val shutdown : t -> unit
(** A no-op: a scenario holds nothing beyond the GC heap. *)

val lb_server_link : t -> int -> Netsim.Link.t
(** LB 0's link to one server (for delay injection). *)

val client_lb_link : t -> int -> Netsim.Link.t
(** The client→LB link of one client. *)

val telemetry : t -> Telemetry.Registry.t
(** The cluster's metric registry: LB 0 ([lb.*], [ctl.*]),
    servers ([server.*], indexed), clients ([client.*]), links
    ([link.lb_server.*], [link.client_lb.*]), the engine ([des.*]) and
    the GC. *)

val snapshots : t -> Telemetry.Snapshot.t
(** The periodic snapshotter of {!telemetry}; started at build time. *)

(** {2 Registry shorthands} *)

val metric_sum : t -> ?index:int -> string -> float option
(** {!Telemetry.Registry.value} on {!telemetry}; the name dates from
    per-shard registries, whose readings it summed. *)

val series : t -> ?index:int -> string -> Stats.Timeseries.t option
(** An attached time series (e.g. ["client.latency.get"]). *)

val histogram : t -> ?index:int -> string -> Stats.Histogram.t option
(** A registered histogram (e.g. ["client.latency_get_ns"]). *)

val snap_rows : t -> Telemetry.Snapshot.row list
(** The snapshotter's rows, in snapshot order. *)

val snap_all : t -> unit
(** Take an immediate out-of-cadence snapshot (e.g. the final sample
    after {!run} returns). *)

val schedule_snap : t -> at:Des.Time.t -> unit
(** Schedule an out-of-cadence snapshot at simulation time [at]. *)

val wire_client_host : ?lb:int -> t -> host_ip:int -> unit
(** Wire an extra client host (built after {!build}, e.g. a
    {!Workload.Pathology} client) into LB [lb]'s (default 0) DSR
    topology: a host→VIP request link and a server→host return link per
    server, at the configured delays. The host must already be
    registered on the fabric — create its TCP endpoint there first.

    @raise Invalid_argument if [lb] is out of range, the host is
    unregistered or links already exist. *)

val inject_server_delay :
  t -> server:int -> at:Des.Time.t -> delay:Des.Time.t -> unit
(** Schedule [Link.set_extra_delay] at time [at] on every LB's link to
    that server — the paper's netem injection; the server is slow from
    every LB's point of view. *)

val fault_env : t -> Faults.Injector.env
(** The cluster's fault-target namespace: link ["lb->sN"] names every
    LB's request link to server N, ["cN->lb"] client N's link to its
    LB; servers and backends are indexed as built, and a backend drain
    applies to every LB's controller. Controllers exist only under the
    latency-aware policy. *)

val install_faults : t -> Faults.Timeline.t -> Faults.Injector.t
(** {!Faults.Injector.install} against {!fault_env}, publishing
    [fault.*] metrics into {!telemetry}. Call before {!run}. *)

val attach_pcc : t -> Oracle.t
(** Attach a per-connection-consistency {!Oracle} to LB 0 (publishing
    [pcc.*] gauges into {!telemetry}). Call before {!run}; inspect
    after — the [--assert-pcc] scenario flag. *)

val attach_pcc_fleet : t -> Oracle.t array
(** One {!Oracle} per LB, in LB order, each publishing into that LB's
    {!lb_telemetry}. *)

val run : t -> until:Des.Time.t -> unit
(** Start all clients, run the engine to [until], then stop clients.
    May be called repeatedly. *)
