(** The paper's evaluation testbed (§4), simulated.

    Builds a cluster of memtier-style clients, one load balancer owning
    the service VIP, and N memcached servers, wired with DSR routing:
    client→LB and LB→server links carry requests, per-(server, client)
    links carry responses directly back. Exposes the LB→server links so
    experiments can inject the paper's 1 ms delay.

    The whole cluster runs on one {!Des.Engine} with one fabric, one
    metric registry and one snapshotter. Independent scenarios run in
    parallel through {!Parallel}, one engine per domain. *)

type config = {
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
  seed : int;
}

val default_config : config
(** Two servers (the paper's setup), one client host, static Maglev,
    ~170 µs network RTT, ~50 µs service times. *)

type t

val build : config -> t
(** Construct the whole cluster. Clients are not started yet. *)

val engine : t -> Des.Engine.t
val fabric : t -> Netsim.Fabric.t

val balancer : t -> Inband.Balancer.t
val servers : t -> Memcache.Server.t array
val clients : t -> Workload.Memtier.t array

val log : t -> Workload.Latency_log.t
(** The cluster-wide client latency log. *)

val vip : t -> Netsim.Addr.t
val config : t -> config

val shutdown : t -> unit
(** A no-op: a scenario holds nothing beyond the GC heap. *)

val lb_server_link : t -> int -> Netsim.Link.t
(** The LB→server link of one server (for delay injection). *)

val client_lb_link : t -> int -> Netsim.Link.t
(** The client→LB link of one client. *)

val telemetry : t -> Telemetry.Registry.t
(** The cluster's metric registry: the balancer ([lb.*], [ctl.*]),
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

val wire_client_host : t -> host_ip:int -> unit
(** Wire an extra client host (built after {!build}, e.g. a
    {!Workload.Pathology} client) into the DSR topology: a host→VIP
    request link and a server→host return link per server, all at the
    default delays. The host must already be registered on the fabric —
    create its TCP endpoint there first.

    @raise Invalid_argument if the host is unregistered or links
    already exist. *)

val inject_server_delay :
  t -> server:int -> at:Des.Time.t -> delay:Des.Time.t -> unit
(** Schedule [Link.set_extra_delay] on the LB→server link at time [at] —
    the paper's netem injection. *)

val fault_env : t -> Faults.Injector.env
(** The cluster's fault-target namespace: link ["lb->sN"] is the
    LB→server request link, ["cN->lb"] the client→LB one; servers and
    backends are indexed as built. The controller resolves only under
    the latency-aware policy. *)

val install_faults : t -> Faults.Timeline.t -> Faults.Injector.t
(** {!Faults.Injector.install} against {!fault_env}, publishing
    [fault.*] metrics into {!telemetry}. Call before {!run}. *)

val attach_pcc : t -> Oracle.t
(** Attach a per-connection-consistency {!Oracle} to the balancer
    (publishing [pcc.*] gauges into {!telemetry}). Call before
    {!run}; inspect after — the [--assert-pcc] scenario flag. *)

val run : t -> until:Des.Time.t -> unit
(** Start all clients, run the engine to [until], then stop clients.
    May be called repeatedly. *)
