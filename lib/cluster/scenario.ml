type config = {
  n_lbs : int;
  n_servers : int;
  n_clients : int;
  policy : Inband.Policy.t;
  lb : Inband.Config.t;
  table_size : int;
  client_lb_delay : Des.Time.t;
  client_delay_overrides : (int * Des.Time.t) list;
  lb_server_delay : Des.Time.t;
  server_client_delay : Des.Time.t;
  return_jitter : Stats.Dist.t option;
  link_rate_bps : int;
  server : Memcache.Server.config;
  server_overrides : (int * Memcache.Server.config) list;
  interference : (int * Stats.Dist.t * Stats.Dist.t) list;
  memtier : Workload.Memtier.config;
  memtier_overrides : (int * Workload.Memtier.config) list;
  key_count : int;
  key_dist : Workload.Keyspace.dist;
  preload_value_size : int;
  latency_bucket : Des.Time.t;
  metrics_interval : Des.Time.t;
  coord : Coordination.config;
  seed : int;
}

let default_config =
  {
    n_lbs = 1;
    n_servers = 2;
    n_clients = 1;
    policy = Inband.Policy.Static_maglev;
    lb = Inband.Config.default;
    table_size = 4099;
    client_lb_delay = Des.Time.us 30;
    client_delay_overrides = [];
    lb_server_delay = Des.Time.us 25;
    server_client_delay = Des.Time.us 55;
    return_jitter = Some (Stats.Dist.Exponential { mean = 10_000.0 });
    link_rate_bps = 10_000_000_000;
    server = Memcache.Server.default_config;
    server_overrides = [];
    interference = [];
    memtier = Workload.Memtier.default_config;
    memtier_overrides = [];
    key_count = 10_000;
    key_dist = Workload.Keyspace.Uniform;
    preload_value_size = 64;
    latency_bucket = Des.Time.ms 500;
    metrics_interval = Des.Time.ms 500;
    coord = Coordination.default_config;
    seed = 0xfeed;
  }

type t = {
  engine : Des.Engine.t;
  fabric : Netsim.Fabric.t;
  balancers : Inband.Balancer.t array;
  (* One registry per LB; LB 0's is [telemetry]. *)
  registries : Telemetry.Registry.t array;
  coordination : Coordination.t option;
  servers : Memcache.Server.t array;
  clients : Workload.Memtier.t array;
  log : Workload.Latency_log.t;
  config : config;
  client_lb_links : Netsim.Link.t array;
  (* lb_server_links.(l).(i) is LB l's link to server i. *)
  lb_server_links : Netsim.Link.t array array;
  telemetry : Telemetry.Registry.t;
  snapshots : Telemetry.Snapshot.t;
}

(* IP plan: LB l's VIP = 1 + l, servers = 10, 11, …; clients = 100,
   101, …; client j is served by LB j mod n_lbs. *)
let max_lbs = 9
let vip_ip l = 1 + l
let server_ip i = 10 + i
let client_ip j = 100 + j
let service_port = 11211
let lb_vip l = Netsim.Addr.v (vip_ip l) service_port

let build config =
  if config.n_lbs < 1 || config.n_lbs > max_lbs then
    invalid_arg
      (Fmt.str "Scenario.build: n_lbs must be in 1..%d, got %d" max_lbs
         config.n_lbs);
  let engine = Des.Engine.create () in
  let fabric = Netsim.Fabric.create engine in
  let root_rng = Des.Rng.create ~seed:config.seed in
  let lb_of_client j = j mod config.n_lbs in
  let server_ips = Array.init config.n_servers server_ip in
  let telemetry = Telemetry.Registry.create () in
  Telemetry.Registry.install_gc_metrics telemetry;
  (* Engine health gauges: a stuck-timer leak grows the pending count
     without bound; the wheel gauges catch cascade pathologies. Every
     scenario consumer (soak monitor, --metrics-csv) watches the engine
     through these. *)
  let engine_gauge name f =
    Telemetry.Registry.gauge_fn telemetry name (fun () ->
        float_of_int (f engine))
  in
  engine_gauge "des.pending" Des.Engine.pending;
  engine_gauge "des.queue_length" Des.Engine.queue_length;
  engine_gauge "des.wheel_size" Des.Engine.wheel_size;
  (* LBs after the first publish into registries of their own: every
     LB registers the same [lb.*] and [ctl.*] names. *)
  let registries =
    Array.init config.n_lbs (fun l ->
        if l = 0 then telemetry else Telemetry.Registry.create ())
  in
  (* Each balancer registers its VIP host, so build them first. *)
  let balancers =
    Array.init config.n_lbs (fun l ->
        Inband.Balancer.create fabric ~vip:(lb_vip l) ~server_ips
          ~policy:config.policy ~config:config.lb
          ~table_size:config.table_size
          ~rng:
            (Des.Rng.split root_rng
               ~label:(if l = 0 then "p2c" else Fmt.str "p2c-%d" l))
          ~telemetry:registries.(l) ())
  in
  (* The control plane's publish timers start right after the
     balancers' sweep timers, ahead of every server timer. *)
  let coordination =
    if config.coord.Coordination.policy = Coordination.Uncoordinated then None
    else
      let controllers =
        Array.map
          (fun balancer ->
            match Inband.Balancer.controller balancer with
            | Some c -> c
            | None ->
                invalid_arg
                  "Scenario.build: coordination needs a controller policy")
          balancers
      in
      Some
        (Coordination.create ~engine ~config:config.coord ~controllers
           ~registries
           ~rng:(Des.Rng.split root_rng ~label:"coord")
           ())
  in
  (* Forward-path links carry an rng so the fault layer can turn on
     loss bursts; each gets its own label-split stream, so unused rngs
     don't perturb any other stream. *)
  let plain_link ?(registry = telemetry) ?metric ?index ?rng delay =
    Netsim.Link.create engine ~delay ~rate_bps:config.link_rate_bps
      ?telemetry:(if metric = None then None else Some registry)
      ?metric ?index ?rng ()
  in
  let return_link delay ~rng =
    match config.return_jitter with
    | None -> plain_link delay
    | Some jitter ->
        Netsim.Link.create engine ~delay ~rate_bps:config.link_rate_bps
          ~jitter ~rng ()
  in
  (* Servers: endpoint at its own IP, accepting any VIP on the service
     port (DSR; a wildcard bind, as with VIPs on loopback). *)
  let servers =
    Array.init config.n_servers (fun i ->
        let rng =
          Des.Rng.split root_rng ~label:(Fmt.str "server-%d" i)
        in
        let interference =
          List.find_opt (fun (s, _, _) -> s = i) config.interference
          |> Option.map (fun (_, gap, duration) ->
                 Memcache.Interference.periodic engine
                   ~rng:(Des.Rng.split root_rng ~label:(Fmt.str "intf-%d" i))
                   ~gap ~duration)
        in
        let server_config =
          match List.assoc_opt i config.server_overrides with
          | Some c -> c
          | None -> config.server
        in
        Memcache.Server.create fabric ~host_ip:(server_ip i)
          ~listen_addr:(Netsim.Addr.v 0 service_port)
          ~config:server_config ?interference ~telemetry ~index:i ~rng ())
  in
  (* Preload every server's store so GETs hit immediately. *)
  let keyspace_names =
    Workload.Keyspace.create ~count:config.key_count
      ~dist:Workload.Keyspace.Uniform
      ~rng:(Des.Rng.split root_rng ~label:"preload")
      ()
  in
  Array.iter
    (fun server ->
      Memcache.Store.preload
        (Memcache.Server.store server)
        ~count:config.key_count
        ~key_of:(Workload.Keyspace.key_of keyspace_names)
        ~value_size:config.preload_value_size)
    servers;
  let log =
    Workload.Latency_log.create engine ~bucket:config.latency_bucket
      ~telemetry ()
  in
  let clients =
    Array.init config.n_clients (fun j ->
        let rng = Des.Rng.split root_rng ~label:(Fmt.str "client-%d" j) in
        let keyspace =
          Workload.Keyspace.create ~count:config.key_count
            ~dist:config.key_dist
            ~rng:(Des.Rng.split root_rng ~label:(Fmt.str "keys-%d" j))
            ()
        in
        let mconfig =
          match List.assoc_opt j config.memtier_overrides with
          | Some c -> c
          | None -> config.memtier
        in
        Workload.Memtier.create fabric ~host_ip:(client_ip j)
          ~vip:(lb_vip (lb_of_client j))
          ~keyspace
          ~log ~config:mconfig ~telemetry ~index:j ~rng ())
  in
  (* Links. Request path: client→its LB's VIP, VIP→server. Return path
     (DSR): server→client directly. *)
  let client_delay j =
    match List.assoc_opt j config.client_delay_overrides with
    | Some d -> d
    | None -> config.client_lb_delay
  in
  let client_lb_links =
    Array.init config.n_clients (fun j ->
        let link =
          plain_link ~metric:"link.client_lb" ~index:j
            ~rng:(Des.Rng.split root_rng ~label:(Fmt.str "link-c%d" j))
            (client_delay j)
        in
        Netsim.Fabric.add_link fabric ~src:(client_ip j)
          ~dst:(vip_ip (lb_of_client j))
          link;
        link)
  in
  let lb_server_links =
    Array.init config.n_lbs (fun l ->
        Array.init config.n_servers (fun i ->
            let label =
              if l = 0 then Fmt.str "link-s%d" i else Fmt.str "link-%d-s%d" l i
            in
            let link =
              plain_link ~registry:registries.(l) ~metric:"link.lb_server"
                ~index:i
                ~rng:(Des.Rng.split root_rng ~label)
                config.lb_server_delay
            in
            Netsim.Fabric.add_link fabric ~src:(vip_ip l) ~dst:(server_ip i)
              link;
            link))
  in
  for i = 0 to config.n_servers - 1 do
    for j = 0 to config.n_clients - 1 do
      let rng =
        Des.Rng.split root_rng ~label:(Fmt.str "jitter-%d-%d" i j)
      in
      (* A far client is far in both directions. *)
      let extra = client_delay j - config.client_lb_delay in
      let delay = config.server_client_delay + extra in
      Netsim.Fabric.add_link fabric ~src:(server_ip i) ~dst:(client_ip j)
        (return_link delay ~rng)
    done
  done;
  let snapshots =
    Telemetry.Snapshot.start engine telemetry ~interval:config.metrics_interval
  in
  {
    engine;
    fabric;
    balancers;
    registries;
    coordination;
    servers;
    clients;
    log;
    config;
    client_lb_links;
    lb_server_links;
    telemetry;
    snapshots;
  }

let engine t = t.engine
let fabric t = t.fabric
let balancer t = t.balancers.(0)
let balancers t = t.balancers
let lb_telemetry t l = t.registries.(l)
let coordination t = t.coordination
let servers t = t.servers
let clients t = t.clients
let log t = t.log
let vip (_ : t) = lb_vip 0
let config t = t.config
let lb_server_link t i = t.lb_server_links.(0).(i)
let client_lb_link t j = t.client_lb_links.(j)
let telemetry t = t.telemetry
let snapshots t = t.snapshots
let shutdown (_ : t) = ()
let metric_sum t ?index name = Telemetry.Registry.value t.telemetry ?index name
let series t ?index name = Telemetry.Registry.series t.telemetry ?index name

let histogram t ?index name =
  Telemetry.Registry.find_histogram t.telemetry ?index name

let snap_all t = Telemetry.Snapshot.snap t.snapshots
let snap_rows t = Telemetry.Snapshot.rows t.snapshots

let schedule_snap t ~at =
  ignore (Des.Engine.schedule t.engine ~at (fun () -> snap_all t))

(* Wire an extra client host built after {!build} (e.g. a pathology
   client) into LB [lb]'s DSR topology: host→VIP request link plus one
   server→host return link per server. The host must already be
   registered on the fabric (creating its endpoint does that). *)
let wire_client_host ?(lb = 0) t ~host_ip =
  if lb < 0 || lb >= Array.length t.balancers then
    invalid_arg "Scenario.wire_client_host: lb out of range";
  let link delay =
    Netsim.Link.create (engine t) ~delay ~rate_bps:t.config.link_rate_bps ()
  in
  Netsim.Fabric.add_link (fabric t) ~src:host_ip ~dst:(vip_ip lb)
    (link t.config.client_lb_delay);
  Array.iteri
    (fun i _ ->
      Netsim.Fabric.add_link (fabric t) ~src:(server_ip i) ~dst:host_ip
        (link t.config.server_client_delay))
    t.servers

(* A slow server is slow from every LB's point of view: delay each
   LB's link to it. *)
let inject_server_delay t ~server ~at ~delay =
  Array.iter
    (fun links ->
      let link = links.(server) in
      ignore
        (Des.Engine.schedule (engine t) ~at (fun () ->
             Netsim.Link.set_extra_delay link delay)))
    t.lb_server_links

(* Timeline link names follow the topology: "lb->sN" is every LB's
   request link to server N, "cN->lb" client N's link to its LB. *)
let resolve_links t name =
  let in_range a i = i >= 0 && i < Array.length a in
  match Scanf.sscanf_opt name "lb->s%d%!" (fun i -> i) with
  | Some i when in_range t.servers i ->
      Array.to_list (Array.map (fun links -> links.(i)) t.lb_server_links)
  | Some _ -> []
  | None -> begin
      match Scanf.sscanf_opt name "c%d->lb%!" (fun j -> j) with
      | Some j when in_range t.client_lb_links j -> [ t.client_lb_links.(j) ]
      | Some _ | None -> []
    end

let fault_env t =
  {
    Faults.Injector.links = resolve_links t;
    server =
      (fun i ->
        if i >= 0 && i < Array.length t.servers then Some t.servers.(i)
        else None);
    controllers =
      (fun i ->
        if i >= 0 && i < Array.length t.servers then
          List.filter_map Inband.Balancer.controller
            (Array.to_list t.balancers)
        else []);
  }

let install_faults t timeline =
  Faults.Injector.install (engine t) ~env:(fault_env t)
    ~telemetry:(telemetry t) timeline

let attach_pcc t = Oracle.attach ~telemetry:(telemetry t) (balancer t)

let attach_pcc_fleet t =
  Array.mapi
    (fun l balancer -> Oracle.attach ~telemetry:t.registries.(l) balancer)
    t.balancers

let run t ~until =
  Array.iter Workload.Memtier.start t.clients;
  Des.Engine.run t.engine ~until;
  Array.iter Workload.Memtier.stop t.clients
