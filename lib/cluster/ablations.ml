(* --- A2: shift fraction alpha ---------------------------------------- *)

type alpha_row = {
  alpha : float;
  p95_before_us : float;
  p95_after_us : float;
  reaction_ms : float option;
  recovery_ms : float option;
  actions : int;
  disruption : float;
}

let alpha_sweep ?jobs ?(alphas = [ 0.025; 0.05; 0.1; 0.2; 0.4 ])
    ?(duration = Des.Time.sec 15) ?(inject_at = Des.Time.sec 5) () =
  Parallel.map ?jobs
    (fun alpha ->
      let scenario =
        {
          Scenario.default_config with
          Scenario.lb = { Inband.Config.default with Inband.Config.alpha };
        }
      in
      let result =
        Fig3.run ~scenario ~policies:[ Inband.Policy.Latency_aware ] ~duration
          ~inject_at ()
      in
      match result.Fig3.runs with
      | [ r ] ->
          {
            alpha;
            p95_before_us = r.Fig3.p95_before_us;
            p95_after_us = r.Fig3.p95_after_us;
            reaction_ms = r.Fig3.reaction_ms;
            recovery_ms = r.Fig3.recovery_ms;
            actions = r.Fig3.actions;
            disruption = r.Fig3.pool_disruption;
          }
      | [] | _ :: _ -> assert false)
    alphas

let opt_ms = function None -> "-" | Some ms -> Fmt.str "%.1fms" ms

let print_alpha rows =
  print_endline
    (Report.section "Ablation A2: shift fraction alpha (latency-aware, Fig 3 setup)");
  print_endline
    (Report.table
       ~headers:
         [ "alpha"; "p95 pre"; "p95 post"; "reaction"; "recovery"; "actions"; "disruption" ]
       (List.map
          (fun r ->
            [
              Report.pct r.alpha;
              Fmt.str "%.1fus" r.p95_before_us;
              Fmt.str "%.1fus" r.p95_after_us;
              opt_ms r.reaction_ms;
              opt_ms r.recovery_ms;
              string_of_int r.actions;
              Fmt.str "%.2f" r.disruption;
            ])
          rows))

(* --- A3: epoch length -------------------------------------------------- *)

type epoch_row = {
  epoch_ms : float;
  err_before : float;
  err_after : float;
  ensemble_samples : int;
}

let epoch_sweep ?jobs
    ?(epochs =
      [ Des.Time.ms 16; Des.Time.ms 32; Des.Time.ms 64; Des.Time.ms 128; Des.Time.ms 256 ])
    () =
  Parallel.map ?jobs
    (fun epoch ->
      let config =
        {
          Bulk_flow.default_config with
          Bulk_flow.lb = { Inband.Config.default with Inband.Config.epoch };
        }
      in
      let result = Fig2.run ~config () in
      {
        epoch_ms = Des.Time.to_float_ms epoch;
        err_before = result.Fig2.err_before;
        err_after = result.Fig2.err_after;
        ensemble_samples =
          result.Fig2.ensemble.Fig2.before.Fig2.count
          + result.Fig2.ensemble.Fig2.after.Fig2.count;
      })
    epochs

let print_epoch rows =
  print_endline (Report.section "Ablation A3: ensemble epoch length E");
  print_endline
    (Report.table
       ~headers:[ "epoch"; "err (pre-step)"; "err (post-step)"; "samples" ]
       (List.map
          (fun r ->
            [
              Fmt.str "%.0fms" r.epoch_ms;
              Report.pct r.err_before;
              Report.pct r.err_after;
              string_of_int r.ensemble_samples;
            ])
          rows))

(* --- A4: timing-assumption violations --------------------------------- *)

type timing_row = {
  label : string;
  err_before : float;
  err_after : float;
  n_before : int;
  n_after : int;
}

let timing_sweep ?jobs () =
  let base = Bulk_flow.default_config in
  let variants =
    [
      ("coalesced acks (baseline)", base);
      ( "delayed acks (2, 500us)",
        {
          base with
          Bulk_flow.server_ack_policy =
            Tcpsim.Conn.Ack_delayed { every = 2; timeout = Des.Time.us 500 };
        } );
      ( "per-packet acks",
        { base with Bulk_flow.server_ack_policy = Tcpsim.Conn.Ack_immediate }
      );
      ( "paced acks (1ms)",
        {
          base with
          Bulk_flow.server_ack_policy = Tcpsim.Conn.Ack_paced (Des.Time.ms 1);
        } );
      ( "app-limited sender",
        {
          base with
          Bulk_flow.refill_pause =
            Some (Stats.Dist.Exponential { mean = 3_000_000.0 });
        } );
    ]
  in
  Parallel.map ?jobs
    (fun (label, config) ->
      let r = Fig2.run ~config () in
      {
        label;
        err_before = r.Fig2.err_before;
        err_after = r.Fig2.err_after;
        n_before = r.Fig2.ensemble.Fig2.before.Fig2.count;
        n_after = r.Fig2.ensemble.Fig2.after.Fig2.count;
      })
    variants

let print_timing rows =
  print_endline
    (Report.section "Ablation A4: packet-timing assumption violations (§5 Q2)");
  print_endline
    (Report.table
       ~headers:[ "client/server behaviour"; "err (pre)"; "err (post)"; "n(pre)"; "n(post)" ]
       (List.map
          (fun r ->
            [
              r.label;
              Report.pct r.err_before;
              Report.pct r.err_after;
              string_of_int r.n_before;
              string_of_int r.n_after;
            ])
          rows))

(* --- A5: policy comparison --------------------------------------------- *)

let policy_comparison ?jobs ?law ?(duration = Des.Time.sec 15)
    ?(inject_at = Des.Time.sec 5) ?metrics_interval () =
  Fig3.run ?law ?metrics_interval ?jobs ~policies:Inband.Policy.all ~duration
    ~inject_at
    ()

(* --- A6: far, non-equidistant clients ---------------------------------- *)

type far_row = {
  label : string;
  est_s0_us : float;
  est_s1_us : float;
  actions : int;
  p95_us : float;
  min_weight_seen : float;
}

let far_one ~label ~n_clients ~overrides ~duration =
  (* Static Maglev: no controller, so the per-server estimates are pure
     measurement — uncontaminated by starvation feedback. *)
  let scenario =
    {
      Scenario.default_config with
      Scenario.n_clients;
      client_delay_overrides = overrides;
      policy = Inband.Policy.Static_maglev;
    }
  in
  let s = Scenario.build scenario in
  Scenario.run s ~until:duration;
  let balancer = Scenario.balancer s in
  let stats = Inband.Balancer.server_stats balancer in
  let est i =
    match Inband.Server_stats.estimate stats i with
    | Some e -> e /. 1e3
    | None -> nan
  in
  let hist =
    Workload.Latency_log.hist (Scenario.log s) Workload.Latency_log.Get
  in
  {
    label;
    est_s0_us = est 0;
    est_s1_us = est 1;
    actions = 0;
    p95_us = float_of_int (Stats.Histogram.quantile hist 0.95) /. 1e3;
    min_weight_seen = nan;
  }

let far_clients ?jobs ?(duration = Des.Time.sec 10) () =
  Parallel.map ?jobs
    (fun (label, n_clients, overrides) ->
      far_one ~label ~n_clients ~overrides ~duration)
    [
      ("near client only", 1, []);
      ("near + far (1ms away)", 2, [ (1, Des.Time.ms 1) ]);
    ]

let print_far rows =
  print_endline
    (Report.section
       "Ablation A6: far, non-equidistant clients contaminate estimates (§5 Q1)");
  print_endline
    (Report.table
       ~headers:[ "clients"; "est(s0)"; "est(s1)"; "p95 GET" ]
       (List.map
          (fun r ->
            [
              r.label;
              Fmt.str "%.1fus" r.est_s0_us;
              Fmt.str "%.1fus" r.est_s1_us;
              Fmt.str "%.1fus" r.p95_us;
            ])
          rows))


(* --- A9: robust estimation vs the paper's EWMA -------------------------- *)

type estimator_row = {
  label : string;
  actions : int;
  weights : float array;
  mean_us : float;
  p95_get_us : float;
}

let estimator_one ~label ~lb ~duration =
  let config =
    {
      Scenario.default_config with
      Scenario.n_servers = 3;
      policy = Inband.Policy.Latency_aware;
      lb;
    }
  in
  let s = Scenario.build config in
  Scenario.inject_server_delay s ~server:2 ~at:Des.Time.zero
    ~delay:(Des.Time.us 500);
  Scenario.run s ~until:duration;
  let hist =
    Workload.Latency_log.hist (Scenario.log s) Workload.Latency_log.Get
  in
  match Inband.Balancer.controller (Scenario.balancer s) with
  | Some c ->
      {
        label;
        actions = Inband.Controller.action_count c;
        weights = Inband.Controller.weights c;
        mean_us = Stats.Histogram.mean hist /. 1e3;
        p95_get_us = float_of_int (Stats.Histogram.quantile hist 0.95) /. 1e3;
      }
  | None -> assert false

let estimator_comparison ?jobs ?(duration = Des.Time.sec 10) () =
  let d = Inband.Config.default in
  Parallel.map ?jobs
    (fun (label, lb) -> estimator_one ~label ~lb ~duration)
    [
      ("paper: EWMA(0.3), always act", d);
      ("median of 33 samples", { d with Inband.Config.estimate_window = 33 });
      ( "median-33 + threshold + recovery",
        {
          d with
          Inband.Config.estimate_window = 33;
          relative_threshold = 1.3;
          control_interval = Des.Time.ms 5;
          recovery_rate = 0.05;
        } );
    ]

let print_estimator rows =
  print_endline
    (Report.section
       "Ablation A9: robust estimation (3 healthy-ish servers, server 2 \
        +500us from t=0)");
  print_endline
    (Report.table
       ~headers:[ "estimator"; "actions"; "final weights"; "mean GET"; "p95 GET" ]
       (List.map
          (fun r ->
            [
              r.label;
              string_of_int r.actions;
              Fmt.str "[%.2f %.2f %.2f]" r.weights.(0) r.weights.(1)
                r.weights.(2);
              Fmt.str "%.1fus" r.mean_us;
              Fmt.str "%.1fus" r.p95_get_us;
            ])
          rows))


(* --- A10: measurement source -------------------------------------------- *)

type source_row = {
  fault : string;
  ens_samples : int;
  syn_samples : int;
  ens_ratio : float;
  syn_ratio : float;
}

let source_one ~fault ~configure ~duration =
  let inject_at = Des.Time.sec 2 in
  (* Per-flow cliff scope: with one slow and one fast server the per-flow
     RTTs are heterogeneous, and a single LB-wide chosen delta would
     starve the fast flows of samples entirely (§5 Q1). *)
  let scenario =
    configure
      {
        Scenario.default_config with
        Scenario.policy = Inband.Policy.Static_maglev;
        lb =
          {
            Inband.Config.default with
            Inband.Config.cliff_scope = Inband.Config.Per_flow;
          };
      }
  in
  let s = Scenario.build scenario in
  (match fault with
  | "path +1ms" ->
      Scenario.inject_server_delay s ~server:1 ~at:inject_at
        ~delay:(Des.Time.ms 1)
  | _ -> ());
  let balancer = Scenario.balancer s in
  (* Two independent per-server trackers fed only with post-fault
     samples, one per measurement source. *)
  let ens_stats = Inband.Server_stats.create ~n:2 ~ewma_alpha:0.1 () in
  let syn_stats = Inband.Server_stats.create ~n:2 ~ewma_alpha:0.3 () in
  let ens_count = ref 0 and syn_count = ref 0 in
  ignore
  @@ Telemetry.Bus.subscribe (Inband.Balancer.sample_bus balancer)
       (fun (ev : Inband.Balancer.sample_event) ->
         if ev.at >= inject_at then begin
           incr ens_count;
           Inband.Server_stats.record ens_stats ~server:ev.server
             ~sample:ev.sample ~at:ev.at
         end);
  let syn_flows = Netsim.Flow_key.Table.create 256 in
  ignore
  @@ Telemetry.Bus.subscribe (Inband.Balancer.routed_bus balancer)
       (fun (ev : Inband.Balancer.routed_event) ->
         let est =
           match Netsim.Flow_key.Table.find_opt syn_flows ev.flow with
           | Some est -> est
           | None ->
               let est = Inband.Syn_rtt.create () in
               Netsim.Flow_key.Table.add syn_flows ev.flow est;
               est
         in
         match
           Inband.Syn_rtt.on_packet est ~now:ev.at
             ~syn:ev.packet.Netsim.Packet.flags.syn
         with
         | Some sample when ev.at >= inject_at ->
             incr syn_count;
             Inband.Server_stats.record syn_stats ~server:ev.server ~sample
               ~at:ev.at
         | Some _ | None -> ());
  Scenario.run s ~until:duration;
  let ratio stats =
    match
      ( Inband.Server_stats.estimate stats 1,
        Inband.Server_stats.estimate stats 0 )
    with
    | Some victim, Some other when other > 0.0 -> victim /. other
    | Some _, Some _ | Some _, None | None, _ -> nan
  in
  {
    fault;
    ens_samples = !ens_count;
    syn_samples = !syn_count;
    ens_ratio = ratio ens_stats;
    syn_ratio = ratio syn_stats;
  }

let source_comparison ?jobs ?(duration = Des.Time.sec 6) () =
  Parallel.map ?jobs
    (fun (fault, configure) -> source_one ~fault ~configure ~duration)
    [
      ("path +1ms", fun c -> c);
      ( "slow service (+1ms)",
        fun c ->
        {
          c with
          Scenario.server_overrides =
            [
              ( 1,
                {
                  Memcache.Server.default_config with
                  Memcache.Server.service_get =
                    Stats.Dist.Shifted
                      {
                        base = Memcache.Server.default_config.Memcache.Server.service_get;
                        offset = 1.0e6;
                      };
                  service_set =
                    Stats.Dist.Shifted
                      {
                        base = Memcache.Server.default_config.Memcache.Server.service_set;
                        offset = 1.0e6;
                      };
                } );
            ];
        } );
      ( "fast stalls (1-1.5ms)",
        fun c ->
          {
            c with
            Scenario.interference =
              [
                ( 1,
                  Stats.Dist.Exponential { mean = 2.0e6 },
                  Stats.Dist.Uniform { lo = 0.5e6; hi = 1.5e6 } );
              ];
          } );
    ]

let print_source rows =
  print_endline
    (Report.section
       "Ablation A10: measurement source — full in-band vs handshake-only");
  print_endline
    (Report.table
       ~headers:
         [
           "fault on server 1";
           "ensemble samples";
           "syn samples";
           "ens victim/other";
           "syn victim/other";
         ]
       (List.map
          (fun r ->
            [
              r.fault;
              string_of_int r.ens_samples;
              string_of_int r.syn_samples;
              Fmt.str "%.2fx" r.ens_ratio;
              Fmt.str "%.2fx" r.syn_ratio;
            ])
          rows))
