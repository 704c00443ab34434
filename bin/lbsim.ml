(* lbsim — command-line driver for the in-band feedback LB simulator.

   Subcommands mirror the paper's experiments with the knobs exposed:

     lbsim fig2   [--duration 6] [--step-at 3] [--step-ms 1.0] ...
     lbsim fig3   [--duration 30] [--inject-at 10] [--policy ...] [--law ...]
     lbsim sweep  (alpha | epoch | timing | policy | law | ...) [--check]
     lbsim herd   [--coord none|gossip|leader|all] [--law ...] [--lbs 1,2,4]
     lbsim run    [--faults FILE] [--assert-pcc] ...  (free-form scenario)
     lbsim churn  [--faults FILE] [--assert-recovery]
     lbsim soak   [--minutes 30] [--lbs N] [--coord ...] [--check]
     lbsim flows  [-n 65536] [--check]
     lbsim bench  (e2e | micro | history) [--check]
     lbsim estimate --help      (run the estimator over a bulk flow)

   Two orthogonal selection axes recur: --policy is the routing policy
   (which backend each new connection goes to); --law is the control
   law (how the feedback controller moves the weight vector, under the
   latency-aware policy only).

   --check turns a run into a CI gate: the verdict comes from the
   library module that owns the rows (Cluster.Multi_lb, Frontier, Soak,
   Sharded, Fig3), compared against the committed BENCH_pr*.json
   baselines, which nothing here writes. *)

open Cmdliner

let sec =
  let parse s =
    match float_of_string_opt s with
    | Some v when v > 0.0 -> Ok (Des.Time.of_float_s v)
    | Some _ | None -> Error (`Msg "expected a positive number of seconds")
  in
  Arg.conv (parse, fun ppf t -> Fmt.pf ppf "%g" (Des.Time.to_float_s t))

(* Integers with a lower bound, so out-of-range counts are usage errors
   rather than exceptions from deep inside a run. *)
let int_at_least ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= lo && v <= hi -> Ok v
    | Some _ | None when hi = max_int ->
        Error (`Msg (Fmt.str "expected an integer >= %d" lo))
    | Some _ | None -> Error (`Msg (Fmt.str "expected an integer in %d..%d" lo hi))
  in
  Arg.conv (parse, Fmt.int)

let pos_int = int_at_least 1
let nonneg_int = int_at_least 0
let lb_count = int_at_least ~hi:Cluster.Scenario.max_lbs 1

(* Floats accepted by [ok], named by [what] in the usage error. *)
let float_where ok what =
  let parse s =
    match float_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some _ | None -> Error (`Msg ("expected " ^ what))
  in
  Arg.conv (parse, Fmt.float)

let nonneg_float = float_where (fun v -> v >= 0.0) "a number >= 0"
let fraction = float_where (fun v -> v > 0.0 && v < 1.0) "a number in (0,1)"

let coord_policy =
  let parse s =
    Result.map_error (fun msg -> `Msg msg)
      (Cluster.Coordination.policy_of_string s)
  in
  Arg.conv (parse, Cluster.Coordination.pp_policy)

(* --check: the verdict of a library gate, printed as one line; exit 1
   names the tripwire that fired. *)
let check_arg doc = Arg.(value & flag & info [ "check" ] ~doc)

let report_gate ~smoke = function
  | Ok "" -> Fmt.pr "%s: ok@." smoke
  | Ok summary -> Fmt.pr "%s: ok (%s)@." smoke summary
  | Error (tripwire, msg) ->
      Fmt.epr "%s FAILED (tripwire: %s): %s@." smoke tripwire msg;
      exit 1

(* The fields of the newest committed BENCH_pr*.json carrying [key], and
   its path; ([""], []) when none does. *)
let committed key =
  match Cluster.Bench_store.locate_opt ~key () with
  | Some path -> (path, Cluster.Bench_store.read path)
  | None -> ("", [])

(* A positional target picked from [table], so the enum and the dispatch
   read one list. Each entry says whether [--check] has a gate to run;
   asking for one where none exists is a usage error, before any run. *)
let target_arg table ~docv =
  Arg.(required & pos 0 (some (enum table)) None & info [] ~docv)

let run_target (gated, f) ~check k =
  if check && not gated then `Error (true, "--check: this target has no gate")
  else `Ok (k f)

let policy =
  let parse s =
    match Inband.Policy.of_string s with
    | Ok p -> Ok p
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Inband.Policy.pp)

(* The control law is a different axis from the routing policy:
   --policy picks how new connections are routed, --law picks the
   decision rule the feedback controller runs (latency-aware policy
   only). *)
let law =
  let parse s =
    match Inband.Control_law.of_string s with
    | Ok l -> Ok l
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Inband.Control_law.pp)

let law_arg =
  Arg.(
    value
    & opt law Inband.Control_law.Shift_worst
    & info [ "law" ] ~docv:"LAW"
        ~doc:
          "Control law the feedback controller runs: $(b,shift-worst) \
           (the paper's alpha-shift, default), $(b,knapsack) \
           (capacity-curve solver), or $(b,gradient) (distributed \
           gradient descent on latency). Steers the weight vector; \
           distinct from $(b,--policy), which picks the routing \
           algorithm and must be latency-aware for any law to run.")

(* Third axis: what a committed table rebuild does to *established*
   flows. Preserve (default) is the paper's never-break-affinity
   behaviour; the others deliberately trade PCC for recovery. *)
let remap =
  let parse s =
    match Inband.Remap.of_string s with
    | Ok r -> Ok r
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, Inband.Remap.pp)

let remap_arg =
  Arg.(
    value
    & opt remap Inband.Remap.Preserve
    & info [ "remap" ] ~docv:"POLICY"
        ~doc:
          "What a table rebuild does to established flows: \
           $(b,preserve) (the paper, default: affinity never broken), \
           $(b,immediate) (every live flow re-consults the new table), \
           $(b,ttl:)$(i,DUR) (only flows idle at least $(i,DUR), e.g. \
           ttl:300us), or $(b,hot_k:)$(i,K) (only the K highest-rate \
           flows of the rebuild's victim). Anything but preserve \
           knowingly breaks per-connection consistency; the PCC oracle \
           counts each break.")

(* --- fig2 -------------------------------------------------------------- *)

let csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "csv" ] ~docv:"FILE" ~doc:"Also dump the raw series as CSV.")

let metrics_csv_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-csv" ] ~docv:"FILE"
        ~doc:
          "Dump the telemetry snapshot stream (every registered metric, \
           sampled periodically) as label,t_s,metric,index,value CSV.")

let metrics_interval_arg =
  Arg.(
    value
    & opt sec (Des.Time.ms 500)
    & info [ "metrics-interval" ] ~docv:"SECONDS"
        ~doc:"Telemetry snapshot period, seconds.")

let jobs_arg =
  Arg.(
    value
    & opt nonneg_int 1
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Run the independent simulations of the experiment on $(docv) \
           domains (0 = one per recommended core). Results are \
           byte-identical at any $(docv).")

let fig2_cmd =
  let run duration step_at step_ms window seed csv =
    let config =
      {
        Cluster.Bulk_flow.default_config with
        Cluster.Bulk_flow.duration;
        rtt_step_at = step_at;
        rtt_step = Des.Time.of_float_s (step_ms /. 1e3);
        window;
        seed;
      }
    in
    let result = Cluster.Fig2.run ~config () in
    Cluster.Fig2.print result;
    match csv with
    | Some path ->
        Cluster.Csv.write_file ~path (Cluster.Csv.fig2_samples result);
        Fmt.pr "wrote %s@." path
    | None -> ()
  in
  let duration =
    Arg.(value & opt sec (Des.Time.sec 6) & info [ "duration" ] ~doc:"Run length, seconds.")
  in
  let step_at =
    Arg.(value & opt sec (Des.Time.sec 3) & info [ "step-at" ] ~doc:"RTT step time, seconds.")
  in
  let step_ms =
    Arg.(value & opt float 1.0 & info [ "step-ms" ] ~doc:"RTT step size, milliseconds.")
  in
  let window =
    Arg.(value & opt int (32 * 1024) & info [ "window" ] ~doc:"Sender window, bytes.")
  in
  let seed = Arg.(value & opt int 0x5eed2 & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "fig2" ~doc:"Estimator accuracy on a backlogged flow (Fig 2).")
    Term.(const run $ duration $ step_at $ step_ms $ window $ seed $ csv_arg)

(* --- fig3 -------------------------------------------------------------- *)

let fig3_cmd =
  let run duration inject_at inject_ms policies servers connections alpha law
      remap seed csv metrics_csv metrics_interval jobs =
    let base = Cluster.Fig3.default_scenario in
    let scenario =
      {
        base with
        Cluster.Scenario.n_servers = servers;
        lb = { base.Cluster.Scenario.lb with Inband.Config.alpha; remap };
        memtier =
          { base.Cluster.Scenario.memtier with Workload.Memtier.connections };
        seed;
      }
    in
    let result =
      Cluster.Fig3.run ~scenario ~law ~metrics_interval ~jobs ~policies
        ~duration ~inject_at
        ~inject_delay:(Des.Time.of_float_s (inject_ms /. 1e3))
        ()
    in
    Cluster.Fig3.print result;
    (match csv with
    | Some path ->
        Cluster.Csv.write_file ~path (Cluster.Csv.fig3_series result);
        Fmt.pr "wrote %s@." path
    | None -> ());
    match metrics_csv with
    | Some path ->
        Cluster.Csv.write_file ~path (Cluster.Csv.fig3_metrics result);
        Fmt.pr "wrote %s@." path
    | None -> ()
  in
  let duration =
    Arg.(value & opt sec (Des.Time.sec 30) & info [ "duration" ] ~doc:"Run length, seconds.")
  in
  let inject_at =
    Arg.(value & opt sec (Des.Time.sec 10) & info [ "inject-at" ] ~doc:"Injection time, seconds.")
  in
  let inject_ms =
    Arg.(value & opt nonneg_float 1.0 & info [ "inject-ms" ] ~doc:"Injected delay, milliseconds.")
  in
  let policies =
    Arg.(
      value
      & opt (list policy) [ Inband.Policy.Static_maglev; Inband.Policy.Latency_aware ]
      & info [ "policies" ] ~doc:"Comma-separated policies to compare.")
  in
  let servers =
    Arg.(value & opt pos_int 2 & info [ "servers" ] ~doc:"Number of memcached servers.")
  in
  let connections =
    Arg.(value & opt pos_int 4 & info [ "connections" ] ~doc:"Client connections.")
  in
  let alpha =
    Arg.(value & opt fraction 0.10 & info [ "alpha" ] ~doc:"Controller shift fraction, in (0,1).")
  in
  let seed = Arg.(value & opt int 0xfeed & info [ "seed" ] ~doc:"Random seed.") in
  Cmd.v
    (Cmd.info "fig3"
       ~doc:
         "Tail latency under a server delay injection (Fig 3), on \
          $(b,Cluster.Fig3.default_scenario). The paper's own timeline is \
          $(b,--duration 200 --inject-at 100).")
    Term.(
      const run $ duration $ inject_at $ inject_ms $ policies $ servers
      $ connections $ alpha $ law_arg $ remap_arg $ seed $ csv_arg
      $ metrics_csv_arg $ metrics_interval_arg $ jobs_arg)

(* --- sweeps ------------------------------------------------------------ *)

(* Every sweep by name, with whether [--check] gates it. *)
let sweeps =
  let module A = Cluster.Ablations in
  let plain f =
    (false, fun ~law:_ ~metrics_interval:_ ~dump:_ ~jobs ~check:_ -> f ~jobs)
  in
  [
    ("alpha", plain (fun ~jobs -> A.print_alpha (A.alpha_sweep ~jobs ())));
    ("epoch", plain (fun ~jobs -> A.print_epoch (A.epoch_sweep ~jobs ())));
    ("timing", plain (fun ~jobs -> A.print_timing (A.timing_sweep ~jobs ())));
    ( "policy",
      ( false,
        fun ~law ~metrics_interval ~dump ~jobs ~check:_ ->
          let result = A.policy_comparison ~jobs ~law ~metrics_interval () in
          Cluster.Fig3.print result;
          dump result ) );
    ("far", plain (fun ~jobs -> A.print_far (A.far_clients ~jobs ())));
    ( "law",
      ( true,
        fun ~law:_ ~metrics_interval:_ ~dump:_ ~jobs ~check ->
          let rows = Cluster.Multi_lb.law_sweep ~jobs () in
          Cluster.Multi_lb.print_laws rows;
          if check then
            report_gate ~smoke:"law-smoke"
              (Cluster.Multi_lb.law_gate
                 ~baseline:(snd (committed Cluster.Multi_lb.law_baseline_key))
                 rows) ) );
    ( "dependency",
      plain (fun ~jobs ->
          Cluster.Dependency.print (Cluster.Dependency.run_cases ~jobs ())) );
    ( "estimator",
      plain (fun ~jobs -> A.print_estimator (A.estimator_comparison ~jobs ()))
    );
    ("source", plain (fun ~jobs -> A.print_source (A.source_comparison ~jobs ())));
    ( "remap",
      ( true,
        fun ~law:_ ~metrics_interval:_ ~dump:_ ~jobs ~check ->
          let result = Cluster.Frontier.run ~jobs () in
          Cluster.Frontier.print result;
          if check then
            report_gate ~smoke:"frontier-smoke" (Cluster.Frontier.gate result) )
    );
  ]

let sweep_cmd =
  let run which law metrics_csv metrics_interval jobs check =
    let dump result =
      match metrics_csv with
      | Some path ->
          Cluster.Csv.write_file ~path (Cluster.Csv.fig3_metrics result);
          Fmt.pr "wrote %s@." path
      | None -> ()
    in
    run_target which ~check (fun f ->
        f ~law ~metrics_interval ~dump ~jobs ~check)
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Ablation sweeps: alpha, epoch, timing, policy, far, law, \
          dependency, estimator, source, remap (the fleet sweep is \
          $(b,lbsim herd)). The law sweep compares \
          control laws (shift-worst/knapsack/gradient — the $(b,--law) \
          axis) across fleet sizes; the policy sweep compares routing \
          policies (the $(b,--policy) axis) and honours \
          $(b,--metrics-csv)/$(b,--metrics-interval); the remap sweep \
          maps the PCC-violation / recovery-latency frontier across \
          remap policies and fault intensities. $(b,--law) selects the \
          control law for the policy sweep; all sweeps honour \
          $(b,--jobs) and render identically at any job count.")
    Term.(
      ret
        (const run
        $ target_arg sweeps ~docv:"SWEEP"
        $ law_arg $ metrics_csv_arg $ metrics_interval_arg $ jobs_arg
        $ check_arg
            "Gate the law sweep (law-smoke: PCC, convergence against the \
             committed BENCH_pr*.json baseline, gradient p95, gossip \
             churn) or the remap sweep (frontier-smoke: preserve clean, \
             heavy column monotone); exit 1 naming the tripwire that \
             fired."))

(* --- herd: coordinated LB fleet (extended A7) --------------------------- *)

let assert_pcc_arg =
  Arg.(
    value & flag
    & info [ "assert-pcc" ]
        ~doc:
          "Attach the per-connection-consistency oracle and exit nonzero \
           if any established flow ever changed backend (CI smoke check).")

(* [hard] is the --assert-pcc contract: nonzero exit on any violation.
   Without it the oracle is a counting instrument — non-preserving
   remap policies are *supposed* to produce violations. *)
let report_pcc ?(hard = true) oracle =
  Fmt.pr "pcc: %d packets checked, %d violations (rate %.5f)@."
    (Cluster.Oracle.checked oracle)
    (Cluster.Oracle.violation_count oracle)
    (Cluster.Oracle.violation_rate oracle);
  if hard && not (Cluster.Oracle.ok oracle) then begin
    List.iter
      (fun v -> Fmt.epr "pcc violation: %a@." Cluster.Oracle.pp_violation v)
      (Cluster.Oracle.violations oracle);
    exit 1
  end

let herd_cmd =
  let run policies law remap lbs duration inject_at check jobs =
    let rows =
      Cluster.Multi_lb.coord_sweep ~jobs ~law ~remap ~policies ~lb_counts:lbs
        ~duration ~inject_at ()
    in
    Cluster.Multi_lb.print_coord rows;
    if check then
      report_gate ~smoke:"coord-smoke" (Cluster.Multi_lb.coord_gate rows)
  in
  let all = Cluster.Coordination.[ Uncoordinated; Gossip_average; Leader ] in
  let coord_policies =
    let parse = function
      | "all" -> Ok all
      | s -> (
          match Cluster.Coordination.policy_of_string s with
          | Ok p -> Ok [ p ]
          | Error msg -> Error (`Msg msg))
    in
    let print ppf = function
      | ps when ps = all -> Fmt.string ppf "all"
      | ps -> Fmt.(list ~sep:comma Cluster.Coordination.pp_policy) ppf ps
    in
    Arg.conv (parse, print)
  in
  let coord =
    Arg.(
      value
      & opt coord_policies all
      & info [ "coord" ] ~docv:"POLICY"
          ~doc:
            "Coordination policy to run: $(b,none), $(b,gossip), \
             $(b,leader), or $(b,all) for the full comparison.")
  in
  let lbs =
    Arg.(
      value
      & opt (list lb_count) [ 1; 2; 4 ]
      & info [ "lbs" ] ~docv:"N,..." ~doc:"Fleet sizes to sweep.")
  in
  let duration =
    Arg.(
      value
      & opt sec (Des.Time.sec 12)
      & info [ "duration" ] ~doc:"Run length, seconds.")
  in
  let inject_at =
    Arg.(
      value
      & opt sec (Des.Time.sec 4)
      & info [ "inject-at" ] ~doc:"Injection time, seconds.")
  in
  Cmd.v
    (Cmd.info "herd"
       ~doc:
         "The extended A7 fleet experiment: per-policy churn and \
          convergence for 1..N LBs over one server pool, with the PCC \
          oracle attached to every LB. $(b,--law) swaps the control law \
          every controller runs (default the paper's shift-worst).")
    Term.(
      const run $ coord $ law_arg $ remap_arg $ lbs $ duration $ inject_at
      $ check_arg
          "Gate the run (coord-smoke): exit 1 on any PCC violation, or if \
           gossip or leader takes more than half the uncoordinated \
           fleet-total actions at the largest fleet."
      $ jobs_arg)

(* --- run: free-form scenario ------------------------------------------- *)

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"FILE"
        ~doc:
          "Replay a fault timeline from $(docv) (grammar: 'AT TARGET \
           FAULT [for DURATION]' per line, e.g. '2s link:lb->s1 \
           delay+1ms for 3s'; targets link:lb->sN, link:cN->lb, \
           server:N, backend:N).")

let load_faults = function
  | None -> None
  | Some path -> begin
      match Faults.Timeline.load ~path with
      | Ok timeline -> Some timeline
      | Error msg ->
          Fmt.epr "%s: %s@." path msg;
          exit 2
    end

let print_fault_intervals injector =
  List.iter
    (fun (i : Faults.Injector.interval) ->
      Fmt.pr "fault %s: applied at %a%s@."
        (Faults.Timeline.to_spec i.Faults.Injector.event)
        Des.Time.pp i.Faults.Injector.applied_at
        (match i.Faults.Injector.reverted_at with
        | Some t -> Fmt.str ", cleared at %a" Des.Time.pp t
        | None -> ""))
    (Faults.Injector.intervals injector)

let run_cmd =
  let run duration policy law remap servers clients connections pipeline
      get_ratio inject_at inject_ms interfere zipf seed estimate_window
      threshold metrics faults assert_pcc =
    let lb =
      {
        Inband.Config.default with
        Inband.Config.estimate_window;
        relative_threshold = Float.max 1.0 threshold;
        law;
        remap;
      }
    in
    let config =
      {
        Cluster.Scenario.default_config with
        Cluster.Scenario.n_servers = servers;
        n_clients = clients;
        policy;
        lb;
        key_dist =
          (match zipf with
          | Some s -> Workload.Keyspace.Zipf s
          | None -> Workload.Keyspace.Uniform);
        memtier =
          {
            Workload.Memtier.default_config with
            Workload.Memtier.connections;
            pipeline;
            get_ratio;
          };
        interference =
          (match interfere with
          | Some server ->
              [
                ( server,
                  Stats.Dist.Exponential { mean = 4.0e6 },
                  Stats.Dist.Uniform { lo = 1.0e6; hi = 2.0e6 } );
              ]
          | None -> []);
        seed;
      }
    in
    let s = Cluster.Scenario.build config in
    (match inject_at with
    | Some at ->
        Cluster.Scenario.inject_server_delay s ~server:(servers - 1) ~at
          ~delay:(Des.Time.of_float_s (inject_ms /. 1e3))
    | None -> ());
    let injector =
      Option.map (Cluster.Scenario.install_faults s) (load_faults faults)
    in
    (* Attach the oracle whenever it has something to say: on request,
       or because a non-preserving remap policy will break PCC and the
       count is the point. *)
    let pcc =
      if assert_pcc || remap <> Inband.Remap.Preserve then
        Some (Cluster.Scenario.attach_pcc s)
      else None
    in
    Cluster.Scenario.run s ~until:duration;
    Option.iter print_fault_intervals injector;
    let log = Cluster.Scenario.log s in
    let balancer = Cluster.Scenario.balancer s in
    let hist op = Workload.Latency_log.hist log op in
    let q h p = float_of_int (Stats.Histogram.quantile h p) /. 1e3 in
    let print_op name op =
      let h = hist op in
      if Stats.Histogram.count h > 0 then
        Fmt.pr "%s: n=%d p50=%.1fus p95=%.1fus p99=%.1fus mean=%.1fus@." name
          (Stats.Histogram.count h) (q h 0.5) (q h 0.95) (q h 0.99)
          (Stats.Histogram.mean h /. 1e3)
    in
    Fmt.pr "policy=%a servers=%d duration=%.1fs responses=%d@."
      Inband.Policy.pp policy servers
      (Des.Time.to_float_s duration)
      (Workload.Latency_log.count log);
    print_op "GET" Workload.Latency_log.Get;
    print_op "SET" Workload.Latency_log.Set;
    let registry = Cluster.Scenario.telemetry s in
    Fmt.pr "per-server flows:";
    for i = 0 to servers - 1 do
      Fmt.pr " %.0f"
        (Option.value ~default:0.0
           (Telemetry.Registry.value registry ~index:i "lb.flows_to"))
    done;
    Fmt.pr "@.";
    (match Inband.Balancer.controller balancer with
    | Some c ->
        let w = Inband.Controller.weights c in
        Fmt.pr "controller: %d actions, final weights = [%a]@."
          (Inband.Controller.action_count c)
          Fmt.(array ~sep:(any "; ") (fmt "%.3f"))
          w
    | None -> ());
    if metrics then begin
      Fmt.pr "@.%s@." (Cluster.Report.section "telemetry registry");
      Fmt.pr "%s@." (Cluster.Report.registry registry)
    end;
    match pcc with
    | Some oracle -> report_pcc ~hard:assert_pcc oracle
    | None -> ()
  in
  let duration =
    Arg.(value & opt sec (Des.Time.sec 10) & info [ "duration" ] ~doc:"Seconds.")
  in
  let pol =
    Arg.(
      value
      & opt policy Inband.Policy.Latency_aware
      & info [ "policy" ]
          ~doc:
            "Routing policy — how each new connection picks a backend \
             (static-maglev, latency-aware, round-robin, least-conn, \
             p2c). The feedback controller — and $(b,--law) — only \
             runs under latency-aware.")
  in
  let servers = Arg.(value & opt pos_int 2 & info [ "servers" ] ~doc:"Servers.") in
  let clients = Arg.(value & opt pos_int 1 & info [ "clients" ] ~doc:"Client hosts.") in
  let connections =
    Arg.(value & opt pos_int 4 & info [ "connections" ] ~doc:"Connections per client.")
  in
  let pipeline =
    Arg.(value & opt pos_int 2 & info [ "pipeline" ] ~doc:"Pipelined requests per connection.")
  in
  let get_ratio =
    Arg.(value & opt float 0.5 & info [ "get-ratio" ] ~doc:"Fraction of GETs.")
  in
  let inject_at =
    Arg.(
      value
      & opt (some sec) None
      & info [ "inject-at" ]
          ~doc:"Inject +inject-ms on the last server's path at this time.")
  in
  let inject_ms =
    Arg.(value & opt nonneg_float 1.0 & info [ "inject-ms" ] ~doc:"Injected delay, ms.")
  in
  let interfere =
    Arg.(
      value
      & opt (some int) None
      & info [ "interfere" ]
          ~doc:"Give this server 1-2 ms stalls every ~4 ms (GC-style).")
  in
  let zipf =
    Arg.(value & opt (some float) None & info [ "zipf" ] ~doc:"Zipf key skew exponent.")
  in
  let seed = Arg.(value & opt int 0xfeed & info [ "seed" ] ~doc:"Random seed.") in
  let estimate_window =
    Arg.(
      value & opt nonneg_int 0
      & info [ "estimate-window" ]
          ~doc:"0 = EWMA estimates (paper); w>0 = median of last w samples.")
  in
  let threshold =
    Arg.(
      value & opt float 1.0
      & info [ "threshold" ]
          ~doc:"Act only when worst >= threshold x best estimate.")
  in
  let metrics =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:"Also print every registered telemetry metric as a table.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run a free-form cluster scenario and print a summary.")
    Term.(
      const run $ duration $ pol $ law_arg $ remap_arg $ servers $ clients
      $ connections $ pipeline $ get_ratio $ inject_at $ inject_ms $ interfere
      $ zipf $ seed $ estimate_window $ threshold $ metrics $ faults_arg
      $ assert_pcc_arg)

(* --- churn: multi-fault timeline with per-fault latencies --------------- *)

let churn_cmd =
  let run duration seed remap faults assert_recovery csv metrics_csv =
    let timeline =
      match load_faults faults with
      | Some timeline -> timeline
      | None -> Cluster.Churn.default_timeline
    in
    let base = Cluster.Churn.default_scenario in
    let scenario =
      {
        base with
        Cluster.Scenario.seed;
        lb = { base.Cluster.Scenario.lb with Inband.Config.remap };
      }
    in
    let result = Cluster.Churn.run ~scenario ~duration ~timeline () in
    Cluster.Churn.print result;
    (match csv with
    | Some path ->
        Cluster.Csv.write_file ~path (Cluster.Csv.churn_faults result);
        Fmt.pr "wrote %s@." path
    | None -> ());
    (match metrics_csv with
    | Some path ->
        Cluster.Csv.write_file ~path (Cluster.Csv.churn_metrics result);
        Fmt.pr "wrote %s@." path
    | None -> ());
    if assert_recovery && not (Cluster.Churn.all_recovered result) then begin
      Fmt.epr "churn: controller did not recover from every fault@.";
      exit 1
    end
  in
  let duration =
    Arg.(
      value
      & opt sec (Des.Time.sec 14)
      & info [ "duration" ] ~doc:"Run length, seconds.")
  in
  let seed = Arg.(value & opt int 0xfeed & info [ "seed" ] ~doc:"Random seed.") in
  let assert_recovery =
    Arg.(
      value & flag
      & info [ "assert-recovery" ]
          ~doc:
            "Exit nonzero unless every fault was detected, cleared, and \
             the weights healed back to uniform (CI smoke check).")
  in
  Cmd.v
    (Cmd.info "churn"
       ~doc:
         "Replay a multi-fault timeline against the latency-aware LB and \
          report per-fault detection/recovery latency.")
    Term.(
      const run $ duration $ seed $ remap_arg $ faults_arg
      $ assert_recovery $ csv_arg $ metrics_csv_arg)

(* --- soak: long-horizon churn + adversarial clients -------------------- *)

let soak_cmd =
  let run minutes warmup_s windows seed check lbs coord =
    (* Either fleet flag selects the fleet preset; the run is the same. *)
    let base =
      if lbs = None && coord = None then Cluster.Soak.default_config
      else Cluster.Soak.fleet_config
    in
    let scenario = base.Cluster.Soak.scenario in
    let n_lbs = Option.value lbs ~default:scenario.Cluster.Scenario.n_lbs in
    let duration = Des.Time.sec (minutes * 60) in
    let config =
      {
        base with
        Cluster.Soak.duration;
        warmup = Stdlib.min (Des.Time.sec warmup_s) (duration / 4);
        windows;
        scenario =
          {
            scenario with
            Cluster.Scenario.seed;
            n_lbs;
            n_clients = 2 * n_lbs;
            coord =
              Option.fold ~none:scenario.Cluster.Scenario.coord
                ~some:Cluster.Coordination.for_policy coord;
          };
      }
    in
    print_endline
      (Cluster.Report.section
         (Fmt.str "Soak battery (%.0f simulated minutes)"
            (Des.Time.to_float_s duration /. 60.0)));
    let t0 = Unix.gettimeofday () in
    let result = Cluster.Soak.run ~config () in
    let wall_s = Unix.gettimeofday () -. t0 in
    Cluster.Soak.print ~config result;
    Fmt.pr "wall: %.1fs (%.1fx real time)@." wall_s
      (Des.Time.to_float_s duration /. wall_s);
    if check then
      report_gate ~smoke:"soak-smoke" (Cluster.Soak.gate config result)
  in
  let minutes =
    Arg.(
      value & opt pos_int 30
      & info [ "minutes" ] ~doc:"Simulated soak length, minutes.")
  in
  let warmup =
    Arg.(
      value & opt nonneg_int 60
      & info [ "warmup" ]
          ~doc:
            "Seconds excluded from the flatness and health checks \
             (capped at a quarter of the duration).")
  in
  let windows =
    Arg.(
      value & opt (int_at_least 2) 6
      & info [ "windows" ] ~doc:"Flatness windows over [warmup, duration].")
  in
  let seed = Arg.(value & opt int 0xfeed & info [ "seed" ] ~doc:"Random seed.") in
  let check =
    check_arg
      "Gate the run (soak-smoke): exit 1 unless every watched gauge \
       stayed flat, no flow or connection was stuck after the drain, the \
       latency estimator stayed finite, the PCC oracle saw zero \
       violations and, when the battery has a gap flood, the reassembly \
       cap refused segments."
  in
  let lbs =
    Arg.(
      value
      & opt (some lb_count) None
      & info [ "lbs" ] ~docv:"N"
          ~doc:
            "Soak an $(b,N)-LB fleet instead of the single-LB churn \
             cluster. Each LB gets its own VIP, estimator and controller \
             plus two clients; server-delay pulses force the fleet to \
             re-converge throughout. Implies $(b,--coord) gossip unless \
             given.")
  in
  let coord =
    Arg.(
      value
      & opt (some coord_policy) None
      & info [ "coord" ] ~docv:"POLICY"
          ~doc:
            "Control-plane policy for the fleet soak: $(b,none), \
             $(b,gossip) or $(b,leader). Implies $(b,--lbs) 2 unless \
             given.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Soak the churn cluster for hours of simulated time under \
          repeating faults and adversarial clients (slowloris, pipeline \
          bursts, reconnect storms, segment-gap floods, RST floods), \
          asserting that memory telemetry stays flat and nothing gets \
          stuck. With $(b,--lbs)/$(b,--coord), soak an LB fleet \
          instead.")
    Term.(const run $ minutes $ warmup $ windows $ seed $ check $ lbs $ coord)

(* --- flows: flow-scale churn ------------------------------------------ *)

let flows_cmd =
  let run n seed csv check =
    let r = Cluster.Sharded.flows ~seed ~n () in
    Fmt.pr "flows: n=%d events=%d responses=%d active_peak=%d@." r.n r.events
      r.responses r.active_peak;
    Fmt.pr "  wall=%.2fs  %.0f events/s  words/flow=%.1f  full_major=%.2fs@."
      r.wall_s r.events_per_sec r.words_per_flow r.full_major_s;
    (match csv with
    | None -> ()
    | Some path ->
        Out_channel.with_open_text path (fun oc ->
            Out_channel.output_string oc r.Cluster.Sharded.csv);
        Fmt.pr "wrote %s@." path);
    if check then begin
      let path, baseline = committed Cluster.Sharded.baseline_key in
      if path <> "" then
        Fmt.pr "recorded baseline (%s): %.0f events/s, %.1f words/flow@." path
          (List.assoc Cluster.Sharded.baseline_key baseline)
          (Option.value ~default:Float.infinity
             (List.assoc_opt "flows_baseline_words_per_flow" baseline));
      report_gate ~smoke:"flow-smoke" (Cluster.Sharded.gate ~baseline r)
    end
  in
  let n =
    Arg.(
      value & opt pos_int 65_536
      & info [ "n" ] ~docv:"N" ~doc:"Concurrent flows to run to completion.")
  in
  let seed =
    Arg.(
      value & opt nonneg_int 0
      & info [ "seed" ]
          ~doc:
            "Deterministically perturb the flow-to-client map and flow \
             port space (0 = the historical workload).")
  in
  Cmd.v
    (Cmd.info "flows"
       ~doc:
         "Run the flow-scale churn workload (N concurrent flows, FIN + \
          reincarnation churn, idle-expiry drain) and print a per-client \
          CSV summary.")
    Term.(
      const run $ n $ seed $ csv_arg
      $ check_arg
          "Gate the run (flow-smoke) against the committed \
           $(b,flows_baseline_*) fields: exit 1 if events/s falls below \
           half the baseline or live words/flow exceed 1.5x its budget.")

(* --- estimate: run the estimators over a packet-timestamp trace ------- *)

let estimate_cmd =
  let run path delta_us epoch_ms =
    let timestamps =
      let ic = if path = "-" then stdin else open_in path in
      Fun.protect
        ~finally:(fun () -> if path <> "-" then close_in ic)
        (fun () ->
          let rec read acc =
            match input_line ic with
            | line -> begin
                match int_of_string_opt (String.trim line) with
                | Some t -> read (t :: acc)
                | None -> read acc
              end
            | exception End_of_file -> List.rev acc
          in
          read [])
    in
    match timestamps with
    | [] -> Fmt.epr "no timestamps in %s@." path
    | first :: rest -> begin
        match delta_us with
        | Some d ->
            (* Single FIXEDTIMEOUT instance. *)
            let ft =
              Inband.Fixed_timeout.create ~delta:(Des.Time.us d) ~now:first
            in
            Fmt.pr "t_s,t_lb_us@.";
            List.iter
              (fun now ->
                match Inband.Fixed_timeout.on_packet ft ~now with
                | Some sample ->
                    Fmt.pr "%.6f,%.3f@." (Des.Time.to_float_s now)
                      (Des.Time.to_float_us sample)
                | None -> ())
              rest
        | None ->
            (* Full ENSEMBLETIMEOUT. *)
            let config =
              {
                Inband.Config.default with
                Inband.Config.epoch = Des.Time.ms epoch_ms;
              }
            in
            let e = Inband.Ensemble.create ~config in
            let flow = Inband.Ensemble.create_flow e ~now:first in
            Fmt.pr "t_s,t_lb_us,chosen_delta_us@.";
            List.iter
              (fun now ->
                match Inband.Ensemble.on_packet e flow ~now with
                | Some sample ->
                    Fmt.pr "%.6f,%.3f,%.1f@." (Des.Time.to_float_s now)
                      (Des.Time.to_float_us sample)
                      (Des.Time.to_float_us
                         (Inband.Ensemble.chosen_timeout e flow))
                | None -> ())
              rest
      end
  in
  let path =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:
            "File of packet arrival timestamps in nanoseconds, one per \
             line ('-' for stdin). Non-numeric lines are skipped.")
  in
  let delta_us =
    Arg.(
      value
      & opt (some int) None
      & info [ "delta-us" ]
          ~doc:"Run a single FIXEDTIMEOUT with this timeout instead of \
                the full ensemble.")
  in
  let epoch_ms =
    Arg.(value & opt int 64 & info [ "epoch-ms" ] ~doc:"Ensemble epoch length.")
  in
  Cmd.v
    (Cmd.info "estimate"
       ~doc:
         "Run the in-band latency estimators over a packet-timestamp \
          trace and print the samples as CSV.")
    Term.(const run $ path $ delta_us $ epoch_ms)

(* --- bench: host-time measurements ---------------------------------- *)

(* Fig. 3 workload throughput, best of three runs, against the committed
   baseline rate. *)
let bench_e2e ~check =
  let duration = Des.Time.sec 10 and iterations = 3 in
  print_endline
    (Cluster.Report.section
       (Fmt.str "End-to-end datapath throughput (Fig. 3 workload, %.0fs sim)"
          (Des.Time.to_float_s duration)));
  let best =
    List.fold_left
      (fun best i ->
        let m = Cluster.Fig3.e2e ~duration () in
        Fmt.pr
          "run %d/%d: %d events in %.2fs wall = %.0f events/s (%d responses)@."
          i iterations m.events m.wall_s m.events_per_sec m.responses;
        match best with
        | Some (b : Cluster.Fig3.e2e) when b.events_per_sec >= m.events_per_sec
          ->
            best
        | Some _ | None -> Some m)
      None
      (List.init iterations succ)
    |> Option.get
  in
  Fmt.pr "best: %.0f events/s@." best.events_per_sec;
  let baseline = snd (committed Cluster.Fig3.e2e_baseline_key) in
  (match List.assoc_opt Cluster.Fig3.e2e_baseline_key baseline with
  | Some b when b > 0.0 ->
      Fmt.pr "recorded baseline: %.0f events/s (%.2fx)@." b
        (best.events_per_sec /. b)
  | Some _ | None -> ());
  if check then
    report_gate ~smoke:"perf-smoke" (Cluster.Fig3.e2e_gate ~baseline best)

(* Bechamel microbenchmarks of the per-packet datapath. *)
let micro_tests () =
  let open Bechamel in
  let names n = Array.init n (fun i -> Fmt.str "server-%d" i) in
  let build_table n =
    Test.make
      ~name:(Fmt.str "maglev populate n=%d m=4099" n)
      (Staged.stage (fun () ->
           Maglev.Table.populate ~size:4099
             ~backends:(Array.map (fun s -> (s, 1.0)) (names n))
             ()))
  in
  let pool = Maglev.Pool.create ~names:(names 16) () in
  let lookup =
    let h = ref 17 in
    Test.make ~name:"maglev lookup"
      (Staged.stage (fun () ->
           h := (!h * 1103515245) + 12345;
           Maglev.Pool.lookup pool (!h land max_int)))
  in
  let flow_hash =
    let key =
      Netsim.Flow_key.v
        ~src:(Netsim.Addr.v 100 10001)
        ~dst:(Netsim.Addr.v 1 11211)
    in
    Test.make ~name:"flow_key hash"
      (Staged.stage (fun () -> Netsim.Flow_key.hash key))
  in
  let fixed =
    let ft = Inband.Fixed_timeout.create ~delta:(Des.Time.us 64) ~now:0 in
    let now = ref 0 in
    Test.make ~name:"fixed_timeout per packet"
      (Staged.stage (fun () ->
           now := !now + 10_000;
           Inband.Fixed_timeout.on_packet ft ~now:!now))
  in
  let ensemble =
    let e = Inband.Ensemble.create ~config:Inband.Config.default in
    let f = Inband.Ensemble.create_flow e ~now:0 in
    let now = ref 0 in
    Test.make ~name:"ensemble (k=7) per packet"
      (Staged.stage (fun () ->
           now := !now + 10_000;
           Inband.Ensemble.on_packet e f ~now:!now))
  in
  let controller =
    let pool2 = Maglev.Pool.create ~table_size:4099 ~names:(names 2) () in
    let c =
      Inband.Controller.create
        ~config:
          { Inband.Config.default with Inband.Config.control_interval = 0 }
        ~pool:pool2 ()
    in
    let now = ref 0 in
    Test.make ~name:"controller on_sample (incl rebuild m=4099)"
      (Staged.stage (fun () ->
           now := !now + 1_000_000;
           Inband.Controller.on_sample c ~now:!now
             ~server:(!now / 1_000_000 mod 2)
             (Des.Time.us 200)))
  in
  let histogram =
    let h = Stats.Histogram.create () in
    let v = ref 1 in
    Test.make ~name:"histogram record"
      (Staged.stage (fun () ->
           v := (!v * 7) mod 10_000_000;
           Stats.Histogram.record h !v))
  in
  let engine_step =
    (* Flow-scale queue depth: each fired event posts its successor, so
       one step is one pop plus one push at 840 pending. *)
    let e = Des.Engine.create () in
    let rec f () = Des.Engine.post_after e ~delay:997 f in
    for i = 1 to 840 do
      Des.Engine.post e ~at:i f
    done;
    Test.make ~name:"engine post+step (840 pending)"
      (Staged.stage (fun () -> Des.Engine.step e))
  in
  let timer_rearm =
    let e = Des.Engine.create () in
    let t = Des.Timer.create e ~f:ignore in
    Test.make ~name:"timer re-arm"
      (Staged.stage (fun () -> Des.Timer.arm t ~delay:(Des.Time.ms 200)))
  in
  Test.make_grouped ~name:"micro"
    [
      engine_step;
      timer_rearm;
      build_table 2;
      build_table 16;
      lookup;
      flow_hash;
      fixed;
      ensemble;
      controller;
      histogram;
    ]

let bench_micro ~check:_ =
  let open Bechamel in
  let open Toolkit in
  print_endline (Cluster.Report.section "Microbenchmarks (Bechamel, ns/op)");
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg Instance.[ monotonic_clock ] (micro_tests ()) in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols rows ->
        let est =
          match Analyze.OLS.estimates ols with
          | Some [ e ] -> Fmt.str "%.1f" e
          | Some _ | None -> "-"
        in
        let r2 =
          match Analyze.OLS.r_square ols with
          | Some r -> Fmt.str "%.4f" r
          | None -> "-"
        in
        [ name; est; r2 ] :: rows)
      results []
  in
  print_endline
    (Cluster.Report.table
       ~headers:[ "benchmark"; "ns/op"; "r^2" ]
       (List.sort compare rows))

(* One row per committed BENCH_pr*.json, oldest first, each column read
   from the first key of its list that the file carries; "-" where a
   file predates (or never measured) a metric. *)
let bench_history ~check:_ =
  print_endline
    (Cluster.Report.section "Benchmark history (BENCH_pr*.json, oldest first)");
  match Cluster.Bench_store.files () with
  | [] -> print_endline "no BENCH_pr*.json files found"
  | files ->
      let cell fields keys render =
        match List.find_map (fun k -> List.assoc_opt k fields) keys with
        | Some v -> render v
        | None -> "-"
      in
      let rows =
        List.rev_map
          (fun file ->
            let fields = Cluster.Bench_store.read file in
            [
              file;
              cell fields
                [ "flows_events_per_sec"; "after_events_per_sec" ]
                (Fmt.str "%.0f");
              cell fields [ "flows_live_words_per_flow" ] (Fmt.str "%.1f");
              cell fields [ "soak_p95_us" ] (Fmt.str "%.1f");
              cell fields [ "law_baseline_converged_ms" ] (Fmt.str "%.0f");
            ])
          files
      in
      print_endline
        (Cluster.Report.table
           ~headers:[ "file"; "events/s"; "words/flow"; "p95 us"; "converged ms" ]
           rows)

let bench_cmd =
  let benches =
    [
      ("e2e", (true, bench_e2e));
      ("micro", (false, bench_micro));
      ("history", (false, bench_history));
    ]
  in
  let run which check = run_target which ~check (fun f -> f ~check) in
  Cmd.v
    (Cmd.info "bench"
       ~doc:
         "Host-time measurements: $(b,e2e) (Fig. 3 workload events/s, \
          best of three), $(b,micro) (Bechamel ns/op of the datapath \
          pieces) or $(b,history) (the committed BENCH_pr*.json \
          trajectory, oldest first). Nothing is written: a new baseline \
          is committed as a new BENCH_pr$(i,N).json.")
    Term.(
      ret
        (const run
        $ target_arg benches ~docv:"BENCH"
        $ check_arg
            "Gate $(b,e2e) (perf-smoke): exit 1 if the best events/s falls \
             below half the committed baseline."))

let main_cmd =
  Cmd.group
    (Cmd.info "lbsim" ~version:"1.0.0"
       ~doc:
         "Packet-level simulator for in-band feedback control at load \
          balancers (HotNets '22 reproduction).")
    [
      fig2_cmd;
      fig3_cmd;
      sweep_cmd;
      herd_cmd;
      estimate_cmd;
      run_cmd;
      churn_cmd;
      soak_cmd;
      flows_cmd;
      bench_cmd;
    ]

let () = exit (Cmd.eval main_cmd)
