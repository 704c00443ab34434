(* The herd experiment's fleet: the Fig. 3 testbed with four clients,
   one connection each, spread over the LBs. *)
let fleet =
  {
    Scenario.default_config with
    Scenario.n_lbs = 2;
    n_clients = 4;
    policy = Inband.Policy.Latency_aware;
    (* Stabilised controller so the single-LB baseline converges and the
       sweep isolates the fleet effect. *)
    lb =
      {
        Inband.Config.default with
        Inband.Config.relative_threshold = 1.5;
        ewma_alpha = 0.05;
        control_interval = Des.Time.ms 5;
        recovery_rate = 0.02;
      };
    table_size = 1021;
    memtier =
      { Workload.Memtier.default_config with Workload.Memtier.connections = 1 };
    key_count = 5_000;
    seed = 0x2b1b;
  }

type row = {
  n_lbs : int;
  coord : Coordination.policy;
  law : Inband.Control_law.kind;
  p95_before_us : float;
  p95_after_us : float;
  total_actions : int;
  per_lb_actions : int list;
  victim_flips : int;
  victim_weight_mean : float;
  converged_ms : float;
  msgs : int;
  suppressed : int;
  imposed : int;
  pcc_checked : int;
  pcc_violations : int;
}

let victim = 1

let median_float values =
  match List.sort Float.compare values with
  | [] -> nan
  | sorted -> List.nth sorted (List.length sorted / 2)

(* Mean of the victim's weight across the fleet, read live. *)
let victim_weight_mean_of balancers =
  let sum = ref 0.0 and n = ref 0 in
  Array.iter
    (fun balancer ->
      match Inband.Balancer.controller balancer with
      | Some c ->
          sum := !sum +. (Inband.Controller.weights c).(victim);
          incr n
      | None -> ())
    balancers;
  if !n = 0 then nan else !sum /. float_of_int !n

let herd_one ?(coord = Coordination.default_config) ?(pcc = true)
    ?(law = Inband.Control_law.Shift_worst)
    ?(remap = Inband.Remap.Preserve) ~n_lbs ~duration ~inject_at () =
  let config =
    {
      fleet with
      Scenario.n_lbs;
      coord;
      lb = { fleet.Scenario.lb with Inband.Config.law; remap };
    }
  in
  let t = Scenario.build config in
  let balancers = Scenario.balancers t in
  let oracles = if pcc then Scenario.attach_pcc_fleet t else [||] in
  Scenario.inject_server_delay t ~server:victim ~at:inject_at
    ~delay:(Des.Time.ms 1);
  (* Convergence probe: the first instant at which the fleet-mean victim
     weight has fallen to <= 0.1 — how long the whole fleet takes to
     concentrate traffic away from the victim (sampled every 50 ms).
     Coordination trades churn against this: gossip is fleet-epoch
     limited, leader mode waits on snapshot propagation. *)
  let converged_at = ref None in
  let engine = Scenario.engine t in
  ignore
    (Des.Timer.every engine ~period:(Des.Time.ms 50) (fun () ->
         if !converged_at = None then
           if victim_weight_mean_of balancers <= 0.1 then
             converged_at := Some (Des.Engine.now engine)));
  Scenario.run t ~until:duration;
  let rows =
    Workload.Latency_log.series (Scenario.log t) ~op:Workload.Latency_log.Get
      ~q:0.95
  in
  let p95_in lo hi =
    rows
    |> List.filter_map (fun r ->
           let at = r.Stats.Timeseries.t_start in
           if at >= lo && at < hi then
             Some (float_of_int r.Stats.Timeseries.quantile /. 1e3)
           else None)
    |> median_float
  in
  let per_lb_actions =
    Array.to_list
      (Array.map
         (fun balancer ->
           match Inband.Balancer.controller balancer with
           | Some c -> Inband.Controller.action_count c
           | None -> 0)
         balancers)
  in
  let flips, weights =
    Array.fold_left
      (fun (flips, weights) balancer ->
        match Inband.Balancer.controller balancer with
        | None -> (flips, weights)
        | Some c ->
            let acts = Inband.Controller.actions c in
            let flip_count =
              let rec count prev acc = function
                | [] -> acc
                | a :: rest ->
                    let v = a.Inband.Controller.victim in
                    let acc =
                      match prev with
                      | Some p when p <> v -> acc + 1
                      | Some _ | None -> acc
                    in
                    count (Some v) acc rest
              in
              count None 0 acts
            in
            ( flips + flip_count,
              (Inband.Controller.weights c).(victim) :: weights ))
      (0, []) balancers
  in
  let plane f =
    match Scenario.coordination t with Some c -> f c | None -> 0
  in
  let sum_oracles f = Array.fold_left (fun acc o -> acc + f o) 0 oracles in
  {
    n_lbs;
    coord = coord.Coordination.policy;
    law;
    p95_before_us = p95_in (Des.Time.sec 1) inject_at;
    p95_after_us = p95_in (inject_at + Des.Time.sec 1) duration;
    total_actions = List.fold_left ( + ) 0 per_lb_actions;
    per_lb_actions;
    victim_flips = flips;
    victim_weight_mean =
      (match weights with
      | [] -> nan
      | ws -> List.fold_left ( +. ) 0.0 ws /. float_of_int (List.length ws));
    converged_ms =
      (match !converged_at with
      | Some at -> Des.Time.to_float_s at *. 1e3
      | None -> nan);
    msgs = plane Coordination.messages_sent;
    suppressed = plane Coordination.suppressed;
    imposed = plane Coordination.imposed;
    pcc_checked = sum_oracles Oracle.checked;
    pcc_violations = sum_oracles Oracle.violation_count;
  }

let coord_sweep ?jobs ?law ?remap
    ?(policies =
      Coordination.[ Uncoordinated; Gossip_average; Leader ])
    ?(lb_counts = [ 1; 2; 4 ]) ?(duration = Des.Time.sec 12)
    ?(inject_at = Des.Time.sec 4) () =
  let cases =
    List.concat_map
      (fun policy -> List.map (fun n_lbs -> (policy, n_lbs)) lb_counts)
      policies
  in
  Parallel.map ?jobs
    (fun (policy, n_lbs) ->
      herd_one ~coord:(Coordination.for_policy policy) ?law ?remap ~n_lbs ~duration
        ~inject_at ())
    cases

(* The control-law ablation (A8): every law at every fleet size,
   uncoordinated — the paper's shift-worst as baseline — plus the
   gradient law under gossip, the composition arXiv 2504.10693 suggests
   (each LB descends on the merged fleet estimates; fleet-epoch
   hysteresis bounds churn). *)
let law_sweep ?jobs ?(laws = Inband.Control_law.all) ?(lb_counts = [ 1; 2; 4 ])
    ?(duration = Des.Time.sec 12) ?(inject_at = Des.Time.sec 4) () =
  let cases =
    List.concat_map
      (fun law ->
        List.map (fun n_lbs -> (law, Coordination.Uncoordinated, n_lbs)) lb_counts)
      laws
    @ (if List.mem Inband.Control_law.Gradient laws then
         List.map
           (fun n_lbs ->
             (Inband.Control_law.Gradient, Coordination.Gossip_average, n_lbs))
           lb_counts
       else [])
  in
  Parallel.map ?jobs
    (fun (law, policy, n_lbs) ->
      herd_one ~coord:(Coordination.for_policy policy) ~law ~n_lbs ~duration ~inject_at
        ())
    cases

let cell_ms v = if Float.is_nan v then "-" else Fmt.str "%.0fms" v

let coord_table rows =
  Report.table
    ~headers:
      [
        "coord";
        "LBs";
        "p95 pre";
        "p95 post";
        "actions";
        "per-LB";
        "flips";
        "victim w";
        "converged";
        "msgs";
        "suppr";
        "imposed";
        "pcc";
      ]
    (List.map
       (fun r ->
         [
           Coordination.policy_to_string r.coord;
           string_of_int r.n_lbs;
           Fmt.str "%.1fus" r.p95_before_us;
           Fmt.str "%.1fus" r.p95_after_us;
           string_of_int r.total_actions;
           String.concat "+" (List.map string_of_int r.per_lb_actions);
           string_of_int r.victim_flips;
           Fmt.str "%.3f" r.victim_weight_mean;
           cell_ms r.converged_ms;
           string_of_int r.msgs;
           string_of_int r.suppressed;
           string_of_int r.imposed;
           (if r.pcc_checked = 0 then "-"
            else if r.pcc_violations = 0 then "ok"
            else Fmt.str "%d VIOLATIONS" r.pcc_violations);
         ])
       rows)

let law_table rows =
  Report.table
    ~headers:
      [
        "law";
        "coord";
        "LBs";
        "p95 pre";
        "p95 post";
        "actions";
        "per-LB";
        "flips";
        "victim w";
        "converged";
        "pcc";
      ]
    (List.map
       (fun r ->
         [
           Inband.Control_law.to_string r.law;
           Coordination.policy_to_string r.coord;
           string_of_int r.n_lbs;
           Fmt.str "%.1fus" r.p95_before_us;
           Fmt.str "%.1fus" r.p95_after_us;
           string_of_int r.total_actions;
           String.concat "+" (List.map string_of_int r.per_lb_actions);
           string_of_int r.victim_flips;
           Fmt.str "%.3f" r.victim_weight_mean;
           cell_ms r.converged_ms;
           (if r.pcc_checked = 0 then "-"
            else if r.pcc_violations = 0 then "ok"
            else Fmt.str "%d VIOLATIONS" r.pcc_violations);
         ])
       rows)

let print_coord rows =
  print_endline
    (Report.section
       "Ablation A7 (extended): LB fleet coordination — uncoordinated vs \
        gossip vs leader");
  print_endline (coord_table rows)

let print_laws rows =
  print_endline
    (Report.section
       "Ablation A8: control-law zoo — shift-worst (paper) vs knapsack vs \
        gradient, across fleet sizes");
  print_endline (law_table rows)

(* --- Gates ---------------------------------------------------------------- *)

let total_violations rows =
  List.fold_left (fun acc r -> acc + r.pcc_violations) 0 rows

let coord_gate rows : Bench_store.gate =
  let violations = total_violations rows in
  if violations > 0 then Error ("pcc", Fmt.str "%d violations" violations)
  else
    let max_lbs = List.fold_left (fun m r -> Stdlib.max m r.n_lbs) 0 rows in
    let actions_at policy =
      List.find_map
        (fun r ->
          if r.coord = policy && r.n_lbs = max_lbs then Some r.total_actions
          else None)
        rows
    in
    match actions_at Coordination.Uncoordinated with
    | None -> Ok "pcc clean"
    | Some base -> (
        let churn policy =
          match actions_at policy with
          | Some a when 2 * a > base ->
              Some
                (Fmt.str
                   "%s at %d LBs took %d actions, more than half the \
                    uncoordinated %d"
                   (Coordination.policy_to_string policy)
                   max_lbs a base)
          | Some _ | None -> None
        in
        match List.find_map churn Coordination.[ Gossip_average; Leader ] with
        | Some msg -> Error ("churn", msg)
        | None ->
            Ok (Fmt.str "pcc clean; >=2x churn reduction at %d LBs" max_lbs))

let law_baseline_key = "law_baseline_converged_ms"

let law_gate ~baseline rows : Bench_store.gate =
  let ( let* ) = Result.bind in
  let* recorded = Bench_store.recorded ~key:law_baseline_key baseline in
  let find law coord n_lbs =
    List.find_opt
      (fun r -> r.law = law && r.coord = coord && r.n_lbs = n_lbs)
      rows
  in
  let measured =
    match find Inband.Control_law.Shift_worst Coordination.Uncoordinated 1 with
    | Some r -> r.converged_ms
    | None -> nan
  in
  let violations = total_violations rows in
  let* () =
    if violations > 0 then Error ("pcc", Fmt.str "%d violations" violations)
    else Ok ()
  in
  let* () =
    if Float.is_nan measured then
      Error
        ("convergence", "the baseline law (shift-worst, 1 LB) never converged")
    else if recorded > 0.0 && measured > 1.25 *. recorded then
      Error
        ( "convergence",
          Fmt.str
            "shift-worst at 1 LB converged in %.0fms, slower than 1.25x the \
             recorded %.0fms"
            measured recorded )
    else Ok ()
  in
  let fleet_tripwire n_lbs =
    match
      ( find Inband.Control_law.Shift_worst Coordination.Uncoordinated n_lbs,
        find Inband.Control_law.Gradient Coordination.Uncoordinated n_lbs,
        find Inband.Control_law.Gradient Coordination.Gossip_average n_lbs )
    with
    | Some base, Some grad, _ when grad.p95_after_us > 1.10 *. base.p95_after_us
      ->
        Some
          ( "p95",
            Fmt.str
              "gradient post-injection p95 at %d LBs is %.1fus, above 1.1x \
               shift-worst's %.1fus"
              n_lbs grad.p95_after_us base.p95_after_us )
    | Some _, Some grad, Some g
      when n_lbs > 1 && g.total_actions >= grad.total_actions ->
        Some
          ( "churn",
            Fmt.str
              "gradient+gossip at %d LBs took %d actions, no fewer than \
               uncoordinated gradient's %d"
              n_lbs g.total_actions grad.total_actions )
    | _ -> None
  in
  let lb_counts = List.sort_uniq compare (List.map (fun r -> r.n_lbs) rows) in
  match List.find_map fleet_tripwire lb_counts with
  | Some tripwire -> Error tripwire
  | None ->
      Ok
        (Fmt.str
           "pcc clean; baseline converged in %.0fms; gradient p95 within \
            1.1x; gossip cuts gradient churn"
           measured)
