(* Bench_store: BENCH_pr*.json parsing and — the regression that
   motivated this file — baseline discovery order: the newest file is the
   highest PR *number*, not the lexicographically greatest name
   (BENCH_pr10 must beat BENCH_pr4). Then every CI gate, driven with
   synthetic rows: each tripwire fires on its failing row, and a passing
   row stays [Ok]. *)

let check_bool = Alcotest.(check bool)

let tmp_dir =
  lazy
    (let dir =
       Filename.concat
         (Filename.get_temp_dir_name ())
         (Fmt.str "bench_store_test.%d" (Unix.getpid ()))
     in
     (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
     dir)

let write_raw dir name contents =
  let oc = open_out (Filename.concat dir name) in
  output_string oc contents;
  close_out oc

let populate () =
  let dir = Lazy.force tmp_dir in
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir);
  write_raw dir "BENCH_pr3.json" "{\n  \"bench\": \"a\",\n  \"alpha\": 1.000\n}\n";
  write_raw dir "BENCH_pr4.json" "{\n  \"bench\": \"b\",\n  \"beta\": 2.000\n}\n";
  write_raw dir "BENCH_pr10.json"
    "{\n  \"bench\": \"c\",\n  \"alpha\": 3.000,\n  \"gamma\": 4.000\n}\n";
  (* Files that must be ignored: no number, wrong suffix. *)
  write_raw dir "BENCH_prX.json" "{\n  \"alpha\": 9.0\n}\n";
  write_raw dir "BENCH_pr5.txt" "{\n  \"alpha\": 9.0\n}\n";
  dir

let newest_first () =
  let dir = populate () in
  Alcotest.(check (list string))
    "numeric order, not lexicographic"
    [ "BENCH_pr10.json"; "BENCH_pr4.json"; "BENCH_pr3.json" ]
    (Cluster.Bench_store.files ~dir ())

let locate_by_key () =
  let dir = populate () in
  let locate key = Cluster.Bench_store.locate_opt ~dir ~key () in
  (* "alpha" lives in pr3 and pr10: the newest-numbered file wins, so a
     gate compares against the latest committed baseline instead of
     resurrecting an old one. *)
  Alcotest.(check (option string))
    "newest file carrying the key"
    (Some (Filename.concat dir "BENCH_pr10.json"))
    (locate "alpha");
  Alcotest.(check (option string))
    "key only in an older file"
    (Some (Filename.concat dir "BENCH_pr4.json"))
    (locate "beta");
  check_bool "locate_opt reports discovery failure" true
    (locate "missing" = None)

let roundtrip () =
  let dir = Lazy.force tmp_dir in
  write_raw dir "BENCH_pr7.json"
    "{\n\
    \  \"bench\": \"roundtrip\",\n\
    \  \"x\": 1.500,\n\
    \  \"y\": -2.250,\n\
    \  \"z\": 1234567.891\n\
     }\n";
  let got = Cluster.Bench_store.read (Filename.concat dir "BENCH_pr7.json") in
  List.iter
    (fun (k, v) ->
      match List.assoc_opt k got with
      | Some v' -> Alcotest.(check (float 1e-3)) (Fmt.str "field %s" k) v v'
      | None -> Alcotest.failf "field %s lost in parsing" k)
    [ ("x", 1.5); ("y", -2.25); ("z", 1234567.891) ];
  check_bool "string fields are skipped" true
    (List.assoc_opt "bench" got = None)

let unreadable () =
  Alcotest.(check (list (pair string (float 0.0))))
    "missing file reads as empty" []
    (Cluster.Bench_store.read "/nonexistent/BENCH_pr1.json");
  Alcotest.(check (list string))
    "missing dir lists as empty" []
    (Cluster.Bench_store.files ~dir:"/nonexistent" ())

(* --- gates --------------------------------------------------------------- *)

let fires tripwire (verdict : Cluster.Bench_store.gate) () =
  match verdict with
  | Error (t, _) -> Alcotest.(check string) "tripwire" tripwire t
  | Ok summary ->
      Alcotest.failf "expected tripwire %s, the gate passed (%s)" tripwire
        summary

let passes (verdict : Cluster.Bench_store.gate) () =
  match verdict with
  | Ok _ -> ()
  | Error (t, msg) -> Alcotest.failf "tripwire %s fired: %s" t msg

let case name f = Alcotest.test_case name `Quick f

(* Herd rows: only the fields the gates read vary. *)
let herd ?(coord = Cluster.Coordination.Uncoordinated)
    ?(law = Inband.Control_law.Shift_worst) ?(actions = 10) ?(p95 = 100.0)
    ?(converged = 500.0) ?(violations = 0) n_lbs =
  {
    Cluster.Multi_lb.n_lbs;
    coord;
    law;
    p95_before_us = 50.0;
    p95_after_us = p95;
    total_actions = actions;
    per_lb_actions = [ actions ];
    victim_flips = 0;
    victim_weight_mean = 0.05;
    converged_ms = converged;
    msgs = 0;
    suppressed = 0;
    imposed = 0;
    pcc_checked = 1000;
    pcc_violations = violations;
  }

let coord_rows ?(gossip = 40) ?(violations = 0) () =
  Cluster.Coordination.
    [
      herd ~actions:5 1;
      herd ~actions:100 ~violations 4;
      herd ~coord:Gossip_average ~actions:gossip 4;
      herd ~coord:Leader ~actions:50 4;
    ]

let coord_gate = Cluster.Multi_lb.coord_gate

let coord_ok () =
  Alcotest.(check (result string (pair string string)))
    "summary" (Ok "pcc clean; >=2x churn reduction at 4 LBs")
    (coord_gate (coord_rows ()))

let law_rows ?(sw1 = 500.0) ?(grad_p95 = 105.0) ?(gossip_actions = 20)
    ?(violations = 0) () =
  let open Inband.Control_law in
  List.concat_map
    (fun n ->
      [
        herd ~converged:(if n = 1 then sw1 else 600.0) n;
        herd ~law:Gradient ~p95:grad_p95 ~actions:30 ~violations n;
        herd ~law:Gradient ~coord:Cluster.Coordination.Gossip_average
          ~actions:gossip_actions n;
      ])
    [ 1; 2 ]

let law_baseline = [ (Cluster.Multi_lb.law_baseline_key, 500.0) ]
let law_gate ?(baseline = law_baseline) rows =
  Cluster.Multi_lb.law_gate ~baseline rows

(* Frontier cells: preserve / ttl / immediate at light and heavy. *)
let remap spec =
  match Inband.Remap.of_string spec with
  | Ok r -> r
  | Error msg -> failwith msg

let cell ?(violations = 0) ?(rate = 0.0) ?(recovery = Some 1000.0)
    ?(post_p95 = 1000.0) spec intensity =
  {
    Cluster.Frontier.remap = remap spec;
    intensity;
    slow_factor = 8.0;
    checked = 100_000;
    violations;
    violation_rate = rate;
    in_fault = violations;
    remapped = 0;
    actions = 10;
    responses = 10_000;
    pre_p95_us = 200.0;
    post_p95_us = post_p95;
    post_p99_us = post_p95;
    recovery_ms = recovery;
  }

let frontier ?(light_violations = 0) ?(ttl_rate = 3e-5) ?(ttl_recovery = Some 350.0)
    ?(imm_p95 = 500.0) ?(drop_ttl = false) () =
  let heavy =
    [
      cell ~recovery:(Some 4000.0) ~post_p95:1200.0 "preserve" "heavy";
      cell ~violations:3 ~rate:ttl_rate ~recovery:ttl_recovery "ttl:300us"
        "heavy";
      cell ~violations:9 ~rate:9e-5 ~recovery:(Some 100.0) ~post_p95:imm_p95
        "immediate" "heavy";
    ]
  in
  {
    Cluster.Frontier.duration = Des.Time.sec 10;
    fault_at = Des.Time.sec 2;
    fault_dur = Des.Time.sec 4;
    cells =
      cell ~violations:light_violations "preserve" "light"
      :: List.filter
           (fun (c : Cluster.Frontier.cell) ->
             not (drop_ttl && Inband.Remap.to_string c.remap = "ttl:300us"))
           heavy;
  }

let frontier_gate = Cluster.Frontier.gate

(* A clean soak result; the gate reads the verdicts, the census, the
   estimator flag, PCC and the reassembly-cap drops. *)
let soak ?(flat = true) ?(stuck_flows = 0) ?(estimator_ok = true)
    ?(pcc_violations = 0) ?(reasm_drops = 12) () =
  {
    Cluster.Soak.duration = Des.Time.sec 180;
    sim_minutes = 3.0;
    verdicts =
      [
        {
          Cluster.Soak.metric = "soak.live_words";
          means = [| 1.0; 2.0 |];
          growth = (if flat then 0.0 else 1.0);
          monotonic = not flat;
          bound = None;
          flat;
        };
      ];
    stuck_flows;
    stuck_conns = 0;
    stuck_states = [];
    estimator_ok;
    pcc_checked = 1000;
    pcc_violations;
    n_lbs = 1;
    coord = Cluster.Coordination.Uncoordinated;
    msgs = 0;
    suppressed = 0;
    imposed = 0;
    stale = 0;
    reasm_drops;
    send_drops = 0;
    fault_intervals = 9;
    pathology_conns = 13;
    gap_segments = 100;
    rsts_sent = 10;
    responses = 50_000;
    p95_us = 300.0;
    events_fired = 1_000_000;
    rows = [];
  }

let soak_gate ?(config = Cluster.Soak.default_config) r =
  Cluster.Soak.gate config r

(* Flow-churn results; the gate reads events/s and live words/flow. *)
let flows ?(events_per_sec = 6e5) ?(words_per_flow = 12.0) () =
  {
    Cluster.Sharded.n = 65_536;
    events = 1_000_000;
    responses = 500_000;
    active_peak = 65_536;
    wall_s = 1.0;
    events_per_sec;
    words_per_flow;
    full_major_s = 0.1;
    major_collections = 3;
    major_words = 1e6;
    csv = "";
  }

let flows_baseline =
  [ (Cluster.Sharded.baseline_key, 1e6); ("flows_baseline_words_per_flow", 10.0) ]

let flows_gate ?(baseline = flows_baseline) r = Cluster.Sharded.gate ~baseline r

let e2e events_per_sec =
  { Cluster.Fig3.events_per_sec; wall_s = 1.0; events = 1; responses = 1 }

let e2e_gate ?(baseline = [ (Cluster.Fig3.e2e_baseline_key, 1e6) ]) m =
  Cluster.Fig3.e2e_gate ~baseline m

let () =
  Alcotest.run "bench_store"
    [
      ( "baseline-discovery",
        [
          Alcotest.test_case "newest first" `Quick newest_first;
          Alcotest.test_case "locate by key" `Quick locate_by_key;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick roundtrip;
          Alcotest.test_case "unreadable" `Quick unreadable;
        ] );
      ( "coord-gate",
        [
          case "passes" coord_ok;
          case "pcc" (fires "pcc" (coord_gate (coord_rows ~violations:1 ())));
          case "churn" (fires "churn" (coord_gate (coord_rows ~gossip:60 ())));
          case "no uncoordinated baseline"
            (passes
               (coord_gate
                  [ herd ~coord:Cluster.Coordination.Gossip_average 2 ]));
        ] );
      ( "law-gate",
        [
          case "passes" (passes (law_gate (law_rows ())));
          case "baseline-discovery"
            (fires "baseline-discovery" (law_gate ~baseline:[] (law_rows ())));
          case "pcc" (fires "pcc" (law_gate (law_rows ~violations:1 ())));
          case "convergence never"
            (fires "convergence" (law_gate (law_rows ~sw1:nan ())));
          case "convergence slow"
            (fires "convergence" (law_gate (law_rows ~sw1:700.0 ())));
          case "p95" (fires "p95" (law_gate (law_rows ~grad_p95:120.0 ())));
          case "churn" (fires "churn" (law_gate (law_rows ~gossip_actions:30 ())));
        ] );
      ( "frontier-gate",
        [
          case "passes" (passes (frontier_gate (frontier ())));
          case "grid" (fires "grid" (frontier_gate (frontier ~drop_ttl:true ())));
          case "preserve-pcc"
            (fires "preserve-pcc"
               (frontier_gate (frontier ~light_violations:1 ())));
          case "rate-monotone"
            (fires "rate-monotone" (frontier_gate (frontier ~ttl_rate:1e-4 ())));
          case "recovery-monotone"
            (fires "recovery-monotone"
               (frontier_gate (frontier ~ttl_recovery:None ())));
          case "recovery-p95"
            (fires "recovery-p95" (frontier_gate (frontier ~imm_p95:1200.0 ())));
        ] );
      ( "soak-gate",
        [
          case "passes" (passes (soak_gate (soak ())));
          case "flatness" (fires "flatness" (soak_gate (soak ~flat:false ())));
          case "stuck-flows"
            (fires "stuck-flows" (soak_gate (soak ~stuck_flows:1 ())));
          case "estimator"
            (fires "estimator" (soak_gate (soak ~estimator_ok:false ())));
          case "pcc" (fires "pcc" (soak_gate (soak ~pcc_violations:1 ())));
          case "reasm-cap"
            (fires "reasm-cap" (soak_gate (soak ~reasm_drops:0 ())));
          case "fleet preset has no reasm-cap"
            (passes
               (soak_gate ~config:Cluster.Soak.fleet_config
                  (soak ~reasm_drops:0 ())));
        ] );
      ( "flows-gate",
        [
          case "passes" (passes (flows_gate (flows ())));
          case "rate" (fires "rate" (flows_gate (flows ~events_per_sec:4e5 ())));
          case "words" (fires "words" (flows_gate (flows ~words_per_flow:16.0 ())));
          case "baseline-discovery"
            (fires "baseline-discovery" (flows_gate ~baseline:[] (flows ())));
        ] );
      ( "e2e-gate",
        [
          case "passes" (passes (e2e_gate (e2e 6e5)));
          case "rate" (fires "rate" (e2e_gate (e2e 4e5)));
          case "baseline-discovery"
            (fires "baseline-discovery" (e2e_gate ~baseline:[] (e2e 6e5)));
        ] );
    ]
