(* Golden regression: the Fig 2 summary tables must render byte-exactly
   as the checked-in expected files (seed 0x5eed2, the default). Any
   change to the estimator, the TCP model, the DES engine or the report
   renderer that moves a single cell shows up as a diff here. *)

(* Under [dune runtest] the cwd is the test directory and the (deps ...)
   stanza stages the golden files there; under [dune exec] the cwd is the
   project root. Accept either. *)
let read_file name =
  let path =
    if Sys.file_exists name then name else Filename.concat "test" name
  in
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let result = lazy (Cluster.Fig2.run ())

let fig2a () =
  let expected = read_file "golden_fig2a.expected" in
  Alcotest.(check string)
    "fig2a summary table (seed 0x5eed2)" expected
    (Cluster.Fig2.summary_table (Lazy.force result) ^ "\n")

let fig2b () =
  let expected = read_file "golden_fig2b.expected" in
  let rendered =
    String.concat ""
      (List.map
         (fun l -> l ^ "\n")
         (Cluster.Fig2.tracking_lines (Lazy.force result)))
  in
  Alcotest.(check string) "fig2b tracking summary (seed 0x5eed2)" expected
    rendered

(* Fig 3 and the flow-churn workload are pinned across commits by
   checked-in CSVs: a compressed 6 s Fig 3 timeline (injection at 2 s)
   and a 257-flow churn run at two seeds. *)
let fig3_csv ?(explicit = false) ~jobs () =
  let scenario = Cluster.Fig3.default_scenario in
  let scenario =
    if not explicit then scenario
    else
      {
        scenario with
        Cluster.Scenario.lb =
          {
            scenario.Cluster.Scenario.lb with
            Inband.Config.remap =
              (match Inband.Remap.of_string "preserve" with
              | Ok r -> r
              | Error msg -> Alcotest.fail msg);
          };
      }
  in
  Cluster.Csv.fig3_series
    (Cluster.Fig3.run ~scenario ~jobs ~duration:(Des.Time.sec 6)
       ~inject_at:(Des.Time.sec 2) ())

let fig3_golden () =
  Alcotest.(check string)
    "fig3 CSV (6 s, default scenario)"
    (read_file "golden_fig3.expected")
    (fig3_csv ~jobs:1 ())

(* The remap layer must be invisible under its default: an explicit
   [--remap preserve] Fig 3 CSV is byte-identical to the golden default
   at any --jobs, and so is the default at --jobs 2. (Fig 2 exercises
   no balancer, so the fig2a/fig2b goldens above already pin its tables
   against the remap plumbing by construction.) *)
let fig3_remap_preserve () =
  let expected = read_file "golden_fig3.expected" in
  List.iter
    (fun (explicit, jobs) ->
      Alcotest.(check string)
        (Fmt.str "fig3 CSV (%s, jobs=%d)"
           (if explicit then "explicit preserve" else "default")
           jobs)
        expected
        (fig3_csv ~explicit ~jobs ()))
    [ (true, 1); (true, 2); (false, 2) ]

let flows_golden seed () =
  Alcotest.(check string)
    (Fmt.str "flows CSV (n=257, seed=%d)" seed)
    (read_file (Fmt.str "golden_flows_seed%d.expected" seed))
    (Cluster.Sharded.flows ~seed ~n:257 ()).Cluster.Sharded.csv

(* The LB fleet (A7 coordination, A8 control laws) is pinned by a short
   coordination sweep and a short law sweep: 1 and 2 LBs, 3 s runs,
   the server delay injected at 1.5 s. The law sweep leaves out
   shift-worst, whose uncoordinated rows are the coordination table's
   [none] rows. *)
let herd_tables () =
  let lb_counts = [ 1; 2 ]
  and duration = Des.Time.sec 3
  and inject_at = Des.Time.of_float_s 1.5 in
  Cluster.Multi_lb.coord_table
    (Cluster.Multi_lb.coord_sweep ~lb_counts ~duration ~inject_at ())
  ^ "\n"
  ^ Cluster.Multi_lb.law_table
      (Cluster.Multi_lb.law_sweep
         ~laws:Inband.Control_law.[ Knapsack; Gradient ]
         ~lb_counts ~duration ~inject_at ())
  ^ "\n"

let herd_golden () =
  Alcotest.(check string)
    "coord and law tables (LBs 1,2; 3 s; injected at 1.5 s)"
    (read_file "golden_herd.expected")
    (herd_tables ())

let () =
  Alcotest.run "golden"
    [
      ( "fig2",
        [
          Alcotest.test_case "fig2a table" `Slow fig2a;
          Alcotest.test_case "fig2b tracking" `Slow fig2b;
        ] );
      ( "fig3",
        [
          Alcotest.test_case "golden CSV" `Slow fig3_golden;
          Alcotest.test_case "remap-preserve CSV byte-identity" `Slow
            fig3_remap_preserve;
        ] );
      ("herd", [ Alcotest.test_case "golden tables" `Slow herd_golden ]);
      ( "flows",
        [
          Alcotest.test_case "golden CSV seed 0" `Quick (flows_golden 0);
          Alcotest.test_case "golden CSV seed 3" `Quick (flows_golden 3);
        ] );
    ]
