(* Out-of-range numeric options and unknown targets must be rejected by
   the command line parser with a usage error (cmdliner's exit 124),
   never reach the simulation and surface as an uncaught exception
   (exit 125) or a silent exit 0. The binary's own Fig 3 output is
   pinned to the golden CSV. *)

(* Under [dune runtest] the cwd is the test directory; under
   [dune exec] it is the project root. *)
let lbsim =
  let local = Filename.concat ".." (Filename.concat "bin" "lbsim.exe") in
  if Sys.file_exists local then local
  else Filename.concat "_build/default/bin" "lbsim.exe"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let exit_code args =
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process lbsim
      (Array.of_list (lbsim :: args))
      Unix.stdin null null
  in
  Unix.close null;
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> 1000 + s

let usage_error args () =
  Alcotest.(check int)
    (String.concat " " args ^ " exits with a usage error")
    124 (exit_code args)

let cases =
  [
    [ "flows"; "-n"; "0" ];
    [ "flows"; "--seed=-1" ];
    [ "herd"; "--lbs"; "0" ];
    [ "herd"; "--lbs"; "2,0" ];
    [ "herd"; "--lbs"; "10" ];
    [ "fig3"; "--jobs=-1" ];
    [ "fig3"; "--servers"; "0" ];
    [ "run"; "--servers"; "0" ];
    [ "run"; "--connections"; "0" ];
    [ "sweep"; "alpha"; "-j"; "-2" ];
    [ "sweep"; "bogus" ];
    [ "sweep"; "alpha"; "--check" ];
    [ "herd"; "--coord"; "bogus" ];
    [ "fig3"; "--alpha"; "0" ];
    [ "fig3"; "--alpha"; "1" ];
    [ "fig3"; "--inject-ms=-1" ];
    [ "run"; "--clients"; "0" ];
    [ "run"; "--estimate-window=-1" ];
    [ "bench"; "bogus" ];
    [ "bench"; "micro"; "--check" ];
    [ "soak"; "--minutes"; "0" ];
    [ "soak"; "--windows"; "0" ];
    [ "soak"; "--windows"; "1" ];
    [ "soak"; "--warmup=-1" ];
    [ "soak"; "--lbs"; "0" ];
    [ "soak"; "--coord"; "bogus" ];
  ]

(* [lbsim fig3] starts from [Cluster.Fig3.default_scenario], so its CSV
   for the compressed 6 s timeline is the golden one. *)
let fig3_golden () =
  let golden =
    let name = "golden_fig3.expected" in
    if Sys.file_exists name then name else Filename.concat "test" name
  in
  let csv = Filename.temp_file "lbsim_fig3" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove csv)
    (fun () ->
      Alcotest.(check int)
        "exit" 0
        (exit_code [ "fig3"; "--duration"; "6"; "--inject-at"; "2"; "--csv"; csv ]);
      Alcotest.(check string)
        "lbsim fig3 CSV equals the golden" (read_file golden) (read_file csv))

(* "all" is a value of the same --coord conv, not a special case. *)
let herd_coord_all () =
  Alcotest.(check int)
    "herd --coord all exits 0" 0
    (exit_code
       [ "herd"; "--coord"; "all"; "--lbs"; "1"; "--duration"; "0.3"; "--inject-at"; "0.1" ])

let () =
  Alcotest.run "cli"
    [
      ( "output",
        [
          Alcotest.test_case "fig3 golden CSV" `Slow fig3_golden;
          Alcotest.test_case "herd --coord all" `Quick herd_coord_all;
        ] );
      ( "usage",
        List.map
          (fun args ->
            Alcotest.test_case (String.concat " " args) `Quick
              (usage_error args))
          cases );
    ]
