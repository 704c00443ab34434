(* Out-of-range numeric options must be rejected by the command line
   parser with a usage error (cmdliner's exit 124), never reach the
   simulation and surface as an uncaught exception (exit 125). *)

(* Under [dune runtest] the cwd is the test directory; under
   [dune exec] it is the project root. *)
let lbsim =
  let local = Filename.concat ".." (Filename.concat "bin" "lbsim.exe") in
  if Sys.file_exists local then local
  else Filename.concat "_build/default/bin" "lbsim.exe"

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
    [ "soak"; "--minutes"; "0" ];
    [ "soak"; "--windows"; "0" ];
    [ "soak"; "--windows"; "1" ];
    [ "soak"; "--warmup=-1" ];
    [ "soak"; "--lbs"; "0" ];
    [ "soak"; "--coord"; "bogus" ];
  ]

let () =
  Alcotest.run "cli"
    [
      ( "usage",
        List.map
          (fun args ->
            Alcotest.test_case (String.concat " " args) `Quick
              (usage_error args))
          cases );
    ]
