(* BENCH_pr*.json files are flat one-line-per-field JSON objects parsed
   here, so nothing needs a JSON dependency. Each gate finds its own
   baseline in the newest BENCH_pr*.json that carries its keys, so a new
   baseline lands as a new file without editing the gates. *)

let read path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let fields = ref [] in
          (try
             while true do
               let line = String.trim (input_line ic) in
               match String.index_opt line ':' with
               | Some i when String.length line > 1 && line.[0] = '"' -> begin
                   let key = String.sub line 1 (i - 2) in
                   let v =
                     String.trim
                       (String.sub line (i + 1) (String.length line - i - 1))
                   in
                   let v =
                     if String.length v > 0 && v.[String.length v - 1] = ','
                     then String.sub v 0 (String.length v - 1)
                     else v
                   in
                   match float_of_string_opt v with
                   | Some f -> fields := (key, f) :: !fields
                   | None -> ()
                 end
               | Some _ | None -> ()
             done
           with End_of_file -> ());
          !fields)

let in_dir dir f = if dir = "." then f else Filename.concat dir f

(* Numbered BENCH files, newest (highest PR number) first. Sorting by
   the numeric suffix rather than mtime keeps the choice stable in CI,
   where a fresh checkout gives every file the same timestamp. *)
let files ?(dir = ".") () =
  (match Sys.readdir dir with exception Sys_error _ -> [||] | a -> a)
  |> Array.to_list
  |> List.filter_map (fun f ->
         if
           String.length f > 13
           && String.sub f 0 8 = "BENCH_pr"
           && Filename.check_suffix f ".json"
         then
           Option.map
             (fun n -> (n, f))
             (int_of_string_opt (String.sub f 8 (String.length f - 13)))
         else None)
  |> List.sort (fun (a, _) (b, _) -> Int.compare b a)
  |> List.map snd

(* The newest BENCH_pr*.json already holding [key] (a bench's baseline
   field), or [None] when no numbered file carries it. *)
let locate_opt ?(dir = ".") ~key () =
  Option.map (in_dir dir)
    (List.find_opt
       (fun f -> List.mem_assoc key (read (in_dir dir f)))
       (files ~dir ()))

type gate = (string, string * string) result

let recorded ~key fields =
  match List.assoc_opt key fields with
  | Some v -> Ok v
  | None ->
      Error
        ( "baseline-discovery",
          Fmt.str
            "no BENCH_pr*.json carries %S; a committed baseline is required \
             under --check"
            key )

let rate_gate ~recorded events_per_sec =
  if events_per_sec < 0.5 *. recorded then
    Error
      ( "rate",
        Fmt.str
          "%.0f events/s is below half the recorded baseline (%.0f events/s)"
          events_per_sec recorded )
  else Ok ""
