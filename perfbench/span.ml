(* In-memory spans for the traced run. Spans are kept in a list while
   the run goes and written out once, when it ends, so recording one
   costs a clock read and a cons. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for a root span. *)
  start_s : float;
  mutable stop_s : float;
}

type t = {
  run_id : string;
  mutable spans : span list;
  mutable stack : span list;
  mutable next_id : int;
}

let create ~run_id = { run_id; spans = []; stack = []; next_id = 0 }

let enter t name =
  let parent = match t.stack with s :: _ -> s.id | [] -> -1 in
  let s =
    {
      id = t.next_id;
      name;
      parent;
      start_s = Unix.gettimeofday ();
      stop_s = nan;
    }
  in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  t.stack <- s :: t.stack;
  s

let leave t s =
  s.stop_s <- Unix.gettimeofday ();
  match t.stack with
  | top :: rest when top == s -> t.stack <- rest
  | _ -> invalid_arg "Span.leave: spans must nest"

let with_ t name f =
  let s = enter t name in
  Fun.protect ~finally:(fun () -> leave t s) f

let spans t = List.rev t.spans
let duration s = s.stop_s -. s.start_s

(* Self time of a span: its duration minus the part its children cover.
   Children never overlap (spans nest on one stack), so the covered part
   is the sum of their durations. Summed by span name. *)
let self_times t =
  let child_time = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child_time s.parent
          (duration s
          +. Option.value (Hashtbl.find_opt child_time s.parent) ~default:0.0))
    t.spans;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let self =
        duration s
        -. Option.value (Hashtbl.find_opt child_time s.id) ~default:0.0
      in
      let prev = Option.value (Hashtbl.find_opt by_name s.name) ~default:0.0 in
      Hashtbl.replace by_name s.name (prev +. self))
    t.spans;
  Hashtbl.fold (fun name v acc -> (name, v) :: acc) by_name []
  |> List.sort compare

(* One JSON object per line: name, start, end (seconds since the epoch),
   parent id and run id. *)
let write t path =
  let oc = open_out path in
  List.iter
    (fun s ->
      Printf.fprintf oc
        "{\"run\":%S,\"id\":%d,\"name\":%S,\"parent\":%d,\"start\":%.6f,\"end\":%.6f}\n"
        t.run_id s.id s.name s.parent s.start_s s.stop_s)
    (spans t);
  close_out oc
