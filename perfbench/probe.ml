(* A fixed reference workload. [run.py] times it in a process of its
   own next to every repetition, to tell a slow host from a slow
   program: the end-to-end throughput is rescaled by how fast the host
   ran this probe at that moment. It links nothing of the repository,
   so no change to the program moves it.

   Its mix is the simulator's in miniature: a binary heap of pending
   events, a short-lived record per event, a hash table of flows that
   churn, a lookup in a 65537-slot table per packet and a text request
   parsed every fourth packet. Prints, as its last line, the CPU time
   of the loop in seconds and a checksum. *)

type pkt = { flow : int; seq : int; size : int }
type flow = { mutable last_at : int; mutable pkts : int }

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let events = 650_000
let pending = 16_384
let table_size = 65_537
let flows_live = 32_768

(* xorshift64, so the stream does not depend on the stdlib's Random. *)
let rng = ref 0x2545F4914F6CDD1D

let next () =
  let x = !rng in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  rng := x;
  x land max_int

(* Min-heap on [at], payloads alongside. *)
let heap_at = Array.make (pending + 1) 0
let heap_pkt = Array.make (pending + 1) { flow = 0; seq = 0; size = 0 }
let heap_len = ref 0

let push at p =
  let i = ref !heap_len in
  incr heap_len;
  while !i > 0 && heap_at.((!i - 1) / 2) > at do
    let parent = (!i - 1) / 2 in
    heap_at.(!i) <- heap_at.(parent);
    heap_pkt.(!i) <- heap_pkt.(parent);
    i := parent
  done;
  heap_at.(!i) <- at;
  heap_pkt.(!i) <- p

let pop () =
  let at = heap_at.(0) and p = heap_pkt.(0) in
  decr heap_len;
  let n = !heap_len in
  let last_at = heap_at.(n) and last = heap_pkt.(n) in
  let i = ref 0 and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= n then continue := false
    else
      let c = if l + 1 < n && heap_at.(l + 1) < heap_at.(l) then l + 1 else l in
      if heap_at.(c) < last_at then begin
        heap_at.(!i) <- heap_at.(c);
        heap_pkt.(!i) <- heap_pkt.(c);
        i := c
      end
      else continue := false
  done;
  heap_at.(!i) <- last_at;
  heap_pkt.(!i) <- last;
  (at, p)

let parse_request s =
  (* "get k<digits>\r\n" -> the key number *)
  let sp = String.index s ' ' in
  let stop = String.index_from s sp '\r' in
  int_of_string (String.sub s (sp + 2) (stop - sp - 2))

let () =
  let table = Array.init table_size (fun i -> (i * 7919) mod 13) in
  let flows = Hashtbl.create flows_live in
  let buf = Buffer.create 64 in
  let sum = ref 0 in
  for f = 0 to pending - 1 do
    push (next () land 0xffff) { flow = f; seq = 0; size = 64 }
  done;
  let next_flow = ref pending in
  let c0 = cpu_now () in
  for _ = 1 to events do
    let at, p = pop () in
    let fl =
      match Hashtbl.find_opt flows p.flow with
      | Some fl -> fl
      | None ->
          let fl = { last_at = at; pkts = 0 } in
          Hashtbl.replace flows p.flow fl;
          fl
    in
    fl.pkts <- fl.pkts + 1;
    fl.last_at <- at;
    let backend = table.(p.flow * 40503 land max_int mod table_size) in
    if p.seq land 3 = 0 then begin
      Buffer.clear buf;
      Buffer.add_string buf "get k";
      Buffer.add_string buf (string_of_int p.flow);
      Buffer.add_string buf "\r\n";
      sum := !sum + parse_request (Buffer.contents buf)
    end;
    sum := !sum + backend + p.size;
    (* Every 8th packet ends its flow; a fresh one takes its place. *)
    let p' =
      if p.seq = 7 then begin
        Hashtbl.remove flows p.flow;
        let f = !next_flow in
        incr next_flow;
        { flow = f; seq = 0; size = 64 + (f land 1023) }
      end
      else { p with seq = p.seq + 1 }
    in
    push (at + 1 + (next () land 0x3ff)) p'
  done;
  let dt = cpu_now () -. c0 in
  Printf.printf "%.9f %d\n" dt (!sum + Hashtbl.length flows)
