(* The repository benchmark's runner: one workload, one seed, one
   process. [run.py] next to this file builds it, calls it once per
   repetition (a fresh process each time, so peak RSS is per run) and
   aggregates. See README.md in this directory for the metrics. *)

open Cluster

(* --- JSON output ------------------------------------------------------- *)

type json =
  | I of int
  | F of float
  | S of string
  | B of bool
  | L of json list
  | O of (string * json) list

let rec add_json b = function
  | I i -> Buffer.add_string b (string_of_int i)
  | F f ->
      if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.17g" f)
      else Buffer.add_string b "null"
  | S s -> Buffer.add_string b (Printf.sprintf "%S" s)
  | B v -> Buffer.add_string b (if v then "true" else "false")
  | L l ->
      Buffer.add_char b '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char b ',';
          add_json b v)
        l;
      Buffer.add_char b ']'
  | O kv ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Buffer.add_string b (Printf.sprintf "%S:" k);
          add_json b v)
        kv;
      Buffer.add_char b '}'

let print_json j =
  let b = Buffer.create 4096 in
  add_json b j;
  print_endline (Buffer.contents b)

(* --- Host measurements ------------------------------------------------- *)

let now = Unix.gettimeofday

(* Process CPU time, user plus system. Unlike wall time it leaves out
   the moments this process waited for a CPU, whether another process
   or the hypervisor (steal) had it, so it moves with the program's work
   and much less with the host's load. The timed end-to-end metrics are
   in CPU seconds. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* VmHWM: the process's peak resident set, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line -> (
        match Scanf.sscanf_opt line "VmHWM: %d kB" Fun.id with
        | Some kb -> float_of_int kb /. 1024.0
        | None -> scan ())
    | exception End_of_file -> nan
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

let median = function
  | [] -> nan
  | l ->
      let a = Array.of_list l in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* GC phase time from the runtime's own event ring, summed per phase
   kind over every domain. Polled between slices, so the ring never
   wraps. *)
module Gc_phases = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    minor_ns : int64 ref;
    major_ns : int64 ref;
  }

  let start () =
    Runtime_events.start ();
    let minor_ns = ref 0L and major_ns = ref 0L in
    let open_at = Hashtbl.create 8 in
    let stamp ts = Runtime_events.Timestamp.to_int64 ts in
    let runtime_begin d ts phase = Hashtbl.replace open_at (d, phase) (stamp ts)
    and runtime_end d ts phase =
      match Hashtbl.find_opt open_at (d, phase) with
      | None -> ()
      | Some t0 -> (
          Hashtbl.remove open_at (d, phase);
          let add acc = acc := Int64.add !acc (Int64.sub (stamp ts) t0) in
          match phase with
          | Runtime_events.EV_MINOR -> add minor_ns
          | Runtime_events.EV_MAJOR_SLICE
          | Runtime_events.EV_EXPLICIT_GC_FULL_MAJOR
          | Runtime_events.EV_EXPLICIT_GC_COMPACT ->
              add major_ns
          | _ -> ())
    in
    let t =
      {
        cursor = Runtime_events.create_cursor None;
        callbacks =
          Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ();
        minor_ns;
        major_ns;
      }
    in
    (* Skip whatever the ring held before the run. *)
    ignore (Runtime_events.read_poll t.cursor t.callbacks None);
    minor_ns := 0L;
    major_ns := 0L;
    t

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None)
  let minor_ms t = Int64.to_float !(t.minor_ns) /. 1e6
  let major_ms t = Int64.to_float !(t.major_ns) /. 1e6
end

(* --- Workloads --------------------------------------------------------- *)

type workload = Fig3 | Flows | Faults

let workload_of_string = function
  | "fig3" -> Some Fig3
  | "flows" -> Some Flows
  | "faults" -> Some Faults
  | _ -> None

let workload_name = function
  | Fig3 -> "fig3"
  | Flows -> "flows"
  | Faults -> "faults"

(* Sizes. Each repetition is a few host seconds, so a run of the
   benchmark's --seconds holds several and reports their median. *)
let fig3_duration = Des.Time.sec 6
let fig3_inject = Des.Time.sec 2
let faults_duration = Des.Time.sec 14
(* Not a multiple of the 64 clients: the seed rotates flows over
   clients, so per-client counts, and with them the digest, depend on
   it. *)
let flows_n = 30_000

(* Clients stopped, requests still in flight get this long to finish. *)
let drain = Des.Time.sec 2
let bucket = Des.Time.ms 50
let slice = Des.Time.ms 250
let recovery_factor = 1.5

let fig3_timeline ~at =
  [
    Faults.Timeline.event ~at
      ~target:(Faults.Timeline.Link "lb->s1")
      ~fault:(Faults.Timeline.Delay (Des.Time.ms 1))
      ();
  ]

(* Config, fault timeline, whether the PCC oracle rides along, and how
   long the clients run. *)
let scenario_of w ~seed =
  match w with
  | Fig3 ->
      ( {
          Fig3.default_scenario with
          Scenario.policy = Inband.Policy.Latency_aware;
          latency_bucket = bucket;
          seed;
        },
        fig3_timeline ~at:fig3_inject,
        false,
        fig3_duration )
  | Faults ->
      ( { Churn.default_scenario with Scenario.latency_bucket = bucket; seed },
        Churn.default_timeline,
        true,
        faults_duration )
  | Flows -> invalid_arg "scenario_of"

type sim = {
  s : Scenario.t;
  injector : Faults.Injector.t;
  oracle : Oracle.t option;
  until : Des.Time.t;
}

let build_sim w ~seed =
  let config, timeline, pcc, until = scenario_of w ~seed in
  let s = Scenario.build config in
  let injector = Scenario.install_faults s timeline in
  let oracle = if pcc then Some (Scenario.attach_pcc s) else None in
  { s; injector; oracle; until }

(* [Sharded.flows] builds its topology, compacts the heap, runs, and
   takes a forced full major at the send horizon. Its [wall_s] is the
   run without that full major; the rest of the call, less the full
   major, is the set-up: the build, which does not depend on [n], and
   the compaction. The call's CPU time is shared out over these parts
   in proportion to their wall time: (set-up CPU s, run CPU s, result). *)
let flows_call ~seed ~n =
  let t0 = now () and c0 = cpu_now () in
  let r = Sharded.flows ~seed ~n () in
  let wall = now () -. t0 and cpu = cpu_now () -. c0 in
  let share x = if wall > 0.0 then cpu *. x /. wall else 0.0 in
  (share (wall -. r.Sharded.wall_s -. r.full_major_s), share r.wall_s, r)

(* Host time from config to first event: build the topology, install
   the faults, attach the oracle. *)
let setup_once w ~seed =
  match w with
  | Fig3 | Faults ->
      let c0 = cpu_now () in
      let sim = build_sim w ~seed in
      let dt = cpu_now () -. c0 in
      Scenario.shutdown sim.s;
      dt
  | Flows ->
      let setup, _, _ = flows_call ~seed ~n:1 in
      setup

(* Set-ups timed per [setup] call. *)
let setups_per_call = 15

(* --- Outputs and checks ------------------------------------------------ *)

type check = { name : string; ok : bool; detail : string }

let check name ok detail = { name; ok; detail }

(* Request conservation after the drain. Every response a client took
   in was logged with its latency; servers served at least what came
   back and at most what was sent; what was sent and neither answered
   nor refused is still unanswered. *)
let conservation ~sent ~received ~errors ~logged ~served =
  let unanswered = sent - received - errors in
  let ok =
    received = logged && unanswered >= 0 && served >= received && served <= sent
  in
  ( check "request_conservation" ok
      (Fmt.str "sent=%d received=%d errors=%d logged=%d served=%d unanswered=%d"
         sent received errors logged served unanswered),
    errors + unanswered )

let sum_metric s name =
  match Scenario.metric_sum s name with Some v -> int_of_float v | None -> 0

let sum_indexed s name n =
  let acc = ref 0 in
  for i = 0 to n - 1 do
    match Scenario.metric_sum s ~index:i name with
    | Some v -> acc := !acc + int_of_float v
    | None -> ()
  done;
  !acc

let rows_max rows name =
  List.fold_left
    (fun acc (r : Telemetry.Snapshot.row) ->
      if r.metric = name && Float.is_finite r.value then Float.max acc r.value
      else acc)
    0.0 rows

let rows_max_sum_over_index rows name =
  (* Per-instant sum over indices, then the peak over instants. *)
  let by_at = Hashtbl.create 64 in
  List.iter
    (fun (r : Telemetry.Snapshot.row) ->
      if r.metric = name && Float.is_finite r.value then
        Hashtbl.replace by_at r.at
          (r.value +. Option.value (Hashtbl.find_opt by_at r.at) ~default:0.0))
    rows;
  Hashtbl.fold (fun _ v acc -> Float.max acc v) by_at 0.0

(* Recovery of one fault, as Fig3/Frontier define it: from onset to
   the first GET-p95 bucket within [recovery_factor] x the pre-fault p95
   that stays within it for [sustain]. The pre-fault p95 is the median
   bucket p95 over the second before onset (warm-up buckets before
   0.5 s excluded). The scan ends where the next fault starts; a fault
   never recovered from counts its whole scan window. *)
let sustain = Des.Time.ms 400

let recovery_ms rows ~onset ~until =
  let t r = r.Stats.Timeseries.t_start in
  let p95 r = float_of_int r.Stats.Timeseries.quantile in
  let before =
    List.filter
      (fun r ->
        t r >= Stdlib.max (Des.Time.ms 500) (onset - Des.Time.sec 1)
        && t r < onset)
      rows
  in
  let threshold = recovery_factor *. median (List.map p95 before) in
  let during = List.filter (fun r -> t r >= onset && t r < until) rows in
  let rec first = function
    | [] -> until
    | r :: rest ->
        if
          p95 r <= threshold
          && List.for_all
               (fun r' -> t r' >= t r + sustain || p95 r' <= threshold)
               rest
        then t r
        else first rest
  in
  Des.Time.to_float_ms (first during - onset)

(* Runtime GC counts over the run phase, from [Gc.quick_stat]. *)
let gc_layers ~gc0 ~gc1 ~responses =
  let per_resp f =
    if responses = 0 then 0.0 else (f gc1 -. f gc0) /. float_of_int responses
  in
  [
    ("gc.minor_words_per_response", per_resp (fun g -> g.Gc.minor_words));
    ("gc.promoted_words_per_response", per_resp (fun g -> g.Gc.promoted_words));
    ( "gc.major_collections",
      float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
    ("gc.top_heap_mb", float_of_int (gc1.Gc.top_heap_words * 8) /. 1e6);
  ]

let add_hist_digest b h =
  Stats.Histogram.fold_buckets h ~init:() ~f:(fun () ~lo ~hi ~count ->
      Buffer.add_string b (Printf.sprintf "%d:%d:%d;" lo hi count))

type outcome = {
  wall_s : float;
  cpu_s : float;
  responses : int;
  attempted : int;
  failed : int;
  checks : check list;
  digest : string;
  exact : (string * json) list;  (** Modelled outcomes and exact counts. *)
  layers : (string * float) list;  (** Per-layer counts of this run. *)
}

(* Everything the simulated cluster produced that a speed-only change
   must leave alone, hashed. *)
let scenario_outcome sim ~wall_s ~cpu_s ~gc0 ~gc1 =
  let s = sim.s in
  let engine = Scenario.engine s in
  let lb = Scenario.balancer s in
  let clients = Scenario.clients s and servers = Scenario.servers s in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let sent = sum Workload.Memtier.requests_sent clients in
  let received = sum Workload.Memtier.responses_received clients in
  let errors = sum Workload.Memtier.protocol_errors clients in
  let reconnects = sum Workload.Memtier.reconnects clients in
  let served = sum Memcache.Server.requests_served servers in
  let logged = sum_metric s "client.responses" in
  let conserve, failed =
    conservation ~sent ~received ~errors ~logged ~served
  in
  let get_h = Option.get (Scenario.histogram s "client.latency_get_ns") in
  let set_h = Option.get (Scenario.histogram s "client.latency_set_ns") in
  let sojourn = Stats.Histogram.create () in
  Array.iter
    (fun srv ->
      Stats.Histogram.merge_into ~dst:sojourn (Memcache.Server.sojourn srv))
    servers;
  let series =
    match Scenario.series s "client.latency.get" with
    | Some ts -> Stats.Timeseries.rows ts ~q:0.95
    | None -> []
  in
  (* Each fault's scan runs to the next fault's onset. *)
  let windows =
    let onsets =
      List.map
        (fun (iv : Faults.Injector.interval) -> iv.applied_at)
        (Faults.Injector.intervals sim.injector)
    in
    List.mapi
      (fun i onset ->
        (onset, Option.value (List.nth_opt onsets (i + 1)) ~default:sim.until))
      onsets
  in
  let recovery =
    List.fold_left
      (fun acc (onset, until) ->
        Float.max acc (recovery_ms series ~onset ~until))
      0.0 windows
  in
  let ctl = Inband.Balancer.controller lb in
  let actions =
    match ctl with Some c -> Inband.Controller.actions c | None -> []
  in
  let action_count =
    match ctl with Some c -> Inband.Controller.action_count c | None -> 0
  in
  let weights =
    match ctl with Some c -> Inband.Controller.weights c | None -> [||]
  in
  let pool = Inband.Balancer.pool lb in
  let pkts = Inband.Balancer.packets_forwarded lb in
  let samples = Inband.Balancer.samples_produced lb in
  let checked, violations =
    match sim.oracle with
    | Some o -> (Oracle.checked o, Oracle.violation_count o)
    | None -> (0, 0)
  in
  let rows = Scenario.snap_rows s in
  let n_clients = Array.length clients and n_servers = Array.length servers in
  let link_sum suffix =
    sum_indexed s ("link.client_lb." ^ suffix) n_clients
    + sum_indexed s ("link.lb_server." ^ suffix) n_servers
  in
  let endpoint f = sum (fun srv -> f (Memcache.Server.endpoint srv)) servers in
  let events = Des.Engine.events_fired engine in
  let responses = logged in
  let b = Buffer.create 65536 in
  let add fmt = Printf.bprintf b fmt in
  add "events=%d sent=%d received=%d errors=%d reconnects=%d served=%d;" events
    sent received errors reconnects served;
  add_hist_digest b get_h;
  add_hist_digest b set_h;
  List.iter
    (fun (a : Inband.Controller.action) ->
      add "a%d:%d:%h" a.at a.victim a.shifted;
      Array.iter (fun w -> add ":%h" w) a.weights_after)
    actions;
  add "actions=%d;" action_count;
  Array.iter (fun w -> add "w%h;" w) weights;
  add "samples=%d pkts=%d rebuilds=%d disruption=%h checked=%d violations=%d;"
    samples pkts (Maglev.Pool.rebuilds pool)
    (Maglev.Pool.total_disruption pool)
    checked violations;
  let digest = Digest.to_hex (Digest.string (Buffer.contents b)) in
  let ppm =
    if checked = 0 then 0.0
    else float_of_int violations *. 1e6 /. float_of_int checked
  in
  let oracle_checks =
    match sim.oracle with
    | None -> []
    | Some _ ->
        [
          check "pcc_checked_eq_lb_packets" (checked = pkts)
            (Fmt.str "checked=%d lb_packets=%d" checked pkts);
        ]
  in
  let fi = float_of_int in
  let us h q = fi (Stats.Histogram.quantile h q) /. 1e3 in
  let ratio a b = if b = 0 then 0.0 else fi a /. fi b in
  let failed_share = ratio failed sent in
  {
    wall_s;
    cpu_s;
    responses;
    attempted = sent;
    failed;
    checks = conserve :: oracle_checks;
    digest;
    exact =
      [
        ("responses", I responses);
        ("get_samples", I (Stats.Histogram.count get_h));
        ("lat_p50_us", F (us get_h 0.5));
        ("lat_p999_us", F (us get_h 0.999));
        ("recovery_ms", F recovery);
        ("pcc_violations", I violations);
        ("pcc_checked", I checked);
        ("pcc_violation_ppm", F ppm);
        ("failed_share", F failed_share);
        ("events", I events);
        ("lb_samples", I samples);
        ("ctl_actions", I action_count);
        ("maglev_rebuilds", I (Maglev.Pool.rebuilds pool));
        ("minor_words", F (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      ];
    layers =
      gc_layers ~gc0 ~gc1 ~responses
      @ [
          ("des.events_per_response", ratio events responses);
          ("des.ns_per_event", cpu_s *. 1e9 /. fi (max 1 events));
          ("des.wheel_cascades", fi (Des.Engine.wheel_cascades engine));
          ("des.compactions", fi (Des.Engine.compactions engine));
          ("des.pending_peak", rows_max rows "des.pending");
          ("netsim.link_sends_per_response", ratio (link_sum "sent") responses);
          ("netsim.queue_drops", fi (link_sum "queue_drops"));
          ("netsim.loss_drops", fi (link_sum "loss_drops"));
          ("netsim.flow_tombstones_peak", rows_max rows "lb.flow_tombstones");
          ("maglev.lookups", fi (sum_indexed s "lb.flows_to" n_servers));
          ("maglev.rebuilds", fi (Maglev.Pool.rebuilds pool));
          ("maglev.disruption", Maglev.Pool.total_disruption pool);
          ("inband.lb_pkts_per_response", ratio pkts responses);
          ("inband.samples_per_kpkt", 1e3 *. ratio samples pkts);
          ( "inband.est_epochs",
            fi
              (Inband.Ensemble.epochs_completed (Inband.Balancer.ensemble lb))
          );
          ("inband.ctl_actions", fi action_count);
          ("inband.remapped_flows", fi (Inband.Balancer.remapped_flows lb));
          ("inband.active_flows_peak", rows_max rows "lb.active_flows");
          ("tcpsim.reasm_drops", fi (endpoint Tcpsim.Endpoint.reasm_drops));
          ("tcpsim.send_drops", fi (endpoint Tcpsim.Endpoint.send_drops));
          ("memcache.gets", fi (sum Memcache.Server.gets_served servers));
          ("memcache.sets", fi (sum Memcache.Server.sets_served servers));
          ("memcache.sojourn_p50_us", us sojourn 0.5);
          ("memcache.sojourn_p999_us", us sojourn 0.999);
          ( "memcache.queue_depth_peak",
            rows_max_sum_over_index rows "server.queue_depth" );
          ("workload.reconnects_per_kresp", 1e3 *. ratio reconnects responses);
          ( "telemetry.snapshots",
            fi (Telemetry.Snapshot.snap_count (Scenario.snapshots s)) );
          ( "telemetry.metrics",
            fi (Telemetry.Registry.size (Scenario.telemetry s)) );
          ("faults.applied", fi (Faults.Injector.applied_count sim.injector));
          ("faults.reverted", fi (Faults.Injector.reverted_count sim.injector));
          ("cluster.pcc_checked_per_packet", ratio checked pkts);
          ("sim.lat_p50_us", us get_h 0.5);
          ("sim.lat_p999_us", us get_h 0.999);
          ("sim.recovery_ms", recovery);
          ("sim.pcc_violation_ppm", ppm);
          ("sim.failed_share", failed_share);
        ];
  }

let drain_sim sim =
  Des.Engine.run (Scenario.engine sim.s) ~until:(sim.until + drain)

let run_scenario w ~seed =
  let sim = build_sim w ~seed in
  let gc0 = Gc.quick_stat () in
  let t0 = now () and c0 = cpu_now () in
  Scenario.run sim.s ~until:sim.until;
  drain_sim sim;
  let wall_s = now () -. t0 and cpu_s = cpu_now () -. c0 in
  let gc1 = Gc.quick_stat () in
  let o = scenario_outcome sim ~wall_s ~cpu_s ~gc0 ~gc1 in
  Scenario.shutdown sim.s;
  o

(* The flows workload: replies expected for every send but the one FIN
   per flow (12 sends, the 8th carries FIN). *)
let flows_expected n = n * (Sharded.rounds - (Sharded.rounds / 8))

let flows_outcome ~n (r : Sharded.result) ~cpu_s ~gc0 ~gc1 =
  let expected = flows_expected n in
  let failed = expected - r.responses in
  let fi = float_of_int in
  (* [Sharded.flows] raises if a flow survives its drain; the summary
     says so too. *)
  let active_end =
    List.find_map
      (fun line -> Scanf.sscanf_opt line "active_end,%d%!" Fun.id)
      (String.split_on_char '\n' r.csv)
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "%s|responses=%d|peak=%d" r.csv r.responses
            r.active_peak))
  in
  {
    wall_s = r.wall_s;
    cpu_s;
    responses = r.responses;
    attempted = expected;
    failed;
    checks =
      [
        check "flows_drained" (active_end = Some 0)
          (Fmt.str "flows left after the idle-expiry drain: %a"
             Fmt.(option ~none:(any "unknown") int)
             active_end);
        check "replies_conserved" (failed = 0)
          (Fmt.str "expected=%d responses=%d" expected r.responses);
      ];
    digest;
    exact =
      [
        ("responses", I r.responses);
        ("active_peak", I r.active_peak);
        ("failed_share", F (fi failed /. fi expected));
        ("events", I r.events);
        ("minor_words", F (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      ];
    layers =
      gc_layers ~gc0 ~gc1 ~responses:r.responses
      @ [
          ("des.events_per_response", fi r.events /. fi (max 1 r.responses));
          ("des.ns_per_event", cpu_s *. 1e9 /. fi (max 1 r.events));
          ("inband.active_flows_peak", fi r.active_peak);
          ("sim.failed_share", fi failed /. fi expected);
        ];
  }

(* The run phase is the library's own [wall_s]: sends and drain,
   without the forced full major it takes to measure live words. *)
let run_flows ~seed =
  let gc0 = Gc.quick_stat () in
  let _, cpu_s, r = flows_call ~seed ~n:flows_n in
  let gc1 = Gc.quick_stat () in
  (r, flows_outcome ~n:flows_n r ~cpu_s ~gc0 ~gc1)

let run_untraced w ~seed =
  match w with
  | Fig3 | Faults -> run_scenario w ~seed
  | Flows -> snd (run_flows ~seed)

(* --- Traced run -------------------------------------------------------- *)

let lb_spec_of_scenario (c : Scenario.config) =
  {
    Replay.config = c.lb;
    policy = c.policy;
    table_size = c.table_size;
    n_servers = c.n_servers;
    vip = Netsim.Addr.v 1 11211;
    seed = c.seed;
  }

(* What the flows workload sends, rebuilt from its documented schedule
   (see lib/cluster/sharded.ml): send j goes to flow [j mod n] on pacer
   tick [j / 64], one tick per microsecond, over a 5 us client link;
   flow i is on client [(i + seed) land 63], and its source port encodes
   the flow and its incarnation. *)
let flows_packets ~seed ~n =
  let p = Replay.packets () in
  let clients = Sharded.clients in
  let stride = (n + clients - 1) / clients in
  let total = Sharded.rounds * n in
  for j = 0 to total - 1 do
    let i = j mod n and r = j / n in
    let c = (i + seed) land (clients - 1) in
    let gen = r / 8 in
    let port = (seed land 0xffff) + (i lsr 6) + (gen * stride) in
    Replay.push_packet p
      ~at:(Des.Time.us ((j / 64) + 1) + Des.Time.us 5)
      ~ip:(100 + c) ~port ~syn:false ~fin:(r mod 8 = 7) ~rst:false
  done;
  p

(* Per client ip: sends and sends that expect a reply (all but FINs).
   The live run's summary has the same two columns, so the rebuilt
   stream's client mapping, send counts and FIN placement are checked
   against the program; its ports and tick times are not. *)
let per_client_of_packets (p : Replay.packets) =
  let tbl = Hashtbl.create 64 in
  for i = 0 to Replay.n_packets p - 1 do
    let ip = Replay.Vec.get p.src i lsr 16 in
    let sends, replies =
      Option.value (Hashtbl.find_opt tbl ip) ~default:(0, 0)
    in
    Hashtbl.replace tbl ip
      (sends + 1, if Replay.ends_flow p i then replies else replies + 1)
  done;
  List.sort compare
    (Hashtbl.fold (fun ip (s, r) acc -> (ip, s, r) :: acc) tbl [])

let per_client_of_csv csv =
  List.sort compare
    (List.filter_map
       (fun line ->
         Scanf.sscanf_opt line "%d,%d,%d%!" (fun ip s r -> (ip, s, r)))
       (String.split_on_char '\n' csv))

let flows_spec ~seed =
  {
    Replay.config =
      {
        Inband.Config.default with
        Inband.Config.flow_idle_timeout = Des.Time.ms 32;
        sweep_interval = Des.Time.ms 16;
      };
    policy = Inband.Policy.Static_maglev;
    table_size = 4099;
    n_servers = Sharded.servers;
    vip = Netsim.Addr.v 1 80;
    seed;
  }

type capture = {
  pkts : Replay.packets;
  smp : Replay.samples;
  mutable payloads : (int * string) list;
  mutable n_payloads : int;
  mutable data_segments : int;
  mutable retransmits : int;
}

let payload_cap = 50_000

(* Record what reaches the LB: every packet (compactly), every sample,
   the first request payloads, and client data segments whose bytes the
   LB already saw on that connection (retransmissions). *)
let attach_capture sim =
  let lb = Scenario.balancer sim.s in
  let engine = Scenario.engine sim.s in
  let cap =
    {
      pkts = Replay.packets ();
      smp = Replay.samples ();
      payloads = [];
      n_payloads = 0;
      data_segments = 0;
      retransmits = 0;
    }
  in
  let seq_end = Hashtbl.create 1024 in
  ignore
    (Telemetry.Bus.subscribe (Inband.Balancer.packet_bus lb) (fun pkt ->
         let src = pkt.Netsim.Packet.src in
         let f = pkt.Netsim.Packet.flags in
         let key = (src.Netsim.Addr.ip lsl 16) lor src.Netsim.Addr.port in
         Replay.push_packet cap.pkts ~at:(Des.Engine.now engine)
           ~ip:src.Netsim.Addr.ip ~port:src.Netsim.Addr.port ~syn:f.syn
           ~fin:f.fin ~rst:f.rst;
         if f.syn then Hashtbl.remove seq_end key;
         let len = Netsim.Packet.payload_len pkt in
         if len > 0 then begin
           cap.data_segments <- cap.data_segments + 1;
           let stop = pkt.Netsim.Packet.seq + len in
           (match Hashtbl.find_opt seq_end key with
           | Some e when stop <= e -> cap.retransmits <- cap.retransmits + 1
           | _ -> Hashtbl.replace seq_end key stop);
           if cap.n_payloads < payload_cap then begin
             cap.payloads <- (key, pkt.Netsim.Packet.payload) :: cap.payloads;
             cap.n_payloads <- cap.n_payloads + 1
           end
         end));
  ignore
    (Telemetry.Bus.subscribe (Inband.Balancer.sample_bus lb)
       (fun (e : Inband.Balancer.sample_event) ->
         Replay.Vec.push cap.smp.s_at e.at;
         Replay.Vec.push cap.smp.s_server e.server;
         Replay.Vec.push cap.smp.s_value e.sample));
  cap

type traced = {
  t_wall_s : float;
  t_digest : string;
  t_checks : check list;
  t_layers : (string * float) list;
  t_self : (string * float) list;  (** Per-layer self time, seconds. *)
}

let per_op = Replay.per_op

type replayed = {
  r_layers : (string * float) list;
  r_self : (string * float) list;  (** Estimated self time in the live run. *)
  r_lb : Replay.lb_result;  (** The LB the captured stream was replayed into. *)
  r_ctl_actions : int;  (** Actions of the controller fed the live samples. *)
  r_parse_errors : int;
}

let lb_actions lb =
  match Inband.Balancer.controller lb with
  | Some c -> Inband.Controller.action_count c
  | None -> 0

(* Each layer's replay, timed. The packet replays run over exactly the
   live run's packets, so their times are the layers' self time in the
   live run; lookups and rebuilds are scaled by the replayed LB's counts.
   The LB's figure includes the estimator, flow table, lookups and
   controller it calls, and the controller's includes its rebuilds;
   those are taken out. *)
let replay_layers tr ~spec ~pkts ~smp ~weights ~payloads ~get_h ~pcc ~until =
  let span name = Some (tr, "replay." ^ name) in
  let base = Replay.replay_baseline ?span:(span "baseline") spec pkts ~until in
  let lbr = Replay.replay_lb ?span:(span "inband.lb") spec pkts ~until in
  let ft =
    Replay.replay_flow_table ?span:(span "netsim.flow_table") spec pkts
  in
  let est = Replay.replay_estimator ?span:(span "inband.estimator") spec pkts in
  let look = Replay.replay_lookups ?span:(span "maglev.lookup") spec pkts in
  let rb = Replay.replay_rebuilds ?span:(span "maglev.rebuild") spec weights in
  let ctl, ctl_actions =
    Replay.replay_controller ?span:(span "inband.controller") spec smp
  in
  let parse, parse_errors =
    Replay.replay_parse ?span:(span "memcache.parse") payloads
  in
  let hist =
    match get_h with
    | Some h ->
        Replay.replay_histogram ?span:(span "stats.histogram") h ~cap:200_000
    | None -> Replay.cost ()
  in
  let pcc_s =
    if pcc then
      let r =
        Replay.replay_lb ?span:(span "cluster.pcc") ~pcc:true spec pkts ~until
      in
      Float.max 0.0 (r.lb_cost.seconds -. lbr.lb_cost.seconds)
    else 0.0
  in
  let n = Replay.n_packets pkts in
  let ns s ops = per_op (s *. 1e9) ops in
  let lb_s = Float.max 0.0 (lbr.lb_cost.seconds -. base.seconds) in
  let est_s = Float.max 0.0 (est.seconds -. ft.seconds) in
  let look_ns = ns look.seconds look.ops in
  let rb_us = per_op (rb.seconds *. 1e6) rb.ops in
  let pool = Inband.Balancer.pool lbr.lb in
  let lookups = ref 0 in
  for i = 0 to spec.n_servers - 1 do
    lookups := !lookups + Inband.Balancer.flows_assigned_to lbr.lb i
  done;
  let look_live = look_ns *. float_of_int !lookups /. 1e9 in
  let rb_live = rb_us *. float_of_int (Maglev.Pool.rebuilds pool) /. 1e6 in
  {
    r_layers =
      [
        ("inband.lb_ns_per_packet", ns lb_s n);
        ( "inband.lb_words_per_packet",
          per_op (lbr.lb_cost.words -. base.words) n );
        ("inband.est_ns_per_packet", ns est_s n);
        ("inband.ctl_ns_per_sample", ns ctl.seconds ctl.ops);
        ("netsim.flow_table_ns_per_op", ns ft.seconds ft.ops);
        ("maglev.lookup_ns", look_ns);
        ("maglev.rebuild_us", rb_us);
        ("memcache.parse_ns_per_request", ns parse.seconds parse.ops);
        ("stats.hist_record_ns", ns hist.seconds hist.ops);
        ("cluster.pcc_ns_per_check", ns pcc_s n);
      ];
    r_self =
      [
        ( "inband.lb",
          Float.max 0.0
            (lb_s -. est_s -. ft.seconds -. look_live -. ctl.seconds) );
        ("inband.estimator", est_s);
        ("inband.controller", Float.max 0.0 (ctl.seconds -. rb_live));
        ("netsim.flow_table", ft.seconds);
        ("maglev.lookup", look_live);
        ("maglev.rebuild", rb_live);
        ("cluster.pcc", pcc_s);
      ];
    r_lb = lbr;
    r_ctl_actions = ctl_actions;
    r_parse_errors = parse_errors;
  }

let run_traced_scenario w ~seed ~run_id =
  let tr = Span.create ~run_id in
  let gcp = Gc_phases.start () in
  let root = Span.enter tr "run" in
  let sim = Span.with_ tr "build" (fun () -> build_sim w ~seed) in
  let cap = attach_capture sim in
  let engine = Scenario.engine sim.s in
  let clients = Scenario.clients sim.s in
  let gc0 = Gc.quick_stat () in
  let t0 = now () and c0 = cpu_now () in
  let snap_s = ref 0.0 and snaps = ref 0 in
  Array.iter Workload.Memtier.start clients;
  let rec slices at =
    if at < sim.until then begin
      let next = Stdlib.min sim.until (at + slice) in
      Span.with_ tr "sim.slice" (fun () -> Des.Engine.run engine ~until:next);
      let t = now () in
      Span.with_ tr "telemetry.snap_all" (fun () -> Scenario.snap_all sim.s);
      snap_s := !snap_s +. (now () -. t);
      incr snaps;
      Gc_phases.poll gcp;
      slices next
    end
  in
  slices (Des.Engine.now engine);
  Array.iter Workload.Memtier.stop clients;
  Span.with_ tr "sim.drain" (fun () -> drain_sim sim);
  let wall_s = now () -. t0 and cpu_s = cpu_now () -. c0 in
  let gc1 = Gc.quick_stat () in
  Gc_phases.poll gcp;
  let o = scenario_outcome sim ~wall_s ~cpu_s ~gc0 ~gc1 in
  let lb = Scenario.balancer sim.s in
  let weights =
    match Inband.Balancer.controller lb with
    | Some c ->
        List.map
          (fun (a : Inband.Controller.action) -> a.weights_after)
          (Inband.Controller.actions c)
    | None -> []
  in
  let spec = lb_spec_of_scenario (Scenario.config sim.s) in
  let get_h = Scenario.histogram sim.s "client.latency_get_ns" in
  let live_samples = Inband.Balancer.samples_produced lb in
  let live_actions = lb_actions lb in
  let minor_ms = Gc_phases.minor_ms gcp in
  let major_ms = Gc_phases.major_ms gcp in
  Scenario.shutdown sim.s;
  let r =
    Span.with_ tr "replay" (fun () ->
        replay_layers tr ~spec ~pkts:cap.pkts ~smp:cap.smp ~weights
          ~payloads:(List.rev cap.payloads) ~get_h
          ~pcc:(sim.oracle <> None) ~until:(sim.until + drain))
  in
  Span.leave tr root;
  let replayed_samples = Inband.Balancer.samples_produced r.r_lb.lb in
  let replayed_actions = lb_actions r.r_lb.lb in
  let responses = float_of_int (max 1 o.responses) in
  let checks =
    [
      check "replay_lb_samples" (replayed_samples = live_samples)
        (Fmt.str "replayed=%d live=%d" replayed_samples live_samples);
      check "replay_ctl_actions" (replayed_actions = live_actions)
        (Fmt.str "replayed=%d live=%d" replayed_actions live_actions);
      check "replay_controller_actions" (r.r_ctl_actions = live_actions)
        (Fmt.str "replayed=%d live=%d" r.r_ctl_actions live_actions);
      check "replay_parse_clean" (r.r_parse_errors = 0)
        (Fmt.str "%d protocol errors" r.r_parse_errors);
    ]
  in
  let self =
    r.r_self
    @ [
        ("telemetry.snap_all", !snap_s);
        ("gc.minor", minor_ms /. 1e3);
        ("gc.major", major_ms /. 1e3);
      ]
  in
  ( tr,
    {
      t_wall_s = wall_s;
      t_digest = o.digest;
      t_checks = o.checks @ checks;
      t_layers =
        r.r_layers
        @ [
            ("gc.minor_ms", minor_ms);
            ("gc.major_ms", major_ms);
            ( "tcpsim.segments_per_response",
              float_of_int cap.data_segments /. responses );
            ("tcpsim.retransmits", float_of_int cap.retransmits);
            ( "telemetry.snap_us",
              per_op (!snap_s *. 1e6) !snaps );
          ];
      t_self = self;
    } )

let run_traced_flows ~seed ~run_id =
  let tr = Span.create ~run_id in
  let gcp = Gc_phases.start () in
  let root = Span.enter tr "run" in
  let r, o = Span.with_ tr "sim.flows" (fun () -> run_flows ~seed) in
  let wall_s = o.wall_s in
  Gc_phases.poll gcp;
  let n = flows_n in
  let spec = flows_spec ~seed in
  let pkts =
    Span.with_ tr "capture.rebuild" (fun () -> flows_packets ~seed ~n)
  in
  let horizon =
    Des.Time.us ((Sharded.rounds * n / 64) + 2) + Des.Time.ms 1
  in
  (* The replay covers the sends, up to the live run's send horizon;
     the idle-expiry drain is not replayed. *)
  let rp =
    Span.with_ tr "replay" (fun () ->
        replay_layers tr ~spec ~pkts ~smp:(Replay.samples ()) ~weights:[]
          ~payloads:[] ~get_h:None ~pcc:false ~until:horizon)
  in
  let lbr = rp.r_lb in
  let lookups = ref 0 in
  for i = 0 to spec.n_servers - 1 do
    lookups := !lookups + Inband.Balancer.flows_assigned_to lbr.lb i
  done;
  Span.leave tr root;
  let rebuilt = per_client_of_packets pkts in
  let live = per_client_of_csv r.csv in
  let mismatched =
    List.length (List.filter (fun c -> not (List.mem c live)) rebuilt)
  in
  let checks =
    [
      check "replay_stream_per_client"
        (live <> [] && rebuilt = live)
        (Fmt.str "rebuilt clients=%d live clients=%d differing=%d"
           (List.length rebuilt) (List.length live) mismatched);
    ]
  in
  ( tr,
    {
      t_wall_s = wall_s;
      t_digest = o.digest;
      t_checks = o.checks @ checks;
      t_layers =
        rp.r_layers
        @ [
            ("gc.minor_ms", Gc_phases.minor_ms gcp);
            ("gc.major_ms", Gc_phases.major_ms gcp);
            ("netsim.flow_tombstones_peak", float_of_int lbr.tombstones_peak);
            ("maglev.lookups", float_of_int !lookups);
          ];
      t_self =
        rp.r_self
        @ [
            ("gc.minor", Gc_phases.minor_ms gcp /. 1e3);
            ("gc.major", Gc_phases.major_ms gcp /. 1e3);
          ];
    } )

(* --- Command line ------------------------------------------------------ *)

let checks_json checks =
  L
    (List.map
       (fun c ->
         O [ ("name", S c.name); ("ok", B c.ok); ("detail", S c.detail) ])
       checks)

let floats kv = O (List.map (fun (k, v) -> (k, F v)) kv)

let usage () =
  prerr_endline
    "usage: perfbench (run|trace|setup) --workload fig3|flows|faults \
     --seed N [--spans FILE] [--run-id ID] [--tamper]";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let mode, rest = match args with m :: r -> (m, r) | [] -> usage () in
  let workload = ref None and seed = ref None in
  let spans = ref None and run_id = ref "run" and tamper = ref false in
  let rec parse = function
    | "--workload" :: v :: r ->
        workload := workload_of_string v;
        parse r
    | "--seed" :: v :: r ->
        seed := int_of_string_opt v;
        parse r
    | "--spans" :: v :: r ->
        spans := Some v;
        parse r
    | "--run-id" :: v :: r ->
        run_id := v;
        parse r
    | "--tamper" :: r ->
        tamper := true;
        parse r
    | [] -> ()
    | _ -> usage ()
  in
  parse rest;
  let w, seed =
    match (!workload, !seed) with
    | Some w, Some s when s >= 0 -> (w, s)
    | _ -> usage ()
  in
  let base = [ ("workload", S (workload_name w)); ("seed", I seed) ] in
  match mode with
  | "setup" ->
      let times = List.init setups_per_call (fun _ -> setup_once w ~seed) in
      print_json (O (base @ [ ("samples", L (List.map (fun t -> F t) times)) ]))
  | "run" ->
      let o = run_untraced w ~seed in
      let checks =
        if !tamper then
          (* Self-test hook: one response too many must break
             conservation. *)
          fst
            (conservation ~sent:o.attempted ~received:(o.responses + 1)
               ~errors:0 ~logged:o.responses ~served:o.attempted)
          :: o.checks
        else o.checks
      in
      print_json
        (O
           (base
           @ [
               ("wall_s", F o.wall_s);
               ("cpu_s", F o.cpu_s);
               ("responses", I o.responses);
               ("sim_rps", F (float_of_int o.responses /. o.cpu_s));
               ("peak_rss_mb", F (peak_rss_mb ()));
               ("attempted", I o.attempted);
               ("failed", I o.failed);
               ("checks", checks_json checks);
               ("digest", S o.digest);
               ("exact", O o.exact);
               ("layers", floats o.layers);
             ]))
  | "trace" ->
      let tr, t =
        match w with
        | Fig3 | Faults -> run_traced_scenario w ~seed ~run_id:!run_id
        | Flows -> run_traced_flows ~seed ~run_id:!run_id
      in
      Option.iter (Span.write tr) !spans;
      print_json
        (O
           (base
           @ [
               ("wall_s", F t.t_wall_s);
               ("digest", S t.t_digest);
               ("checks", checks_json t.t_checks);
               ("layers", floats t.t_layers);
               ("self_s", floats t.t_self);
               ("span_self_s", floats (Span.self_times tr));
             ]))
  | _ -> usage ()
