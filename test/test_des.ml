(* Tests for the discrete-event simulation core. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Time -------------------------------------------------------------- *)

let time_units () =
  check_int "us" 1_000 (Des.Time.us 1);
  check_int "ms" 1_000_000 (Des.Time.ms 1);
  check_int "sec" 1_000_000_000 (Des.Time.sec 1);
  check_int "ns" 7 (Des.Time.ns 7)

let time_float_roundtrip () =
  let t = Des.Time.of_float_s 1.5 in
  check_int "1.5s in ns" 1_500_000_000 t;
  Alcotest.(check (float 1e-9)) "back to s" 1.5 (Des.Time.to_float_s t);
  Alcotest.(check (float 1e-6)) "us view" 1.5e6 (Des.Time.to_float_us t);
  Alcotest.(check (float 1e-6)) "ms view" 1.5e3 (Des.Time.to_float_ms t)

let time_pp () =
  let s t = Fmt.str "%a" Des.Time.pp t in
  Alcotest.(check string) "ns" "12ns" (s 12);
  Alcotest.(check string) "us" "1.500us" (s 1500);
  Alcotest.(check string) "ms" "2.000ms" (s (Des.Time.ms 2));
  Alcotest.(check string) "s" "3.000s" (s (Des.Time.sec 3))

(* --- Rng --------------------------------------------------------------- *)

let rng_deterministic () =
  let a = Des.Rng.create ~seed:42 and b = Des.Rng.create ~seed:42 in
  let draws rng = List.init 20 (fun _ -> Des.Rng.int rng 1000) in
  Alcotest.(check (list int)) "same seed, same stream" (draws a) (draws b)

let rng_split_independent () =
  (* Drawing from one child must not perturb a sibling. *)
  let parent1 = Des.Rng.create ~seed:7 in
  let a1 = Des.Rng.split parent1 ~label:"a" in
  let b1 = Des.Rng.split parent1 ~label:"b" in
  ignore (List.init 100 (fun _ -> Des.Rng.int a1 10));
  let b1_draws = List.init 10 (fun _ -> Des.Rng.int b1 1000) in
  let parent2 = Des.Rng.create ~seed:7 in
  let b2 = Des.Rng.split parent2 ~label:"b" in
  let b2_draws = List.init 10 (fun _ -> Des.Rng.int b2 1000) in
  Alcotest.(check (list int)) "sibling unaffected" b2_draws b1_draws

let rng_split_labels_differ () =
  let parent = Des.Rng.create ~seed:7 in
  let a = Des.Rng.split parent ~label:"a" in
  let b = Des.Rng.split parent ~label:"b" in
  let da = List.init 10 (fun _ -> Des.Rng.int a 1_000_000) in
  let db = List.init 10 (fun _ -> Des.Rng.int b 1_000_000) in
  check_bool "different labels, different streams" true (da <> db)

let rng_bounds =
  QCheck.Test.make ~count:200 ~name:"rng draws stay in range"
    QCheck.(pair small_int (int_bound 1000))
    (fun (seed, bound) ->
      let bound = bound + 1 in
      let rng = Des.Rng.create ~seed in
      let v = Des.Rng.int rng bound in
      let f = Des.Rng.float rng 3.5 in
      let u = Des.Rng.uniform rng ~lo:2.0 ~hi:4.0 in
      v >= 0 && v < bound && f >= 0.0 && f < 3.5 && u >= 2.0 && u < 4.0)

let rng_exponential_mean () =
  let rng = Des.Rng.create ~seed:11 in
  let n = 20_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Des.Rng.exponential rng ~mean:50.0
  done;
  let mean = !sum /. float_of_int n in
  check_bool "mean within 5%" true (Float.abs (mean -. 50.0) < 2.5)

let rng_gaussian_moments () =
  let rng = Des.Rng.create ~seed:12 in
  let n = 20_000 in
  let acc = Stats.Welford.create () in
  for _ = 1 to n do
    Stats.Welford.add acc (Des.Rng.gaussian rng ~mean:10.0 ~stddev:3.0)
  done;
  check_bool "mean" true (Float.abs (Stats.Welford.mean acc -. 10.0) < 0.1);
  check_bool "stddev" true (Float.abs (Stats.Welford.stddev acc -. 3.0) < 0.1)

(* --- Engine ------------------------------------------------------------ *)

let engine_orders_events () =
  let e = Des.Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 30) (note "c"));
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 10) (note "a"));
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 20) (note "b"));
  Des.Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let engine_fifo_same_time () =
  let e = Des.Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    ignore
      (Des.Engine.schedule e ~at:(Des.Time.us 5) (fun () -> log := i :: !log))
  done;
  Des.Engine.run e;
  Alcotest.(check (list int))
    "same-instant events fire in scheduling order"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ]
    (List.rev !log)

let engine_clock_advances () =
  let e = Des.Engine.create () in
  let seen = ref (-1) in
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.ms 3) (fun () ->
         seen := Des.Engine.now e));
  Des.Engine.run e;
  check_int "now inside event" (Des.Time.ms 3) !seen;
  check_int "now after drain" (Des.Time.ms 3) (Des.Engine.now e)

let engine_run_until () =
  let e = Des.Engine.create () in
  let fired = ref 0 in
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 1) (fun () -> incr fired));
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 5) (fun () -> incr fired));
  Des.Engine.run ~until:(Des.Time.ms 2) e;
  check_int "only first fired" 1 !fired;
  check_int "clock at limit" (Des.Time.ms 2) (Des.Engine.now e);
  check_int "one pending" 1 (Des.Engine.pending e);
  Des.Engine.run e;
  check_int "rest fired" 2 !fired

let engine_cancel () =
  let e = Des.Engine.create () in
  let fired = ref false in
  let h = Des.Engine.schedule e ~at:(Des.Time.ms 1) (fun () -> fired := true) in
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 2) (fun () -> ()));
  Des.Engine.cancel h;
  check_int "cancelled excluded while still queued" 1 (Des.Engine.pending e);
  Des.Engine.run e;
  check_bool "cancelled never fires" false !fired;
  check_int "pending zero" 0 (Des.Engine.pending e)

let engine_schedule_in_past_rejected () =
  let e = Des.Engine.create () in
  ignore (Des.Engine.schedule e ~at:(Des.Time.ms 2) (fun () -> ()));
  Des.Engine.run e;
  Alcotest.check_raises "past raises"
    (Invalid_argument "Engine.schedule: at=1.000ms is before now=2.000ms")
    (fun () -> ignore (Des.Engine.schedule e ~at:(Des.Time.ms 1) (fun () -> ())))

let engine_negative_delay_rejected () =
  let e = Des.Engine.create () in
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Engine.schedule_after: negative delay") (fun () ->
      ignore (Des.Engine.schedule_after e ~delay:(-1) (fun () -> ())))

let engine_nested_scheduling () =
  let e = Des.Engine.create () in
  let log = ref [] in
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.us 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Des.Engine.schedule_after e ~delay:(Des.Time.us 1) (fun () ->
                log := "inner" :: !log))));
  Des.Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  check_int "events fired" 2 (Des.Engine.events_fired e)

let engine_step () =
  let e = Des.Engine.create () in
  check_bool "step on empty" false (Des.Engine.step e);
  ignore (Des.Engine.schedule e ~at:(Des.Time.us 1) (fun () -> ()));
  check_bool "step fires" true (Des.Engine.step e);
  check_bool "drained" false (Des.Engine.step e)

let engine_qcheck_order =
  QCheck.Test.make ~count:100
    ~name:"engine fires any schedule set in nondecreasing time order"
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let e = Des.Engine.create () in
      let seen = ref [] in
      List.iter
        (fun t ->
          ignore (Des.Engine.schedule e ~at:t (fun () -> seen := t :: !seen)))
        times;
      Des.Engine.run e;
      List.rev !seen = List.sort Int.compare times)

let engine_qcheck_exact_order =
  (* Stronger than nondecreasing times: with a small time range forcing
     plenty of ties, the surviving events must fire in exactly (time,
     scheduling order) — the determinism contract the whole simulator
     rests on — no matter which subset is cancelled. *)
  QCheck.Test.make ~count:200
    ~name:"engine fires in exact (time, seq) order under cancels"
    QCheck.(list (pair (int_bound 50) bool))
    (fun items ->
      let e = Des.Engine.create () in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (t, _) ->
            Des.Engine.schedule e ~at:t (fun () -> fired := i :: !fired))
          items
      in
      List.iteri
        (fun i (_, cancelled) ->
          if cancelled then Des.Engine.cancel (List.nth handles i))
        items;
      Des.Engine.run e;
      let expected =
        List.mapi (fun i (t, cancelled) -> (t, i, cancelled)) items
        |> List.filter (fun (_, _, cancelled) -> not cancelled)
        |> List.stable_sort (fun (t1, _, _) (t2, _, _) -> Int.compare t1 t2)
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !fired = expected)

let engine_cancel_heavy_queue_bounded () =
  (* A timer re-armed per packet is the worst case for tombstones. Times
     beyond the wheel span overflow to the heap, so this exercises the
     tombstone + compaction path: the queue must stay proportional to
     the live event count (compaction invariant: tombstones are at most
     half the queue once it reaches the compaction floor of 64). *)
  let far = Des.Wheel.span_ns * 2 in
  let e = Des.Engine.create () in
  let h = ref None in
  for i = 1 to 20_000 do
    (match !h with Some h -> Des.Engine.cancel h | None -> ());
    h := Some (Des.Engine.schedule e ~at:(i + far) (fun () -> ()));
    if i mod 500 = 0 then begin
      Des.Engine.run ~until:i e;
      let q = Des.Engine.queue_length e and p = Des.Engine.pending e in
      if q > Stdlib.max 64 (2 * p) then
        Alcotest.failf "queue_length %d not bounded by pending %d" q p
    end
  done;
  check_int "overflow events stay out of the wheel" 0 (Des.Engine.wheel_size e);
  check_bool "compaction ran" true (Des.Engine.compactions e > 0);
  check_int "exactly one live event" 1 (Des.Engine.pending e)

(* --- Timing wheel ------------------------------------------------------- *)

let wheel_cancel_heavy_no_tombstones () =
  (* The same re-arm-per-packet workload at RTO-like horizons parks in
     the timing wheel: cancels unlink in O(1), so the heap accumulates
     no tombstones and never compacts. *)
  let e = Des.Engine.create () in
  let h = ref None in
  for i = 1 to 20_000 do
    (match !h with Some h -> Des.Engine.cancel h | None -> ());
    h := Some (Des.Engine.schedule e ~at:(i + Des.Time.ms 200) (fun () -> ()));
    if i mod 500 = 0 then begin
      Des.Engine.run ~until:i e;
      check_int "timer parked in wheel" 1 (Des.Engine.wheel_size e);
      check_int "heap untouched" 0 (Des.Engine.queue_length e)
    end
  done;
  check_int "no compactions" 0 (Des.Engine.compactions e);
  check_int "one live event" 1 (Des.Engine.pending e);
  let fired = ref false in
  (match !h with Some h -> Des.Engine.cancel h | None -> ());
  ignore
    (Des.Engine.schedule_after e ~delay:(Des.Time.ms 1) (fun () ->
         fired := true));
  Des.Engine.run e;
  check_bool "wheel timer fires after drain" true !fired;
  check_int "drained" 0 (Des.Engine.pending e)

let wheel_levels_fire_in_order () =
  (* Delays spanning all three wheel levels plus sub-tick and
     beyond-span overflow times must still fire in exact global time
     order, with ties broken by scheduling order. *)
  let delays =
    [
      (* sub-tick: straight to slot 0 / heap *)
      1;
      Des.Wheel.tick_ns - 1;
      (* level 0 *)
      Des.Wheel.tick_ns * 3;
      (Des.Wheel.tick_ns * 200) + 17;
      (* level 1 *)
      Des.Wheel.tick_ns * 300;
      Des.Wheel.tick_ns * 65_000;
      (* level 2 *)
      Des.Wheel.tick_ns * 70_000;
      Des.Wheel.tick_ns * 16_000_000;
      (* overflow: heap *)
      Des.Wheel.span_ns + 5;
      Des.Wheel.span_ns * 3;
      (* duplicates to exercise (time, seq) ties across routes *)
      Des.Wheel.tick_ns * 3;
      1;
    ]
  in
  let e = Des.Engine.create () in
  let fired = ref [] in
  List.iteri
    (fun i d ->
      ignore
        (Des.Engine.schedule e ~at:d (fun () ->
             fired := (d, i) :: !fired)))
    delays;
  Des.Engine.run e;
  let expected =
    List.mapi (fun i d -> (d, i)) delays
    |> List.stable_sort (fun (d1, _) (d2, _) -> Int.compare d1 d2)
  in
  Alcotest.(check (list (pair int int)))
    "exact (time, seq) order across wheel levels" expected (List.rev !fired);
  check_bool "wheel cascaded" true (Des.Engine.wheel_cascades e > 0)

let wheel_run_until_leaves_far_timers_parked () =
  (* [run ~until] must not flush wheel entries beyond the limit into the
     heap — otherwise parked timers lose their O(1) cancel. *)
  let e = Des.Engine.create () in
  let h =
    Des.Engine.schedule e ~at:(Des.Time.sec 1) (fun () -> assert false)
  in
  Des.Engine.run ~until:(Des.Time.ms 10) e;
  check_int "still parked" 1 (Des.Engine.wheel_size e);
  check_int "heap empty" 0 (Des.Engine.queue_length e);
  check_int "clock at limit" (Des.Time.ms 10) (Des.Engine.now e);
  Des.Engine.cancel h;
  check_int "cancel unlinks" 0 (Des.Engine.pending e);
  Des.Engine.run e;
  check_int "nothing fires" 0 (Des.Engine.events_fired e)

let wheel_cancel_midflight_after_cascade () =
  (* Cancelling an entry that has already cascaded to a lower level (or
     been flushed to the heap) must still be honoured. *)
  let e = Des.Engine.create () in
  let fired = ref 0 in
  let far = Des.Engine.schedule e ~at:(Des.Time.sec 2) (fun () -> incr fired) in
  let near =
    Des.Engine.schedule e ~at:(Des.Time.sec 1) (fun () ->
        incr fired;
        (* [far] has cascaded at least once by now; cancel must unlink
           it wherever it currently lives. *)
        Des.Engine.cancel far)
  in
  ignore near;
  Des.Engine.run e;
  check_int "only the near timer fired" 1 !fired;
  check_int "drained" 0 (Des.Engine.pending e)

let engine_qcheck_exact_order_wheel =
  (* The exact-order property again, over a time range wide enough that
     events are routed through every wheel level and the overflow heap,
     interleaved with cancels. *)
  QCheck.Test.make ~count:100
    ~name:"exact (time, seq) order across wheel levels under cancels"
    QCheck.(list (pair (int_bound (Des.Wheel.span_ns + 100_000)) bool))
    (fun items ->
      let e = Des.Engine.create () in
      let fired = ref [] in
      let handles =
        List.mapi
          (fun i (t, _) ->
            Des.Engine.schedule e ~at:t (fun () -> fired := i :: !fired))
          items
      in
      List.iteri
        (fun i (_, cancelled) ->
          if cancelled then Des.Engine.cancel (List.nth handles i))
        items;
      Des.Engine.run e;
      let expected =
        List.mapi (fun i (t, cancelled) -> (t, i, cancelled)) items
        |> List.filter (fun (_, _, cancelled) -> not cancelled)
        |> List.stable_sort (fun (t1, _, _) (t2, _, _) -> Int.compare t1 t2)
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !fired = expected)

(* --- Queue model ------------------------------------------------------- *)

(* One generated program runs against the engine and against a
   reference queue: an unordered list scanned for its (time, seq)
   minimum on every step. Both must fire the same labels at the same
   instants, and agree on [pending] after every operation. *)

type act =
  | Nothing
  | Post_child of int (* delay *)
  | Sched_child of int
  | Cancel_handle of int (* index into the handles made so far *)
  | Arm_timer of int * int (* timer, delay *)

type op =
  | Post of int * act
  | Sched of int * act
  | Cancel of int
  | Arm of int * int
  | Stop of int
  | Run_until of int (* delta from now *)
  | Steps of int
  | Storm of int (* schedule this many heap-resident events, cancel most *)

(* What a program sees of a simulator; handles are indices in creation
   order, which both sides share as long as they agree. *)
type sim = {
  now : unit -> int;
  post : at:int -> (unit -> unit) -> unit;
  schedule : at:int -> (unit -> unit) -> unit;
  cancel : int -> unit;
  handles : unit -> int; (* handles made so far *)
  arm : int -> at:int -> unit;
  stop : int -> unit;
  run_until : int -> unit;
  step : unit -> bool;
  pending : unit -> int;
}

let n_timers = 3

let engine_sim log =
  let e = Des.Engine.create () in
  let handles = Hashtbl.create 64 in
  let timers =
    Array.init n_timers (fun k ->
        Des.Timer.create e ~f:(fun () -> log (-1 - k) (Des.Engine.now e)))
  in
  ( e,
    {
      now = (fun () -> Des.Engine.now e);
      post = (fun ~at f -> Des.Engine.post e ~at f);
      schedule =
        (fun ~at f ->
          Hashtbl.add handles (Hashtbl.length handles)
            (Des.Engine.schedule e ~at f));
      cancel =
        (fun i ->
          let n = Hashtbl.length handles in
          if n > 0 then Des.Engine.cancel (Hashtbl.find handles (i mod n)));
      handles = (fun () -> Hashtbl.length handles);
      arm =
        (fun k ~at ->
          Des.Timer.arm timers.(k) ~delay:(at - Des.Engine.now e));
      stop = (fun k -> Des.Timer.stop timers.(k));
      run_until = (fun limit -> Des.Engine.run ~until:limit e);
      step = (fun () -> Des.Engine.step e);
      pending = (fun () -> Des.Engine.pending e);
    } )

type ref_event = {
  time : int;
  seq : int;
  mutable live : bool;
  f : unit -> unit;
}

let reference_sim log =
  let now = ref 0 and next_seq = ref 0 and queue = ref [] in
  let handles = Hashtbl.create 64 in
  let timers = Array.make n_timers None in
  let add ~at f =
    assert (at >= !now);
    let ev = { time = at; seq = !next_seq; live = true; f } in
    incr next_seq;
    queue := ev :: !queue;
    ev
  in
  let cancel ev = ev.live <- false in
  let step () =
    queue := List.filter (fun ev -> ev.live) !queue;
    match !queue with
    | [] -> false
    | first :: _ ->
        let ev =
          List.fold_left
            (fun m ev ->
              if ev.time < m.time || (ev.time = m.time && ev.seq < m.seq)
              then ev
              else m)
            first !queue
        in
        ev.live <- false;
        now := ev.time;
        ev.f ();
        true
  in
  let next_time () =
    List.fold_left
      (fun m ev -> if ev.live then Stdlib.min m ev.time else m)
      max_int !queue
  in
  {
    now = (fun () -> !now);
    post = (fun ~at f -> ignore (add ~at f));
    schedule =
      (fun ~at f -> Hashtbl.add handles (Hashtbl.length handles) (add ~at f));
    cancel =
      (fun i ->
        let n = Hashtbl.length handles in
        if n > 0 then cancel (Hashtbl.find handles (i mod n)));
    handles = (fun () -> Hashtbl.length handles);
    arm =
      (fun k ~at ->
        Option.iter cancel timers.(k);
        timers.(k) <-
          Some
            (add ~at (fun () ->
                 timers.(k) <- None;
                 log (-1 - k) !now)));
    stop =
      (fun k ->
        Option.iter cancel timers.(k);
        timers.(k) <- None);
    run_until =
      (fun limit ->
        while next_time () <= limit do
          ignore (step ())
        done;
        now := Stdlib.max !now limit);
    step;
    pending =
      (fun () -> List.length (List.filter (fun ev -> ev.live) !queue));
  }

(* Run [prog] on [sim]; labels are op indices, children 10_000 + index,
   storm members 20_000 + index, timers negative. *)
let exec sim log prog =
  let fire label act () =
    log label (sim.now ());
    match act with
    | Nothing -> ()
    | Post_child d ->
        sim.post ~at:(sim.now () + d) (fun () ->
            log (10_000 + label) (sim.now ()))
    | Sched_child d ->
        sim.schedule ~at:(sim.now () + d) (fun () ->
            log (10_000 + label) (sim.now ()))
    | Cancel_handle i -> sim.cancel i
    | Arm_timer (k, d) -> sim.arm k ~at:(sim.now () + d)
  in
  let pendings = ref [] in
  List.iteri
    (fun i op ->
      (match op with
      | Post (d, act) -> sim.post ~at:(sim.now () + d) (fire i act)
      | Sched (d, act) -> sim.schedule ~at:(sim.now () + d) (fire i act)
      | Cancel h -> sim.cancel h
      | Arm (k, d) -> sim.arm k ~at:(sim.now () + d)
      | Stop k -> sim.stop k
      | Run_until d -> sim.run_until (sim.now () + d)
      | Steps n ->
          for _ = 1 to n do
            ignore (sim.step ())
          done
      | Storm n ->
          (* The wheel's origin can run ahead of the clock by up to the
             longest delay in the program (about one span), so three
             spans out the storm is sure to overflow to the heap.
             Cancelling all but every fifth leaves tombstones past the
             compaction threshold. *)
          let base = sim.handles () in
          for j = 0 to n - 1 do
            sim.schedule ~at:(sim.now () + (3 * Des.Wheel.span_ns) + (j mod 50))
              (fun () ->
                log (20_000 + i) (sim.now ()))
          done;
          for j = 0 to n - 1 do
            if j mod 5 <> 0 then sim.cancel (base + j)
          done);
      pendings := sim.pending () :: !pendings)
    prog;
  while sim.step () do
    ()
  done;
  List.rev !pendings

let gen_delay =
  let open QCheck.Gen in
  frequency
    [
      (6, int_bound 200) (* heap-resident, plenty of ties *);
      (3, int_bound (Des.Wheel.tick_ns * 300)) (* wheel levels 0-1 *);
      (1, map (fun d -> Des.Wheel.span_ns + d) (int_bound 1000)) (* overflow *);
    ]

let gen_act =
  let open QCheck.Gen in
  frequency
    [
      (4, return Nothing);
      (2, map (fun d -> Post_child d) gen_delay);
      (2, map (fun d -> Sched_child d) gen_delay);
      (2, map (fun i -> Cancel_handle i) nat);
      ( 2,
        map2 (fun k d -> Arm_timer (k, d)) (int_bound (n_timers - 1)) gen_delay
      );
    ]

let gen_op =
  let open QCheck.Gen in
  frequency
    [
      (4, map2 (fun d a -> Post (d, a)) gen_delay gen_act);
      (4, map2 (fun d a -> Sched (d, a)) gen_delay gen_act);
      (3, map (fun i -> Cancel i) nat);
      (2, map2 (fun k d -> Arm (k, d)) (int_bound (n_timers - 1)) gen_delay);
      (1, map (fun k -> Stop k) (int_bound (n_timers - 1)));
      (1, map (fun d -> Run_until d) gen_delay);
      (1, map (fun n -> Steps n) (int_bound 8));
    ]

(* Every program holds at least one cancel storm, big enough (150+ heap
   entries, four in five cancelled) to force a compaction. *)
let gen_prog =
  let open QCheck.Gen in
  map3
    (fun pre storm post -> pre @ (Storm storm :: post))
    (list_size (int_bound 60) gen_op)
    (int_range 150 300)
    (list_size (int_bound 60) gen_op)

let engine_matches_reference_model =
  QCheck.Test.make ~count:300
    ~name:"engine matches a sorted reference under mixed operations"
    (QCheck.make gen_prog)
    (fun prog ->
      let got = ref [] and want = ref [] in
      let log r l at = r := (l, at) :: !r in
      let e, sim = engine_sim (log got) in
      let sim_pending = exec sim (log got) prog in
      let ref_pending = exec (reference_sim (log want)) (log want) prog in
      if Des.Engine.compactions e = 0 then
        QCheck.Test.fail_report "the cancel storm did not compact";
      if sim_pending <> ref_pending then
        QCheck.Test.fail_report "pending diverged from the reference";
      List.rev !got = List.rev !want)

(* --- Allocation --------------------------------------------------------- *)

let words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

let engine_post_step_zero_alloc () =
  (* Flow-scale steady state: 840 events pending, each step fires one
     and posts its successor. With the caller's closure hoisted, the
     queue itself must allocate nothing. *)
  let e = Des.Engine.create () in
  let rec f () = Des.Engine.post_after e ~delay:997 f in
  for i = 1 to 840 do
    Des.Engine.post e ~at:i f
  done;
  for _ = 1 to 10_000 do
    ignore (Des.Engine.step e)
  done;
  let w =
    words (fun () ->
        for _ = 1 to 100_000 do
          ignore (Des.Engine.step e)
        done)
  in
  if w <> 0.0 then Alcotest.failf "post+step allocated %.0f minor words" w;
  check_int "still 840 pending" 840 (Des.Engine.pending e)

let timer_arm_zero_alloc () =
  (* RTO-style re-arming, parked in the wheel, and re-arming beyond the
     wheel's span, which leaves heap tombstones behind: neither
     allocates. *)
  let e = Des.Engine.create () in
  let t = Des.Timer.create e ~f:(fun () -> ()) in
  let rearm delay () =
    for _ = 1 to 10_000 do
      Des.Timer.arm t ~delay
    done
  in
  rearm (Des.Time.ms 200) ();
  let far = Des.Wheel.span_ns * 2 in
  rearm far ();
  let w_wheel = words (rearm (Des.Time.ms 200)) in
  let w_heap = words (rearm far) in
  if w_wheel <> 0.0 then
    Alcotest.failf "wheel re-arm allocated %.0f minor words" w_wheel;
  if w_heap <> 0.0 then
    Alcotest.failf "heap re-arm allocated %.0f minor words" w_heap;
  check_bool "compacted" true (Des.Engine.compactions e > 0);
  check_int "one pending" 1 (Des.Engine.pending e);
  Des.Engine.run e;
  check_bool "fired and disarmed" false (Des.Timer.is_armed t)

(* --- Timer ------------------------------------------------------------- *)

let timer_one_shot () =
  let e = Des.Engine.create () in
  let fired = ref 0 in
  let t = Des.Timer.create e ~f:(fun () -> incr fired) in
  Des.Timer.arm t ~delay:(Des.Time.ms 1);
  check_bool "armed" true (Des.Timer.is_armed t);
  Des.Engine.run e;
  check_int "fired once" 1 !fired;
  check_bool "disarmed after fire" false (Des.Timer.is_armed t)

let timer_rearm_resets () =
  let e = Des.Engine.create () in
  let fire_time = ref 0 in
  let t = Des.Timer.create e ~f:(fun () -> fire_time := Des.Engine.now e) in
  Des.Timer.arm t ~delay:(Des.Time.ms 1);
  (* Re-arm at t=0.5ms for 2ms more: expiry moves to 2.5ms. *)
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.us 500) (fun () ->
         Des.Timer.arm t ~delay:(Des.Time.ms 2)));
  Des.Engine.run e;
  check_int "re-armed expiry" (Des.Time.us 2500) !fire_time

let timer_stop () =
  let e = Des.Engine.create () in
  let fired = ref false in
  let t = Des.Timer.create e ~f:(fun () -> fired := true) in
  Des.Timer.arm t ~delay:(Des.Time.ms 1);
  Des.Timer.stop t;
  Des.Timer.stop t;
  Des.Engine.run e;
  check_bool "stopped" false !fired

let timer_every () =
  let e = Des.Engine.create () in
  let fires = ref [] in
  let t =
    Des.Timer.every e ~period:(Des.Time.ms 2) (fun () ->
        fires := Des.Engine.now e :: !fires)
  in
  ignore
    (Des.Engine.schedule e ~at:(Des.Time.ms 7) (fun () -> Des.Timer.stop t));
  Des.Engine.run ~until:(Des.Time.ms 20) e;
  Alcotest.(check (list int))
    "periodic fires until stopped"
    [ Des.Time.ms 2; Des.Time.ms 4; Des.Time.ms 6 ]
    (List.rev !fires)

let timer_every_start () =
  let e = Des.Engine.create () in
  let fires = ref [] in
  let t =
    Des.Timer.every e ~period:(Des.Time.ms 5) ~start:(Des.Time.ms 1)
      (fun () -> fires := Des.Engine.now e :: !fires)
  in
  Des.Engine.run ~until:(Des.Time.ms 12) e;
  Des.Timer.stop t;
  Alcotest.(check (list int))
    "custom start"
    [ Des.Time.ms 1; Des.Time.ms 6; Des.Time.ms 11 ]
    (List.rev !fires)

let () =
  Alcotest.run "des"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick time_units;
          Alcotest.test_case "float roundtrip" `Quick time_float_roundtrip;
          Alcotest.test_case "pp" `Quick time_pp;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick rng_deterministic;
          Alcotest.test_case "split independent" `Quick rng_split_independent;
          Alcotest.test_case "split labels differ" `Quick rng_split_labels_differ;
          Alcotest.test_case "exponential mean" `Quick rng_exponential_mean;
          Alcotest.test_case "gaussian moments" `Quick rng_gaussian_moments;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ rng_bounds ] );
      ( "engine",
        [
          Alcotest.test_case "orders events" `Quick engine_orders_events;
          Alcotest.test_case "fifo same time" `Quick engine_fifo_same_time;
          Alcotest.test_case "clock advances" `Quick engine_clock_advances;
          Alcotest.test_case "run until" `Quick engine_run_until;
          Alcotest.test_case "cancel" `Quick engine_cancel;
          Alcotest.test_case "past rejected" `Quick engine_schedule_in_past_rejected;
          Alcotest.test_case "negative delay rejected" `Quick
            engine_negative_delay_rejected;
          Alcotest.test_case "nested scheduling" `Quick engine_nested_scheduling;
          Alcotest.test_case "step" `Quick engine_step;
          Alcotest.test_case "cancel-heavy queue bounded" `Quick
            engine_cancel_heavy_queue_bounded;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ engine_qcheck_order; engine_qcheck_exact_order ] );
      ( "wheel",
        [
          Alcotest.test_case "cancel-heavy leaves heap clean" `Quick
            wheel_cancel_heavy_no_tombstones;
          Alcotest.test_case "levels fire in order" `Quick
            wheel_levels_fire_in_order;
          Alcotest.test_case "run-until keeps far timers parked" `Quick
            wheel_run_until_leaves_far_timers_parked;
          Alcotest.test_case "cancel after cascade" `Quick
            wheel_cancel_midflight_after_cascade;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ engine_qcheck_exact_order_wheel ] );
      ( "model",
        [
          Alcotest.test_case "post+step allocates nothing" `Quick
            engine_post_step_zero_alloc;
          Alcotest.test_case "timer re-arm allocates nothing" `Quick
            timer_arm_zero_alloc;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ engine_matches_reference_model ] );
      ( "timer",
        [
          Alcotest.test_case "one shot" `Quick timer_one_shot;
          Alcotest.test_case "rearm resets" `Quick timer_rearm_resets;
          Alcotest.test_case "stop" `Quick timer_stop;
          Alcotest.test_case "every" `Quick timer_every;
          Alcotest.test_case "every with start" `Quick timer_every_start;
        ] );
    ]
