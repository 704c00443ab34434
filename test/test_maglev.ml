(* Tests for Maglev hashing, permutations, table population (incl.
   weights) and the pool. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Hashing ----------------------------------------------------------- *)

let hash_deterministic () =
  check_int "stable across calls"
    (Maglev.Hashing.string ~seed:1 "backend-a")
    (Maglev.Hashing.string ~seed:1 "backend-a");
  check_bool "seed changes hash" true
    (Maglev.Hashing.string ~seed:1 "x" <> Maglev.Hashing.string ~seed:2 "x");
  check_bool "name changes hash" true
    (Maglev.Hashing.string ~seed:1 "x" <> Maglev.Hashing.string ~seed:1 "y");
  check_bool "non-negative" true (Maglev.Hashing.string ~seed:1 "z" >= 0);
  check_bool "int hash non-negative" true (Maglev.Hashing.int ~seed:3 (-5) >= 0)

let primes () =
  List.iter
    (fun (n, expect) ->
      check_bool (Fmt.str "is_prime %d" n) expect (Maglev.Hashing.is_prime n))
    [ (0, false); (1, false); (2, true); (3, true); (4, false); (17, true);
      (25, false); (4099, true); (65537, true); (65536, false) ];
  check_int "next_prime 4096" 4099 (Maglev.Hashing.next_prime 4096);
  check_int "next_prime of a prime" 17 (Maglev.Hashing.next_prime 17)

(* --- Permutation -------------------------------------------------------- *)

let permutation_is_permutation () =
  let size = 101 in
  let p = Maglev.Permutation.create ~name:"backend-7" ~size in
  let seen = Array.make size false in
  for _ = 1 to size do
    let slot = Maglev.Permutation.next p in
    check_bool "in range" true (slot >= 0 && slot < size);
    check_bool "no repeat within a period" false seen.(slot);
    seen.(slot) <- true
  done;
  check_bool "covers all slots" true (Array.for_all (fun b -> b) seen)

let permutation_wraps_and_resets () =
  let size = 13 in
  let p = Maglev.Permutation.create ~name:"b" ~size in
  let first = Maglev.Permutation.next p in
  for _ = 1 to size - 1 do
    ignore (Maglev.Permutation.next p)
  done;
  check_int "wraps to the same sequence" first (Maglev.Permutation.next p);
  Maglev.Permutation.reset p;
  check_int "reset rewinds" first (Maglev.Permutation.next p)

let permutation_nth_pure () =
  let p = Maglev.Permutation.create ~name:"c" ~size:11 in
  let third = Maglev.Permutation.nth p 3 in
  ignore (Maglev.Permutation.next p);
  check_int "nth ignores cursor" third (Maglev.Permutation.nth p 3)

let permutation_requires_prime () =
  Alcotest.check_raises "composite size"
    (Invalid_argument "Permutation.create: size must be a prime >= 3")
    (fun () -> ignore (Maglev.Permutation.create ~name:"x" ~size:10))

let permutation_qcheck =
  QCheck.Test.make ~count:100 ~name:"every backend name yields a permutation"
    QCheck.(string_of_size Gen.(int_range 1 20))
    (fun name ->
      let size = 53 in
      let p = Maglev.Permutation.create ~name ~size in
      let seen = Array.make size false in
      let ok = ref true in
      for _ = 1 to size do
        let s = Maglev.Permutation.next p in
        if seen.(s) then ok := false;
        seen.(s) <- true
      done;
      !ok)

(* --- Table --------------------------------------------------------------- *)

let backends_of n = Array.init n (fun i -> (Fmt.str "server-%d" i, 1.0))

let table_fills_every_slot () =
  let table = Maglev.Table.populate ~size:1021 ~backends:(backends_of 5) () in
  check_int "size" 1021 (Array.length table);
  Array.iter (fun owner -> check_bool "owned" true (owner >= 0 && owner < 5)) table

let table_equal_weights_near_equal_shares () =
  let n = 7 in
  let table = Maglev.Table.populate ~size:4099 ~backends:(backends_of n) () in
  let shares = Maglev.Table.slot_shares table ~n in
  Array.iter
    (fun s ->
      check_bool
        (Fmt.str "share %.4f within 2%% of 1/%d" s n)
        true
        (Float.abs (s -. (1.0 /. float_of_int n)) < 0.02))
    shares

let table_weighted_shares_proportional () =
  let backends = [| ("a", 3.0); ("b", 1.0) |] in
  let table = Maglev.Table.populate ~size:4099 ~backends () in
  let shares = Maglev.Table.slot_shares table ~n:2 in
  check_bool "3:1 split" true (Float.abs (shares.(0) -. 0.75) < 0.02);
  check_bool "minority" true (Float.abs (shares.(1) -. 0.25) < 0.02)

let table_zero_weight_gets_nothing () =
  let backends = [| ("a", 1.0); ("b", 0.0); ("c", 1.0) |] in
  let table = Maglev.Table.populate ~size:1021 ~backends () in
  let shares = Maglev.Table.slot_shares table ~n:3 in
  Alcotest.(check (float 1e-9)) "zero weight, zero slots" 0.0 shares.(1)

let table_weighted_qcheck =
  QCheck.Test.make ~count:50 ~name:"slot shares track arbitrary weights"
    QCheck.(list_of_size (Gen.int_range 2 8) (float_range 0.05 10.0))
    (fun weights ->
      let n = List.length weights in
      let backends =
        Array.of_list (List.mapi (fun i w -> (Fmt.str "s%d" i, w)) weights)
      in
      let table = Maglev.Table.populate ~size:4099 ~backends () in
      let shares = Maglev.Table.slot_shares table ~n in
      let total = List.fold_left ( +. ) 0.0 weights in
      List.for_all2
        (fun w s -> Float.abs (s -. (w /. total)) < 0.05)
        weights (Array.to_list shares))

let table_backend_removal_minimal_disruption () =
  (* Removing one of n backends should move ~1/n of slots, not reshuffle
     everything — Maglev's headline property. *)
  let n = 10 in
  let t1 = Maglev.Table.populate ~size:4099 ~backends:(backends_of n) () in
  let removed =
    Array.of_list
      (List.filteri (fun i _ -> i <> 3) (Array.to_list (backends_of n)))
  in
  let t2 = Maglev.Table.populate ~size:4099 ~backends:removed () in
  (* Compare by name: slot owners in t2 index a 9-element array. *)
  let name1 i = fst (backends_of n).(i) in
  let name2 i = fst removed.(i) in
  let moved = ref 0 in
  Array.iteri
    (fun slot owner1 ->
      if name1 owner1 <> name2 t2.(slot) then incr moved)
    t1;
  let fraction = float_of_int !moved /. 4099.0 in
  check_bool
    (Fmt.str "moved fraction %.3f below 0.2" fraction)
    true (fraction < 0.2)

let table_small_weight_change_small_disruption () =
  let t1 = Maglev.Table.populate ~size:4099 ~backends:[| ("a", 0.5); ("b", 0.5) |] () in
  let t2 = Maglev.Table.populate ~size:4099 ~backends:[| ("a", 0.45); ("b", 0.55) |] () in
  let d = Maglev.Table.disruption t1 t2 in
  check_bool (Fmt.str "disruption %.3f ~ 5%%" d) true (d > 0.01 && d < 0.12)

let table_errors () =
  Alcotest.check_raises "no backends"
    (Invalid_argument "Table.populate: no backends") (fun () ->
      ignore (Maglev.Table.populate ~size:11 ~backends:[||] ()));
  Alcotest.check_raises "composite size"
    (Invalid_argument "Table.populate: size must be prime") (fun () ->
      ignore (Maglev.Table.populate ~size:10 ~backends:(backends_of 2) ()));
  Alcotest.check_raises "all zero weights"
    (Invalid_argument "Table.populate: all weights <= 0") (fun () ->
      ignore (Maglev.Table.populate ~size:11 ~backends:[| ("a", 0.0) |] ()));
  Alcotest.check_raises "disruption length mismatch"
    (Invalid_argument "Table.disruption: length mismatch") (fun () ->
      ignore (Maglev.Table.disruption [| 0 |] [| 0; 1 |]))

let table_deterministic () =
  let a = Maglev.Table.populate ~size:1021 ~backends:(backends_of 4) () in
  let b = Maglev.Table.populate ~size:1021 ~backends:(backends_of 4) () in
  check_bool "same inputs, same table" true (a = b)

(* --- Pool ------------------------------------------------------------------ *)

let names n = Array.init n (fun i -> Fmt.str "server-%d" i)

let pool_basics () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  check_int "size" 3 (Maglev.Pool.size p);
  check_int "table size" 1021 (Maglev.Pool.table_size p);
  Alcotest.(check string) "name" "server-1" (Maglev.Pool.name p 1);
  Alcotest.(check (float 1e-9)) "uniform weight" (1.0 /. 3.0) (Maglev.Pool.weight p 0)

let pool_lookup_in_range () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  for h = 0 to 10_000 do
    let b = Maglev.Pool.lookup p h in
    if b < 0 || b > 2 then Alcotest.failf "lookup out of range: %d" b
  done

let pool_lookup_consistent () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  check_int "same hash, same backend" (Maglev.Pool.lookup p 12345)
    (Maglev.Pool.lookup p 12345)

let pool_rebuild_applies_weights () =
  let p = Maglev.Pool.create ~table_size:4099 ~names:(names 2) () in
  Maglev.Pool.set_weight p 0 0.9;
  Maglev.Pool.set_weight p 1 0.1;
  (* Not yet applied. *)
  let before = Maglev.Pool.slot_shares p in
  check_bool "staged only" true (Float.abs (before.(0) -. 0.5) < 0.02);
  Maglev.Pool.rebuild p;
  let after = Maglev.Pool.slot_shares p in
  check_bool "applied" true (Float.abs (after.(0) -. 0.9) < 0.02);
  check_int "rebuild counted" 1 (Maglev.Pool.rebuilds p);
  check_bool "disruption accumulated" true (Maglev.Pool.total_disruption p > 0.0)

let pool_set_weights_vector () =
  let p = Maglev.Pool.create ~table_size:1021 ~names:(names 3) () in
  Maglev.Pool.set_weights p [| 0.2; 0.3; 0.5 |];
  Maglev.Pool.rebuild p;
  let shares = Maglev.Pool.slot_shares p in
  check_bool "vector applied" true (Float.abs (shares.(2) -. 0.5) < 0.03);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Pool.set_weights: length mismatch") (fun () ->
      Maglev.Pool.set_weights p [| 1.0 |])

let pool_rebuild_allocation_bounded () =
  (* The controller rebuilds the table every control interval. A rebuild
     reuses the cached permutations and the spare table, so it may only
     allocate the transient backend list, a handful of words. *)
  let p = Maglev.Pool.create ~table_size:65537 ~names:(names 3) () in
  Maglev.Pool.set_weights p [| 0.5; 0.3; 0.2 |];
  Maglev.Pool.rebuild p;
  let before = Gc.minor_words () in
  Maglev.Pool.rebuild p;
  let words = Gc.minor_words () -. before in
  if words >= 100.0 then
    Alcotest.failf "Pool.rebuild allocated %.0f minor words" words

(* The population rule spelled out naively: backends take turns by
   deficit credit, and a claim walks the backend's permutation to its
   first free slot. *)
let reference_populate ~size ~backends =
  let n = Array.length backends in
  let perms =
    Array.map (fun (name, _) -> Maglev.Permutation.create ~name ~size) backends
  in
  let max_w = Array.fold_left (fun m (_, w) -> Float.max m w) 0.0 backends in
  let table = Array.make size (-1) and filled = ref 0 in
  let credit = Array.make n 0.0 in
  let rec claim i =
    let slot = Maglev.Permutation.next perms.(i) in
    if table.(slot) = -1 then begin
      table.(slot) <- i;
      incr filled
    end
    else claim i
  in
  while !filled < size do
    Array.iteri
      (fun i (_, w) ->
        if w > 0.0 then begin
          credit.(i) <- credit.(i) +. (w /. max_w);
          while credit.(i) >= 1.0 && !filled < size do
            credit.(i) <- credit.(i) -. 1.0;
            claim i
          done
        end)
      backends
  done;
  table

let table_matches_reference =
  QCheck.Test.make ~count:50 ~name:"populate matches the naive claim loop"
    QCheck.(list_of_size Gen.(int_range 1 6) (float_range 0.0 1.0))
    (fun weights ->
      let backends =
        Array.of_list
          (List.mapi (fun i w -> (Fmt.str "s%d" i, w)) (1.0 :: weights))
      in
      Maglev.Table.populate ~size:1021 ~backends ()
      = reference_populate ~size:1021 ~backends)

let pool_errors () =
  Alcotest.check_raises "duplicate names"
    (Invalid_argument "Pool.create: duplicate backend \"a\"") (fun () ->
      ignore (Maglev.Pool.create ~names:[| "a"; "a" |] ()));
  Alcotest.check_raises "bad weight"
    (Invalid_argument "Pool.set_weight: bad weight") (fun () ->
      let p = Maglev.Pool.create ~names:(names 2) () in
      Maglev.Pool.set_weight p 0 (-1.0))

let pool_weight_change_preserves_most_lookups =
  QCheck.Test.make ~count:20
    ~name:"a 10% weight shift remaps only a small fraction of hashes"
    QCheck.(int_bound 1_000_000)
    (fun salt ->
      let p = Maglev.Pool.create ~table_size:4099 ~names:(names 4) () in
      let hashes = List.init 2000 (fun i -> Maglev.Hashing.int ~seed:salt i) in
      let before = List.map (Maglev.Pool.lookup p) hashes in
      Maglev.Pool.set_weights p [| 0.15; 0.2833; 0.2833; 0.2833 |];
      Maglev.Pool.rebuild p;
      let after = List.map (Maglev.Pool.lookup p) hashes in
      let changed =
        List.fold_left2
          (fun acc a b -> if a <> b then acc + 1 else acc)
          0 before after
      in
      float_of_int changed /. 2000.0 < 0.3)

let () =
  Alcotest.run "maglev"
    [
      ( "hashing",
        [
          Alcotest.test_case "deterministic" `Quick hash_deterministic;
          Alcotest.test_case "primes" `Quick primes;
        ] );
      ( "permutation",
        [
          Alcotest.test_case "is a permutation" `Quick permutation_is_permutation;
          Alcotest.test_case "wraps and resets" `Quick permutation_wraps_and_resets;
          Alcotest.test_case "nth pure" `Quick permutation_nth_pure;
          Alcotest.test_case "requires prime" `Quick permutation_requires_prime;
        ]
        @ List.map QCheck_alcotest.to_alcotest [ permutation_qcheck ] );
      ( "table",
        [
          Alcotest.test_case "fills every slot" `Quick table_fills_every_slot;
          Alcotest.test_case "equal shares" `Quick
            table_equal_weights_near_equal_shares;
          Alcotest.test_case "weighted shares" `Quick
            table_weighted_shares_proportional;
          Alcotest.test_case "zero weight" `Quick table_zero_weight_gets_nothing;
          Alcotest.test_case "removal disruption" `Quick
            table_backend_removal_minimal_disruption;
          Alcotest.test_case "weight-change disruption" `Quick
            table_small_weight_change_small_disruption;
          Alcotest.test_case "errors" `Quick table_errors;
          Alcotest.test_case "deterministic" `Quick table_deterministic;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ table_weighted_qcheck; table_matches_reference ] );
      ( "pool",
        [
          Alcotest.test_case "basics" `Quick pool_basics;
          Alcotest.test_case "lookup range" `Quick pool_lookup_in_range;
          Alcotest.test_case "lookup consistent" `Quick pool_lookup_consistent;
          Alcotest.test_case "rebuild applies weights" `Quick
            pool_rebuild_applies_weights;
          Alcotest.test_case "set vector" `Quick pool_set_weights_vector;
          Alcotest.test_case "errors" `Quick pool_errors;
          Alcotest.test_case "rebuild allocation bounded" `Quick
            pool_rebuild_allocation_bounded;
        ]
        @ List.map QCheck_alcotest.to_alcotest
            [ pool_weight_change_preserves_most_lookups ] );
    ]
