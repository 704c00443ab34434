let populate ?perms ?into ~size ~backends () =
  if Array.length backends = 0 then invalid_arg "Table.populate: no backends";
  if not (Hashing.is_prime size) then
    invalid_arg "Table.populate: size must be prime";
  Array.iter
    (fun (_, w) ->
      if Float.is_nan w then invalid_arg "Table.populate: NaN weight")
    backends;
  let n = Array.length backends in
  let max_weight =
    Array.fold_left (fun acc (_, w) -> Float.max acc w) 0.0 backends
  in
  if max_weight <= 0.0 then invalid_arg "Table.populate: all weights <= 0";
  let perms =
    (* A caller rebuilding repeatedly (the controller's feedback loop)
       passes its cached permutations; they only depend on the fixed
       backend names, so they are rewound rather than recreated. *)
    match perms with
    | Some perms ->
        if Array.length perms <> n then
          invalid_arg "Table.populate: perms length mismatch";
        Array.iter Permutation.reset perms;
        perms
    | None ->
        Array.map (fun (name, _) -> Permutation.create ~name ~size) backends
  in
  let table =
    (* A rebuilding caller can recycle a scratch array instead of
       allocating [size] words per control decision. *)
    match into with
    | Some arr ->
        if Array.length arr <> size then
          invalid_arg "Table.populate: into length mismatch";
        Array.fill arr 0 size (-1);
        arr
    | None -> Array.make size (-1)
  in
  (* Deficit round-robin over the backends; each unit of credit claims
     the backend's next preferred slot that is still free. The probe
     loop is written out in place so a rebuild allocates no closure per
     claim — the controller repopulates the table every control
     interval. *)
  let filled = ref 0 in
  let credit = Array.make n 0.0 in
  while !filled < size do
    for i = 0 to n - 1 do
      let _, w = backends.(i) in
      if w > 0.0 then begin
        credit.(i) <- credit.(i) +. (w /. max_weight);
        let perm = perms.(i) in
        while credit.(i) >= 1.0 && !filled < size do
          credit.(i) <- credit.(i) -. 1.0;
          let claimed = ref false in
          while not !claimed do
            let slot = Permutation.next perm in
            if table.(slot) = -1 then begin
              table.(slot) <- i;
              incr filled;
              claimed := true
            end
          done
        done
      end
    done
  done;
  table

let slot_shares table ~n =
  let counts = Array.make n 0 in
  Array.iter (fun owner -> counts.(owner) <- counts.(owner) + 1) table;
  let total = float_of_int (Array.length table) in
  Array.map (fun c -> float_of_int c /. total) counts

let disruption (a : int array) (b : int array) =
  if Array.length a <> Array.length b then
    invalid_arg "Table.disruption: length mismatch";
  let changed = ref 0 in
  for i = 0 to Array.length a - 1 do
    if a.(i) <> b.(i) then incr changed
  done;
  float_of_int !changed /. float_of_int (Array.length a)
