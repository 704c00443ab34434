(* Per-flow estimator state lives in a struct-of-arrays slab rather than
   per-flow records: a flow is an [int] slot into flat integer lanes of
   stride k (one lane entry per FIXEDTIMEOUT instance), and released
   slots are recycled through a free stack. Creating or destroying a
   flow after warm-up touches only preallocated arrays — no allocation,
   no GC pressure proportional to the flow count, and the k lanes of
   one flow share cache lines instead of being k boxed records
   scattered across the heap.

   The lanes are Bigarrays, not OCaml arrays: their payload lives in
   malloc'd memory outside the OCaml heap, so a million-flow slab adds
   nothing to the GC's marking or compaction work. The
   FIXEDTIMEOUT update (Algorithm 1) is inlined on the slab lanes;
   {!Fixed_timeout} remains the standalone single-instance module. *)

type lane = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

let lane_make n : lane =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let lane_empty : lane = lane_make 0

(* Grow to [n] entries, preserving contents. Fresh entries are seeded by
   [create_flow]; the tail is zeroed anyway so diagnostic reads of
   never-used slots are deterministic. *)
let lane_grow (arr : lane) n : lane =
  let narr = lane_make n in
  let old = Bigarray.Array1.dim arr in
  if old > 0 then
    Bigarray.Array1.blit arr (Bigarray.Array1.sub narr 0 old);
  Bigarray.Array1.fill (Bigarray.Array1.sub narr old (n - old)) 0;
  narr

type scope_state = {
  counts : int array;
  mutable epoch_index : int;
  mutable chosen : int;
  mutable epochs : int;
}

type t = {
  config : Config.t;
  k : int;
  deltas : int array; (* copy of config.timeouts, slab-local *)
  global : scope_state;
  per_flow : bool; (* Per_flow cliff scope *)
  (* Slab: stride-k lanes indexed [slot * k + i]. *)
  mutable last_batch : lane;
  mutable last_pkt : lane;
  (* Per_flow scope lanes, empty under Global. *)
  mutable f_counts : lane; (* stride k *)
  mutable f_epoch_index : lane;
  mutable f_chosen : lane;
  mutable f_epochs : lane;
  mutable cap : int; (* slots allocated *)
  mutable next_slot : int; (* high-water mark *)
  mutable free : int array; (* recycled-slot stack *)
  mutable free_top : int;
  mutable live : int;
}

type flow = int

let make_scope config =
  {
    counts = Array.make (Array.length config.Config.timeouts) 0;
    epoch_index = 0;
    chosen = config.Config.initial_timeout_index;
    epochs = 0;
  }

let create ~config =
  (match Config.validate config with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Ensemble.create: " ^ msg));
  let per_flow =
    match config.Config.cliff_scope with
    | Config.Global -> false
    | Config.Per_flow -> true
  in
  {
    config;
    k = Array.length config.Config.timeouts;
    deltas = Array.copy config.Config.timeouts;
    global = make_scope config;
    per_flow;
    last_batch = lane_empty;
    last_pkt = lane_empty;
    f_counts = lane_empty;
    f_epoch_index = lane_empty;
    f_chosen = lane_empty;
    f_epochs = lane_empty;
    cap = 0;
    next_slot = 0;
    free = [||];
    free_top = 0;
    live = 0;
  }

let ensure_capacity t =
  if t.next_slot >= t.cap then begin
    let ncap = if t.cap = 0 then 64 else t.cap * 2 in
    t.last_batch <- lane_grow t.last_batch (ncap * t.k);
    t.last_pkt <- lane_grow t.last_pkt (ncap * t.k);
    if t.per_flow then begin
      t.f_counts <- lane_grow t.f_counts (ncap * t.k);
      t.f_epoch_index <- lane_grow t.f_epoch_index ncap;
      t.f_chosen <- lane_grow t.f_chosen ncap;
      t.f_epochs <- lane_grow t.f_epochs ncap
    end;
    t.cap <- ncap
  end

(* [Array.fill] for a lane segment; a tight loop rather than
   [Array1.fill (Array1.sub ...)] because [sub] allocates a view record
   and this runs on the zero-allocation flow-creation path. *)
let lane_fill (arr : lane) off len v =
  for i = off to off + len - 1 do
    Bigarray.Array1.unsafe_set arr i v
  done

let create_flow t ~now =
  let slot =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      ensure_capacity t;
      let s = t.next_slot in
      t.next_slot <- s + 1;
      s
    end
  in
  (* Recycled slots must observe fresh state, never the previous
     occupant's: every lane is re-seeded here. *)
  let base = slot * t.k in
  lane_fill t.last_batch base t.k now;
  lane_fill t.last_pkt base t.k now;
  if t.per_flow then begin
    lane_fill t.f_counts base t.k 0;
    Bigarray.Array1.set t.f_epoch_index slot 0;
    Bigarray.Array1.set t.f_chosen slot t.config.Config.initial_timeout_index;
    Bigarray.Array1.set t.f_epochs slot 0
  end;
  t.live <- t.live + 1;
  slot

let release_flow t slot =
  if t.free_top >= Array.length t.free then begin
    let n = Stdlib.max 64 (2 * Array.length t.free) in
    let nfree = Array.make n 0 in
    Array.blit t.free 0 nfree 0 t.free_top;
    t.free <- nfree
  end;
  t.free.(t.free_top) <- slot;
  t.free_top <- t.free_top + 1;
  t.live <- t.live - 1

let live_flows t = t.live
let slab_capacity t = t.cap

(* argmax over adjacent-count ratios, smoothed; ties to the smaller
   index. The largest timeout can never be selected (i ranges to k-2),
   exactly as in Algorithm 2 line 8. A candidate must hold at least
   [min_fraction] of the best count: under request-response traffic the
   trailing timeouts collect a handful of idle-gap samples followed by
   zeros, and that noise cliff would otherwise dominate the ratio.
   [get] abstracts the backing store (int array for the Global scope,
   slab lane for Per_flow); rollover is per-epoch, not per-packet, so
   the indirection is off the hot path. *)
let cliff_pick_get ~min_fraction ~get off k =
  let best_count = ref 0 in
  for i = off to off + k - 1 do
    if get i > !best_count then best_count := get i
  done;
  let floor_count =
    int_of_float (ceil (min_fraction *. float_of_int !best_count))
  in
  let best = ref 0 and best_ratio = ref neg_infinity in
  for i = 0 to k - 2 do
    if get (off + i) >= floor_count then begin
      let ratio =
        float_of_int (get (off + i) + 1) /. float_of_int (get (off + i + 1) + 1)
      in
      if ratio > !best_ratio then begin
        best := i;
        best_ratio := ratio
      end
    end
  done;
  !best

let cliff_pick ?(min_fraction = 0.0) counts =
  cliff_pick_get ~min_fraction
    ~get:(Array.get counts)
    0 (Array.length counts)

let rollover config scope ~epoch_now =
  (* An epoch that produced no samples carries no cliff information:
     retain the previously chosen timeout instead of letting the
     all-zero argmax silently reset it to δ₁. *)
  if Array.exists (fun c -> c > 0) scope.counts then begin
    scope.chosen <-
      cliff_pick ~min_fraction:config.Config.cliff_min_fraction scope.counts;
    Array.fill scope.counts 0 (Array.length scope.counts) 0
  end;
  scope.epoch_index <- epoch_now;
  scope.epochs <- scope.epochs + 1

(* Per_flow-scope rollover on the slab lanes; same retention rule. *)
let rollover_slot t slot ~epoch_now =
  let base = slot * t.k in
  let any = ref false in
  for i = base to base + t.k - 1 do
    if Bigarray.Array1.get t.f_counts i > 0 then any := true
  done;
  if !any then begin
    Bigarray.Array1.set t.f_chosen slot
      (cliff_pick_get ~min_fraction:t.config.Config.cliff_min_fraction
         ~get:(Bigarray.Array1.get t.f_counts)
         base t.k);
    lane_fill t.f_counts base t.k 0
  end;
  Bigarray.Array1.set t.f_epoch_index slot epoch_now;
  Bigarray.Array1.set t.f_epochs slot
    (Bigarray.Array1.get t.f_epochs slot + 1)

let on_packet t slot ~now =
  (* Lines 7–11 first: if this packet opens a new epoch, close the old
     one *before* counting, so the boundary packet's samples land in
     the epoch that begins now instead of being zeroed immediately.
     A flow idle across several epochs rolls over once, which matches
     per-epoch execution: the pick uses the last completed epoch's
     counts, and each intervening sample-free epoch would only have
     retained the chosen index anyway. *)
  let epoch_now = now / t.config.Config.epoch in
  let chosen =
    if t.per_flow then begin
      if epoch_now > Bigarray.Array1.get t.f_epoch_index slot then
        rollover_slot t slot ~epoch_now;
      Bigarray.Array1.get t.f_chosen slot
    end
    else begin
      if epoch_now > t.global.epoch_index then
        rollover t.config t.global ~epoch_now;
      t.global.chosen
    end
  in
  (* Algorithm 2 lines 1–6: run every FIXEDTIMEOUT instance (inlined
     Algorithm 1 on the slab lanes) and count its samples. Only the
     sample at the chosen index is reported (line 12). Samples are
     strictly positive, so -1 is a safe no-sample sentinel and the
     [Some] below is the sole allocation on this path. *)
  let base = slot * t.k in
  let reported = ref (-1) in
  for i = 0 to t.k - 1 do
    let j = base + i in
    if now - Bigarray.Array1.unsafe_get t.last_pkt j > Array.unsafe_get t.deltas i
    then begin
      (* New batch: the gap from the previous batch head is a sample. *)
      let sample = now - Bigarray.Array1.unsafe_get t.last_batch j in
      Bigarray.Array1.unsafe_set t.last_batch j now;
      if t.per_flow then
        Bigarray.Array1.unsafe_set t.f_counts j
          (Bigarray.Array1.unsafe_get t.f_counts j + 1)
      else t.global.counts.(i) <- t.global.counts.(i) + 1;
      if i = chosen then reported := sample
    end;
    Bigarray.Array1.unsafe_set t.last_pkt j now
  done;
  if !reported >= 0 then Some !reported else None

let chosen_index t slot =
  if t.per_flow then Bigarray.Array1.get t.f_chosen slot else t.global.chosen

let global_chosen_index t = t.global.chosen
let chosen_timeout t slot = t.config.Config.timeouts.(chosen_index t slot)
let epochs_completed t = t.global.epochs
let current_counts t = Array.copy t.global.counts
