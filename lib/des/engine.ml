(* The event queue is a monomorphic 4-ary min-heap stored inline in the
   engine, ordered by (time, seq) with the comparison inlined — no
   closure-compare indirection on the per-event hot path. The 4-ary
   layout halves the sift depth of a binary heap and keeps all four
   children of a node adjacent (usually one cache line), which is where
   pop — the single hottest operation in the whole simulator — spends
   its time. Three further disciplines keep the queue lean:

   - Cancelled events stay in the heap as tombstones but are counted
     exactly ([tombstones] is incremented by [cancel] and decremented
     whenever a cancelled head is drained). When tombstones exceed half
     the queue it is compacted in place and re-heapified, so
     cancel-heavy workloads keep the queue proportional to the live
     event count instead of accumulating garbage until the original
     expiry times come around.

   - [post] / [post_after] serve the dominant schedule-then-fire pattern
     (link transmissions, service completions, think times): they return
     no handle, so the event record provably cannot be cancelled or
     referenced after firing and is recycled through a free list —
     steady-state fire-and-forget scheduling allocates nothing but the
     callback closure. [schedule] still returns a live handle and its
     record is left to the GC.

   - Cancellable events more than one wheel tick in the future park in a
     hierarchical timing wheel ({!Wheel}) instead of the heap: O(1) arm,
     O(1) cancel with no tombstone debt, and a slot flush into the heap
     just before the clock can enter their tick. The heap alone decides
     firing order — a flushed slot is pushed with its original
     (time, seq), so wheel-routed timers fire exactly as if they had
     been heap-resident all along. TCP RTO and delayed-ack timers,
     re-armed and cancelled once per packet, never touch the heap at
     all. Events beyond the wheel's span overflow to the heap. *)

type event = {
  mutable time : Time.t;
  mutable seq : int;
  mutable cancelled : bool;
  pooled : bool;
  mutable run : unit -> unit;
  owner : t; (* for exact tombstone accounting in [cancel] *)
  (* Intrusive wheel links; [wslot] >= 0 iff currently parked. *)
  mutable wnext : event;
  mutable wprev : event;
  mutable wslot : int;
}

and t = {
  mutable now : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  mutable data : event array;
  mutable len : int;
  mutable tombstones : int; (* cancelled events still in [data] *)
  mutable free : event list; (* recyclable pooled records *)
  mutable compactions : int;
  nil : event; (* wheel list terminator, never queued *)
  mutable wheel : event Wheel.t option; (* Some after [create] *)
  mutable emit : event -> unit; (* preallocated wheel->heap push *)
}

type handle = event

let nop () = ()

let wheel_ops =
  {
    Wheel.time = (fun e -> e.time);
    next = (fun e -> e.wnext);
    set_next = (fun e n -> e.wnext <- n);
    prev = (fun e -> e.wprev);
    set_prev = (fun e p -> e.wprev <- p);
    slot = (fun e -> e.wslot);
    set_slot = (fun e s -> e.wslot <- s);
  }

let wheel_of t =
  match t.wheel with Some w -> w | None -> assert false

let now t = t.now

(* a sorts strictly before b: earlier time, or same time scheduled
   earlier. Inlined int compares; seq never repeats within an engine. *)
let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let grow t x =
  let cap = Array.length t.data in
  if t.len >= cap then begin
    let ncap = if cap = 0 then 256 else cap * 2 in
    let ndata = Array.make ncap x in
    Array.blit t.data 0 ndata 0 t.len;
    t.data <- ndata
  end

(* Node [i]'s children are [4i+1 .. 4i+4]; parent is [(i-1)/4].
   Indices are in [0, len) by construction throughout the sift loops. *)
let rec sift_up data i =
  if i > 0 then begin
    let parent = (i - 1) lsr 2 in
    let ev = Array.unsafe_get data i in
    let pv = Array.unsafe_get data parent in
    if before ev pv then begin
      Array.unsafe_set data i pv;
      Array.unsafe_set data parent ev;
      sift_up data parent
    end
  end

let rec sift_down data len i =
  let c = (i lsl 2) + 1 in
  if c < len then begin
    let last = if c + 3 < len then c + 3 else len - 1 in
    let m = ref c in
    for j = c + 1 to last do
      if before (Array.unsafe_get data j) (Array.unsafe_get data !m) then
        m := j
    done;
    let m = !m in
    let ev = Array.unsafe_get data i in
    let mv = Array.unsafe_get data m in
    if before mv ev then begin
      Array.unsafe_set data i mv;
      Array.unsafe_set data m ev;
      sift_down data len m
    end
  end

let push t ev =
  grow t ev;
  t.data.(t.len) <- ev;
  t.len <- t.len + 1;
  sift_up t.data (t.len - 1)

let create () =
  let rec nil =
    {
      time = 0;
      seq = -1;
      cancelled = false;
      pooled = false;
      run = nop;
      owner = t;
      wnext = nil;
      wprev = nil;
      wslot = -1;
    }
  and t =
    {
      now = Time.zero;
      next_seq = 0;
      fired = 0;
      data = [||];
      len = 0;
      tombstones = 0;
      free = [];
      compactions = 0;
      nil;
      wheel = None;
      emit = ignore;
    }
  in
  t.wheel <- Some (Wheel.create ~ops:wheel_ops ~nil ());
  t.emit <- (fun ev -> push t ev);
  t

(* Drop every tombstone and restore the heap invariant bottom-up
   (Floyd); stale tail slots are overwritten with a live record so dead
   events (and the closures they capture) don't outlive the pass. *)
let compact t =
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let ev = t.data.(i) in
    if not ev.cancelled then begin
      t.data.(!j) <- ev;
      incr j
    end
    else ev.run <- nop
  done;
  let old_len = t.len in
  t.len <- !j;
  t.tombstones <- 0;
  t.compactions <- t.compactions + 1;
  if t.len = 0 then t.data <- [||]
  else begin
    for i = t.len to old_len - 1 do
      t.data.(i) <- t.data.(0)
    done;
    for i = (t.len - 2) asr 2 downto 0 do
      sift_down t.data t.len i
    done
  end

let maybe_compact t =
  if t.len >= 64 && 2 * t.tombstones > t.len then compact t

let check_future t at =
  if at < t.now then
    invalid_arg
      (Fmt.str "Engine.schedule: at=%a is before now=%a" Time.pp at Time.pp
         t.now)

let schedule t ~at f =
  check_future t at;
  let nil = t.nil in
  let ev =
    { time = at; seq = t.next_seq; cancelled = false; pooled = false;
      run = f; owner = t; wnext = nil; wprev = nil; wslot = -1 }
  in
  t.next_seq <- t.next_seq + 1;
  if not (Wheel.offer (wheel_of t) ev) then push t ev;
  ev

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.now + delay) f

let post t ~at f =
  check_future t at;
  let ev =
    match t.free with
    | ev :: rest ->
        t.free <- rest;
        ev.time <- at;
        ev.seq <- t.next_seq;
        ev.run <- f;
        ev
    | [] ->
        let nil = t.nil in
        { time = at; seq = t.next_seq; cancelled = false; pooled = true;
          run = f; owner = t; wnext = nil; wprev = nil; wslot = -1 }
  in
  t.next_seq <- t.next_seq + 1;
  push t ev

let post_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.post_after: negative delay";
  post t ~at:(t.now + delay) f

let cancel (ev : handle) =
  (* Events are marked cancelled when they fire, so late cancels of
     fired handles are no-ops and never skew the tombstone count. *)
  if not ev.cancelled then begin
    ev.cancelled <- true;
    let t = ev.owner in
    if ev.wslot >= 0 then
      (* Parked in the wheel: unlink outright — no tombstone, no
         compaction debt, the heap never hears of it. *)
      Wheel.remove (wheel_of t) ev
    else begin
      t.tombstones <- t.tombstones + 1;
      maybe_compact t
    end
  end

(* Pop the heap root unconditionally, keeping tombstone accounting and
   the pooled free list exact regardless of which loop drains it. *)
let pop_root t =
  let ev = t.data.(0) in
  t.len <- t.len - 1;
  if t.len > 0 then begin
    t.data.(0) <- t.data.(t.len);
    t.data.(t.len) <- ev;
    sift_down t.data t.len 0
  end;
  if ev.cancelled then t.tombstones <- t.tombstones - 1;
  ev

let recycle t ev =
  ev.run <- nop;
  ev.cancelled <- false;
  t.free <- ev :: t.free

let rec drain_cancelled_heads t =
  if t.len > 0 && t.data.(0).cancelled then begin
    let ev = pop_root t in
    if ev.pooled then recycle t ev;
    drain_cancelled_heads t
  end

(* Make the heap root the globally next event: flush every wheel tick
   at or below the current head's (wheel entries are never cancelled —
   [cancel] unlinks them — so everything emitted is live). Tombstoned
   heads are drained first so the flush target is a live time. With an
   empty heap, flush through the next occupied tick; with an empty
   wheel, just keep its origin tracking the clock. *)
let settle t =
  drain_cancelled_heads t;
  let w = wheel_of t in
  if Wheel.live w = 0 then Wheel.catch_up w ~upto:t.now
  else if t.len > 0 then Wheel.advance w ~upto:t.data.(0).time ~emit:t.emit
  else Wheel.advance_next w ~emit:t.emit

(* Bounded variant for [run ~until]: only ticks at or below the limit
   may be flushed, so timers parked beyond the stopping point stay in
   the wheel (and keep their O(1) cancel) across run/schedule cycles. *)
let settle_until t limit =
  drain_cancelled_heads t;
  let w = wheel_of t in
  if Wheel.live w = 0 then Wheel.catch_up w ~upto:t.now
  else
    let upto =
      if t.len > 0 && t.data.(0).time <= limit then t.data.(0).time
      else limit
    in
    Wheel.advance w ~upto ~emit:t.emit

let step t =
  settle t;
  if t.len = 0 then false
  else begin
    let ev = pop_root t in
    t.now <- ev.time;
    t.fired <- t.fired + 1;
    let f = ev.run in
    if ev.pooled then recycle t ev else ev.cancelled <- true;
    f ();
    true
  end

let run ?until t =
  match until with
  | None -> while step t do () done
  | Some limit ->
      let continue = ref true in
      while !continue do
        settle_until t limit;
        if t.len = 0 then begin
          t.now <- Time.max t.now limit;
          continue := false
        end
        else begin
          let head = t.data.(0) in
          if head.time <= limit then ignore (step t)
          else begin
            t.now <- Time.max t.now limit;
            continue := false
          end
        end
      done

let pending t = t.len - t.tombstones + Wheel.live (wheel_of t)
let queue_length t = t.len
let wheel_size t = Wheel.live (wheel_of t)
let wheel_cascades t = Wheel.cascades (wheel_of t)
let compactions t = t.compactions
let events_fired t = t.fired
