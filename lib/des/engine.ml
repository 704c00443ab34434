(* The event queue is a monomorphic 4-ary min-heap stored inline in the
   engine as three flat int arrays — fire time, sequence number and a
   tagged slot id — ordered by (time, seq) with the comparison inlined.
   Sifting therefore moves immediates only: no pointer stores, no write
   barrier, and the keys of all four children of a node sit in one or
   two cache lines of [htime]. The 4-ary layout halves the sift depth of
   a binary heap, which is where pop — the single hottest operation in
   the whole simulator — spends its time.

   The slot id says where the event's payload lives. Slot ids are
   allocated from an int stack ([free]) and are stable while the entry
   sits in the heap, however it moves. The low bit of a tagged slot is
   the "cancellable" bit:

   - bit clear: a [post]ed event; [runs.(id)] is its callback. [post]
     returns no handle, so nothing can reference the event after it
     fires: steady-state fire-and-forget scheduling (link
     transmissions, service completions, think times) allocates nothing
     but the caller's closure.

   - bit set: a [schedule]d or wheel-flushed event; [evs.(id)] is its
     record (the handle), which remembers its slot in [hslot].

   Three further disciplines keep the queue lean:

   - Cancelling a heap-resident event detaches it: [evs.(id)] is pointed
     at the [nil] sentinel and the handle forgets the slot. The
     entry stays in the heap as a tombstone, counted exactly
     ([tombstones] goes up in [cancel] and down whenever a tombstone is
     drained). When tombstones exceed half the queue it is compacted in
     place and re-heapified, so cancel-heavy workloads keep the queue
     proportional to the live event count.

   - Because a cancelled or fired handle is never referenced by the
     heap, its record can be scheduled again: [reschedule] (what
     {!Timer.arm} runs on every TCP segment) reuses it and allocates
     nothing.

   - Cancellable events more than one wheel tick in the future park in a
     hierarchical timing wheel ({!Wheel}) instead of the heap: O(1) arm,
     O(1) cancel with no tombstone debt, and a slot flush into the heap
     just before the clock can enter their tick. The heap alone decides
     firing order — a flushed record is pushed with its original
     (time, seq), so wheel-routed timers fire exactly as if they had
     been heap-resident all along. Events beyond the wheel's span
     overflow to the heap. *)

type event = {
  mutable time : Time.t;
  mutable seq : int;
  (* true once fired or cancelled, and for a never-scheduled handle *)
  mutable cancelled : bool;
  mutable run : unit -> unit;
  owner : t; (* for exact tombstone accounting in [cancel] *)
  mutable hslot : int; (* heap slot id while heap-resident, else -1 *)
  (* Intrusive wheel links; [wslot] >= 0 iff currently parked. *)
  mutable wnext : event;
  mutable wprev : event;
  mutable wslot : int;
}

and t = {
  mutable now : Time.t;
  mutable next_seq : int;
  mutable fired : int;
  (* The heap: entry [i] is ([htime.(i)], [hseq.(i)], [htag.(i)]) with
     [htag] = [id lsl 1 lor cancellable]. *)
  mutable htime : int array;
  mutable hseq : int array;
  mutable htag : int array;
  mutable len : int;
  (* Payload by slot id; capacity equals the heap arrays'. *)
  mutable runs : (unit -> unit) array;
  mutable evs : event array;
  mutable free : int array; (* stack of unused slot ids *)
  mutable nfree : int;
  mutable tombstones : int; (* cancelled entries still in the heap *)
  mutable compactions : int;
  (* Wheel list terminator, and the [evs] entry of every free slot and
     every tombstone; never queued. *)
  nil : event;
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

(* Every slot id is either on the free stack or in exactly one heap
   entry, so the stack runs dry exactly when the heap is full. *)
let grow t =
  let cap = Array.length t.htime in
  let ncap = if cap = 0 then 256 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  t.htime <- extend t.htime 0;
  t.hseq <- extend t.hseq 0;
  t.htag <- extend t.htag 0;
  t.runs <- extend t.runs nop;
  t.evs <- extend t.evs t.nil;
  t.free <- extend t.free 0;
  for id = ncap - 1 downto cap do
    t.free.(t.nfree) <- id;
    t.nfree <- t.nfree + 1
  done

let alloc_slot t =
  if t.nfree = 0 then grow t;
  t.nfree <- t.nfree - 1;
  Array.unsafe_get t.free t.nfree

let free_slot t id =
  Array.unsafe_set t.free t.nfree id;
  t.nfree <- t.nfree + 1

(* Node [i]'s children are [4i+1 .. 4i+4]; parent is [(i-1)/4]. Both
   sifts carry the moving entry in registers and drop it into the hole
   once its place is found. Indices are in [0, len) by construction. *)
let sift_up t i time seq tag =
  let ht = t.htime and hs = t.hseq and hg = t.htag in
  let i = ref i and go = ref true in
  while !go && !i > 0 do
    let p = (!i - 1) lsr 2 in
    let pt = Array.unsafe_get ht p in
    if time < pt || (time = pt && seq < Array.unsafe_get hs p) then begin
      Array.unsafe_set ht !i pt;
      Array.unsafe_set hs !i (Array.unsafe_get hs p);
      Array.unsafe_set hg !i (Array.unsafe_get hg p);
      i := p
    end
    else go := false
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hg !i tag

let sift_down t len i time seq tag =
  let ht = t.htime and hs = t.hseq and hg = t.htag in
  let i = ref i and go = ref true in
  while !go do
    let c = (!i lsl 2) + 1 in
    if c >= len then go := false
    else begin
      let last = if c + 3 < len then c + 3 else len - 1 in
      let m = ref c in
      let mt = ref (Array.unsafe_get ht c) in
      let ms = ref (Array.unsafe_get hs c) in
      for j = c + 1 to last do
        let jt = Array.unsafe_get ht j in
        if jt < !mt || (jt = !mt && Array.unsafe_get hs j < !ms) then begin
          m := j;
          mt := jt;
          ms := Array.unsafe_get hs j
        end
      done;
      if !mt < time || (!mt = time && !ms < seq) then begin
        Array.unsafe_set ht !i !mt;
        Array.unsafe_set hs !i !ms;
        Array.unsafe_set hg !i (Array.unsafe_get hg !m);
        i := !m
      end
      else go := false
    end
  done;
  Array.unsafe_set ht !i time;
  Array.unsafe_set hs !i seq;
  Array.unsafe_set hg !i tag

let push t time seq tag =
  let i = t.len in
  t.len <- i + 1;
  sift_up t i time seq tag

(* Queue a cancellable record (fresh, rescheduled or flushed from the
   wheel) in the heap. *)
let push_event t ev =
  let id = alloc_slot t in
  Array.unsafe_set t.evs id ev;
  ev.hslot <- id;
  push t ev.time ev.seq ((id lsl 1) lor 1)

(* Remove the root entry; the caller has read it first. *)
let remove_root t =
  let n = t.len - 1 in
  t.len <- n;
  if n > 0 then
    sift_down t n 0
      (Array.unsafe_get t.htime n)
      (Array.unsafe_get t.hseq n)
      (Array.unsafe_get t.htag n)

let create () =
  let rec nil =
    {
      time = 0;
      seq = -1;
      cancelled = true;
      run = nop;
      owner = t;
      hslot = -1;
      wnext = nil;
      wprev = nil;
      wslot = -1;
    }
  and t =
    {
      now = Time.zero;
      next_seq = 0;
      fired = 0;
      htime = [||];
      hseq = [||];
      htag = [||];
      len = 0;
      runs = [||];
      evs = [||];
      free = [||];
      nfree = 0;
      tombstones = 0;
      compactions = 0;
      nil;
      wheel = None;
      emit = ignore;
    }
  in
  t.wheel <- Some (Wheel.create ~ops:wheel_ops ~nil ());
  t.emit <- (fun ev -> push_event t ev);
  t

let is_tombstone t tag =
  tag land 1 = 1 && Array.unsafe_get t.evs (tag lsr 1) == t.nil

(* Drop every tombstone and restore the heap invariant bottom-up
   (Floyd). Tombstones were detached from their handles by [cancel], so
   only their slot ids need returning. *)
let compact t =
  let ht = t.htime and hs = t.hseq and hg = t.htag in
  let j = ref 0 in
  for i = 0 to t.len - 1 do
    let tag = hg.(i) in
    if is_tombstone t tag then free_slot t (tag lsr 1)
    else begin
      ht.(!j) <- ht.(i);
      hs.(!j) <- hs.(i);
      hg.(!j) <- tag;
      incr j
    end
  done;
  t.len <- !j;
  t.tombstones <- 0;
  t.compactions <- t.compactions + 1;
  for i = (t.len - 2) asr 2 downto 0 do
    sift_down t t.len i ht.(i) hs.(i) hg.(i)
  done

let maybe_compact t =
  if t.len >= 64 && 2 * t.tombstones > t.len then compact t

let check_future t at =
  if at < t.now then
    invalid_arg
      (Fmt.str "Engine.schedule: at=%a is before now=%a" Time.pp at Time.pp
         t.now)

(* Route a live record to the wheel, or to the heap if the wheel
   refuses it (within the current tick or beyond the span). *)
let enqueue t ev = if not (Wheel.offer (wheel_of t) ev) then push_event t ev

(* A record in no queue. *)
let record t ~at ~seq ~cancelled f =
  let nil = t.nil in
  {
    time = at;
    seq;
    cancelled;
    run = f;
    owner = t;
    hslot = -1;
    wnext = nil;
    wprev = nil;
    wslot = -1;
  }

let schedule t ~at f =
  check_future t at;
  let ev = record t ~at ~seq:t.next_seq ~cancelled:false f in
  t.next_seq <- t.next_seq + 1;
  enqueue t ev;
  ev

let schedule_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule_after: negative delay";
  schedule t ~at:(t.now + delay) f

let post t ~at f =
  check_future t at;
  let id = alloc_slot t in
  Array.unsafe_set t.runs id f;
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t at seq (id lsl 1)

let post_after t ~delay f =
  if delay < 0 then invalid_arg "Engine.post_after: negative delay";
  post t ~at:(t.now + delay) f

let cancel (ev : handle) =
  (* Handles are marked cancelled when they fire, so late cancels of
     fired handles are no-ops and never skew the tombstone count. *)
  if not ev.cancelled then begin
    ev.cancelled <- true;
    let t = ev.owner in
    if ev.wslot >= 0 then
      (* Parked in the wheel: unlink outright — no tombstone, no
         compaction debt, the heap never hears of it. *)
      Wheel.remove (wheel_of t) ev
    else begin
      (* Heap-resident: leave a tombstone that no longer points at the
         handle, so the handle is free to be scheduled again. *)
      t.evs.(ev.hslot) <- t.nil;
      ev.hslot <- -1;
      t.tombstones <- t.tombstones + 1;
      maybe_compact t
    end
  end

let dormant t = record t ~at:0 ~seq:(-1) ~cancelled:true nop

let reschedule (ev : handle) ~at f =
  let t = ev.owner in
  cancel ev;
  check_future t at;
  ev.time <- at;
  ev.seq <- t.next_seq;
  ev.cancelled <- false;
  ev.run <- f;
  t.next_seq <- t.next_seq + 1;
  enqueue t ev

let is_pending (ev : handle) = not ev.cancelled

let rec drain_cancelled_heads t =
  if t.len > 0 then begin
    let tag = Array.unsafe_get t.htag 0 in
    if is_tombstone t tag then begin
      remove_root t;
      free_slot t (tag lsr 1);
      t.tombstones <- t.tombstones - 1;
      drain_cancelled_heads t
    end
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
  else if t.len > 0 then Wheel.advance w ~upto:t.htime.(0) ~emit:t.emit
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
      if t.len > 0 && t.htime.(0) <= limit then t.htime.(0) else limit
    in
    Wheel.advance w ~upto ~emit:t.emit

let step t =
  settle t;
  if t.len = 0 then false
  else begin
    let time = Array.unsafe_get t.htime 0 in
    let tag = Array.unsafe_get t.htag 0 in
    remove_root t;
    t.now <- time;
    t.fired <- t.fired + 1;
    let id = tag lsr 1 in
    let f =
      if tag land 1 = 0 then begin
        let f = Array.unsafe_get t.runs id in
        Array.unsafe_set t.runs id nop;
        f
      end
      else begin
        let ev = Array.unsafe_get t.evs id in
        Array.unsafe_set t.evs id t.nil;
        ev.cancelled <- true;
        ev.hslot <- -1;
        ev.run
      end
    in
    free_slot t id;
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
        if t.len > 0 && t.htime.(0) <= limit then ignore (step t)
        else begin
          t.now <- Time.max t.now limit;
          continue := false
        end
      done

let pending t = t.len - t.tombstones + Wheel.live (wheel_of t)
let queue_length t = t.len
let wheel_size t = Wheel.live (wheel_of t)
let wheel_cascades t = Wheel.cascades (wheel_of t)
let compactions t = t.compactions
let events_fired t = t.fired
