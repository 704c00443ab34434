(** The discrete-event simulation engine.

    An engine owns a virtual clock and a queue of scheduled callbacks.
    Events scheduled for the same instant fire in scheduling order, which
    makes whole simulations deterministic given deterministic callbacks
    and seeded {!Rng} streams. *)

type t
(** A simulation engine instance. *)

type handle
(** A cancellable reference to a scheduled event. *)

val create : unit -> t
(** A fresh engine with the clock at {!Time.zero} and no events. *)

val now : t -> Time.t
(** Current virtual time. *)

val schedule : t -> at:Time.t -> (unit -> unit) -> handle
(** [schedule t ~at f] runs [f] when the clock reaches [at].

    @raise Invalid_argument if [at] is in the past. *)

val schedule_after : t -> delay:Time.t -> (unit -> unit) -> handle
(** [schedule_after t ~delay f] is [schedule t ~at:(now t + delay) f].

    @raise Invalid_argument if [delay] is negative. *)

val post : t -> at:Time.t -> (unit -> unit) -> unit
(** Fire-and-forget {!schedule}: no handle is returned, so the event can
    never be cancelled and needs no record — the heap holds the callback
    by a recycled slot id. The dominant schedule-then-fire pattern (link
    transmissions, service completions, think times) allocates nothing
    but the callback closure in steady state.

    @raise Invalid_argument if [at] is in the past. *)

val post_after : t -> delay:Time.t -> (unit -> unit) -> unit
(** [post_after t ~delay f] is [post t ~at:(now t + delay) f].

    @raise Invalid_argument if [delay] is negative. *)

val cancel : handle -> unit
(** Prevent a pending event from firing. Cancelling an event that already
    fired (or was already cancelled) is a no-op. Events parked in the
    timing wheel are unlinked in O(1); heap-resident events remain queued
    as tombstones but are counted exactly, and the queue is compacted in
    place whenever tombstones exceed half of it, so cancel-heavy
    workloads stay bounded by the live event count. *)

val dormant : t -> handle
(** A handle that is not scheduled: {!is_pending} is [false] and
    {!cancel} is a no-op until {!reschedule} queues it. *)

val reschedule : handle -> at:Time.t -> (unit -> unit) -> unit
(** [reschedule h ~at f] cancels [h] if it is pending, then schedules
    [f] at [at] under the same handle, exactly as a fresh {!schedule}
    would (it takes the next sequence number). The handle's record is
    reused whatever state it was in, so re-arming allocates nothing —
    this is what {!Timer.arm} runs.

    @raise Invalid_argument if [at] is in the past ([h] is then left
    cancelled). *)

val is_pending : handle -> bool
(** [true] iff the event is scheduled and has neither fired nor been
    cancelled. During its own callback an event is no longer pending. *)

val step : t -> bool
(** Fire the earliest pending event. Returns [false] if the queue was
    empty (clock unchanged), [true] otherwise. *)

val run : ?until:Time.t -> t -> unit
(** [run t] fires events until the queue drains. With [?until], stops as
    soon as the next event lies strictly beyond [until] and advances the
    clock to exactly [until]. *)

val pending : t -> int
(** Number of scheduled, not-yet-cancelled events, whether heap-resident
    or parked in the timing wheel. O(1). *)

val queue_length : t -> int
(** Physical heap size, including cancelled tombstones not yet drained or
    compacted away but excluding events parked in the timing wheel. For
    diagnostics and boundedness tests. *)

val wheel_size : t -> int
(** Events currently parked in the hierarchical timing wheel. Cancellable
    events ({!schedule}/{!schedule_after}) more than one wheel tick
    ({!Wheel.tick_ns}) ahead park there and migrate to the heap just
    before the clock enters their tick, so firing order is still decided
    solely by the heap's exact (time, seq) comparison. *)

val wheel_cascades : t -> int
(** Higher-level wheel slot redistributions performed (diagnostics). *)

val compactions : t -> int
(** Number of tombstone compaction passes run since creation. *)

val events_fired : t -> int
(** Total events executed since creation; a cheap progress metric. *)
