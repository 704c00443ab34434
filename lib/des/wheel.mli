(** Hierarchical timing wheel (Varghese–Lauck) for coarse cancellable
    timers.

    A constant-time holding area in front of the engine's event heap:
    arming parks an entry in the slot covering its tick, cancelling
    unlinks it, and {!advance} emits every entry of a tick into the
    caller's heap just before the clock can enter that tick. Firing
    order is therefore still decided solely by the heap's exact
    (time, seq) comparison — the wheel is invisible to simulation
    results by construction.

    The wheel is intrusive: the caller's own records hold the link
    fields ([next]/[prev]/[slot]) and an {!ops} vtable accesses them, so
    parking, cancelling and cascading allocate nothing. *)

type 'a ops = {
  time : 'a -> int;  (** Absolute fire time (ns). Fixed while parked. *)
  next : 'a -> 'a;
  set_next : 'a -> 'a -> unit;
  prev : 'a -> 'a;
  set_prev : 'a -> 'a -> unit;
  slot : 'a -> int;
      (** Wheel slot index; [-1] = not parked. Maintained by the
          wheel. *)
  set_slot : 'a -> int -> unit;
}

type 'a t

val tick_ns : int
(** Base granularity: entries within one tick of the clock are the
    heap's business, not the wheel's. *)

val span_ns : int
(** Horizon: entries further than this from the last flushed tick are
    refused by {!offer} and must overflow to the heap. *)

val create : ops:'a ops -> nil:'a -> unit -> 'a t
(** [nil] is the list terminator sentinel; it must never be offered. *)

val live : 'a t -> int
(** Entries currently parked. *)

val offer : 'a t -> 'a -> bool
(** Park an entry, or return [false] if its time is below the current
    tick or beyond {!span_ns} (caller pushes to the heap instead). *)

val remove : 'a t -> 'a -> unit
(** Unlink a parked entry in O(1). The entry must be parked
    ([ops.slot e >= 0]). *)

val advance : 'a t -> upto:int -> emit:('a -> unit) -> unit
(** Flush every tick at or below [upto]'s into [emit], cascading
    higher levels as their boundaries are crossed. After the call, any
    parked entry fires strictly after [upto]. *)

val advance_next : 'a t -> emit:('a -> unit) -> unit
(** Flush up to and including the next occupied tick — at least one
    entry is emitted. Requires [live t > 0]. *)

val catch_up : 'a t -> upto:int -> unit
(** Drop empty ticks so the wheel origin tracks the clock. Requires
    [live t = 0]. *)

val cascades : 'a t -> int
(** Higher-level slot redistributions performed (diagnostics). *)

val current_tick : 'a t -> int
(** The next tick to be flushed (diagnostics/tests). *)
