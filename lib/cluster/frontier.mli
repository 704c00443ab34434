(** The PCC / recovery-latency frontier (the remap sweep).

    One deterministic scenario run per (remap policy x slow-backend
    fault intensity), with persistent client connections so affinity
    actually matters, reporting the counting {!Oracle}'s violation
    rate against the client-observed post-fault tail latency. The
    paper's {!Inband.Remap.Preserve} sits at one end (zero violations,
    slowest recovery: pinned flows ride out the whole fault on the
    slow backend); {!Inband.Remap.Immediate} at the other. *)

type cell = {
  remap : Inband.Remap.t;
  intensity : string;  (** Row label, e.g. ["heavy"]. *)
  slow_factor : float;  (** The fault's service-time multiplier. *)
  checked : int;
  violations : int;
  violation_rate : float;  (** Cumulative violations per checked packet. *)
  in_fault : int;  (** Violations inside the fault window (+ slack). *)
  remapped : int;  (** Balancer-side intentional migrations. *)
  actions : int;
  responses : int;
  pre_p95_us : float;  (** Median of pre-fault bucket GET p95s. *)
  post_p95_us : float;
      (** Median of during-fault bucket GET p95s — the tail the
          clients live with while the fault is active. *)
  post_p99_us : float;
  recovery_ms : float option;
      (** Fault onset to the first latency bucket whose GET p95 is
          back within 2x the pre-fault baseline and stays there for a
          sustained window ([sustain], default 400 ms); [None] = never
          recovered. Preserve can only recover once the fault reverts;
          remap policies recover as soon as the pinned flows migrate
          off. *)
}

type result = {
  duration : Des.Time.t;
  fault_at : Des.Time.t;
  fault_dur : Des.Time.t;
  cells : cell list;  (** Policy-major, intensities inner. *)
}

val default_scenario : Scenario.config
(** {!Churn.default_scenario} with 8 client hosts, persistent
    connections ([requests_per_conn = 0]) except for two churning
    clients that keep every backend's in-band estimate fresh, and a
    50 ms latency bucket. *)

val default_policies : Inband.Remap.t list
(** [preserve; ttl:300us; hot_k:8; immediate]. *)

val default_intensities : (string * float) list
(** [light x2, medium x4, heavy x8] service-time slowdowns. *)

val run :
  ?scenario:Scenario.config ->
  ?duration:Des.Time.t ->
  ?fault_at:Des.Time.t ->
  ?fault_dur:Des.Time.t ->
  ?slack:Des.Time.t ->
  ?sustain:Des.Time.t ->
  ?policies:Inband.Remap.t list ->
  ?intensities:(string * float) list ->
  ?jobs:int ->
  unit ->
  result
(** Run the grid (defaults: 10 s per cell, fault at 2 s for 4 s,
    2 s attribution slack, 400 ms recovery sustain window). Each cell
    is an independent scenario run; [jobs] parallelises cells without
    changing any result. *)

val cells_for : result -> Inband.Remap.t -> cell list
val find_cell : result -> Inband.Remap.t -> string -> cell option

val print : result -> unit

val gate : result -> Bench_store.gate
(** The frontier-smoke gate; the frontier's shape is the contract, so no
    committed baseline is needed. Tripwires, in order: [preserve-pcc]
    (preserve counted a violation in any cell), [grid] (no preserve, ttl
    or immediate cell at the ["heavy"] intensity), [rate-monotone]
    (heavy-column violation rates not strictly increasing preserve →
    ttl → immediate), [recovery-monotone] (heavy-column recovery times
    not strictly decreasing; [None] counts as infinite) and
    [recovery-p95] (immediate's during-fault p95 does not beat
    preserve's). *)
