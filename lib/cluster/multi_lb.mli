(** Multiple LBs over one server pool (§5 Q4).

    Each LB owns its own VIP, serves its own clients, and runs its own
    in-band estimator and feedback controller. Uncoordinated, every
    controller independently shifts traffic away from a degraded server,
    and because each acts on a partial view, the fleet over-shifts and
    oscillates (the thundering-herd concern the paper raises as an open
    question). With a {!Coordination} policy the fleet shares snapshots
    over a simulated control plane and either gossips (merged estimates
    + fleet-epoch hysteresis) or follows a leader. This experiment
    measures churn and convergence as the LB count grows while total
    offered load is fixed. The fleet is a {!Scenario.config}
    ({!fleet}); {!Scenario.build} wires it like any other cluster. *)

val fleet : Scenario.config
(** The herd fleet: 2 LBs over 2 servers, 4 clients with one connection
    each, a stabilised latency-aware controller, uncoordinated, seed
    [0x2b1b]. {!herd_one} overrides [n_lbs], [coord] and the law. *)

(** {1 The herd experiment} *)

type row = {
  n_lbs : int;
  coord : Coordination.policy;
  law : Inband.Control_law.kind;  (** The control law every LB ran. *)
  p95_before_us : float;
  p95_after_us : float;
  total_actions : int;
      (** Fleet-total [ctl.actions]: local shifts plus leader-imposed
          weight adoptions — every entry is one Maglev rebuild. *)
  per_lb_actions : int list;
      (** Per-LB [ctl.actions], LB order. Sums to [total_actions]. *)
  victim_flips : int;
      (** Controller actions whose victim differs from that controller's
          previous victim — a proxy for hunting/oscillation. *)
  victim_weight_mean : float;
      (** Mean over LBs of the degraded server's final weight. *)
  converged_ms : float;
      (** Time from the start of the run until the fleet-mean victim
          weight first reaches 0.1 (50 ms sampling) — how long the
          whole fleet takes to concentrate traffic away from the victim;
          [nan] if it never does. *)
  msgs : int;  (** Control-plane snapshots sent fleet-wide. *)
  suppressed : int;  (** Hysteresis vetoes + no-change imposes. *)
  imposed : int;  (** Follower weight adoptions (leader mode). *)
  pcc_checked : int;
  pcc_violations : int;
}

val herd_one :
  ?coord:Coordination.config ->
  ?pcc:bool ->
  ?law:Inband.Control_law.kind ->
  ?remap:Inband.Remap.t ->
  n_lbs:int ->
  duration:Des.Time.t ->
  inject_at:Des.Time.t ->
  unit ->
  row
(** One Fig. 3-style injection run. [pcc] defaults to [true]: every
    herd run doubles as a PCC assertion (a counting one: see
    [pcc_violations]). [law] (default [Shift_worst]) is the control
    law every LB's controller runs; [remap] (default [Preserve]) the
    rebuild remap policy of every balancer. *)

val coord_sweep :
  ?jobs:int ->
  ?law:Inband.Control_law.kind ->
  ?remap:Inband.Remap.t ->
  ?policies:Coordination.policy list ->
  ?lb_counts:int list ->
  ?duration:Des.Time.t ->
  ?inject_at:Des.Time.t ->
  unit ->
  row list
(** The extended A7: the herd run for every (policy, LB count) pair —
    defaults [none; gossip; leader] x [1; 2; 4]. Deterministic and
    byte-identical at any [jobs]. *)

val law_sweep :
  ?jobs:int ->
  ?laws:Inband.Control_law.kind list ->
  ?lb_counts:int list ->
  ?duration:Des.Time.t ->
  ?inject_at:Des.Time.t ->
  unit ->
  row list
(** The control-law ablation (A8): the herd injection for every
    (law, LB count) pair, uncoordinated — the paper's shift-worst as
    baseline — plus the gradient law under gossip coordination (each
    LB descends on the merged fleet estimates). Deterministic and
    byte-identical at any [jobs]. *)

val coord_table : row list -> string
(** The A7 table: one line per (policy, LB count) run. *)

val law_table : row list -> string
(** The A8 table: one line per (law, policy, LB count) run. *)

val print_coord : row list -> unit
val print_laws : row list -> unit

(** {1 Gates} *)

val coord_gate : row list -> Bench_store.gate
(** The coord-smoke gate over {!coord_sweep} rows. Tripwires: [pcc] (any
    violation in any run) and [churn] (at the largest fleet, gossip or
    leader took more than half the uncoordinated fleet-total actions;
    skipped when no uncoordinated row exists at that size). *)

val law_baseline_key : string
(** ["law_baseline_converged_ms"]: the committed shift-worst 1-LB
    convergence time {!law_gate} compares against. *)

val law_gate : baseline:(string * float) list -> row list -> Bench_store.gate
(** The law-smoke gate over {!law_sweep} rows, against the fields of the
    committed baseline file carrying {!law_baseline_key}. Tripwires, in
    order: [baseline-discovery] (the key is absent), [pcc], [convergence]
    (shift-worst at 1 LB never converged, or took over 1.25x the
    recorded time), and per fleet size [p95] (gradient's post-injection
    p95 above 1.1x shift-worst's) and [churn] (gradient+gossip took no
    fewer actions than uncoordinated gradient at more than one LB). *)
