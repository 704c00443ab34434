(** The flow-scale churn workload: [n] concurrent flows through one
    balancer on one engine, with FIN + reincarnation churn and an
    idle-expiry drain. (The name dates from when the workload could be
    split across engines.) *)

val clients : int
(** Client hosts in the workload (64); flow i lives on client
    [(i + seed) land 63]. *)

val servers : int
(** Backend servers (8). *)

val rounds : int
(** Sends per flow over the whole run (12). *)

type result = {
  n : int;
  events : int;  (** events fired *)
  responses : int;
  active_peak : int;  (** tracked flows at the send horizon *)
  wall_s : float;  (** sends and drain, without the forced full major *)
  events_per_sec : float;  (** [events] / [wall_s] *)
  words_per_flow : float;
      (** live words per flow at peak concurrency, under a full major *)
  full_major_s : float;
  major_collections : int;
  major_words : float;
  csv : string;  (** per-client sends and responses, plus flow counts *)
}

val flows : ?seed:int -> n:int -> unit -> result
(** [flows ~n ()] runs [n] concurrent flows (12 sends each, FIN +
    reincarnation every 8th packet) to completion, including the
    idle-expiry drain. [seed] (default 0, the historical workload)
    deterministically perturbs the flow→client assignment and the flow
    port space.

    @raise Invalid_argument if [n < 1] or [seed < 0].
    @raise Failure if any flow survives the idle-expiry drain. *)

val baseline_key : string
(** ["flows_baseline_events_per_sec"]: the committed rate {!gate}
    compares against. *)

val gate : baseline:(string * float) list -> result -> Bench_store.gate
(** The flow-smoke gate against the fields of the committed baseline file
    carrying {!baseline_key}. Tripwires: [baseline-discovery] (the key is
    absent), [rate] (events/s below half the baseline) and [words] (live
    words/flow above 1.5x [flows_baseline_words_per_flow], when
    recorded). The summary is empty. *)
