(** Flat-JSON benchmark result files ([BENCH_pr<N>.json]).

    One numeric field per line; parsed here so neither the CLI nor the
    tests need a JSON dependency. The committed files are read-only
    baselines: a gate finds its baseline in the newest (highest-numbered)
    file carrying its baseline key, so a new baseline is committed as a
    new file without editing the gates. *)

val read : string -> (string * float) list
(** Parse the numeric fields of one file. [[]] if unreadable. *)

val files : ?dir:string -> unit -> string list
(** Basenames of the numbered [BENCH_pr*.json] files in [dir] (default
    ["."]), newest — highest PR number — first. Sorted by the numeric
    suffix, not mtime, so the order is stable in a fresh CI checkout. *)

val locate_opt : ?dir:string -> key:string -> unit -> string option
(** Path of the newest file whose fields include [key]; [None] when no
    numbered file carries it. *)

(** {1 Gates} *)

type gate = (string, string * string) result
(** A CI gate's verdict: [Ok summary], or [Error (tripwire, message)]
    naming the first tripwire that fired. *)

val recorded : key:string -> (string * float) list -> (float, string * string) result
(** [recorded ~key fields] is [key]'s value in a baseline file's
    [fields], or the [baseline-discovery] tripwire when it is absent: a
    gate must compare against a committed baseline, never one it just
    measured. *)

val rate_gate : recorded:float -> float -> gate
(** [rate_gate ~recorded events_per_sec]: the [rate] tripwire fires below
    half the recorded rate; the summary is empty. *)
