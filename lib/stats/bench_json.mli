(** Machine-readable bench results and the regression gate.

    The bench harness collects every experiment's {!Metrics.Report.metric}
    values into one document ([BENCH_seed.json]): run configuration plus
    [name -> value] with the paper-expected direction and an optional
    per-metric tolerance. CI compares a fresh document against the
    committed baseline ({!compare}) and fails on any drift past tolerance
    in the "worse" direction — improvements are reported, never fatal. *)

type config = { seed : int; scale : float; cpus : int; runs : int }

type t = {
  schema : string;  (** Currently "prudence-bench/1". *)
  config : config;
  metrics : Metrics.Report.metric list;
}

val schema_version : string

val make : config:config -> metrics:Metrics.Report.metric list -> t

val to_json : t -> Metrics.Json.t
val of_json : Metrics.Json.t -> (t, string) result

val write_file : string -> t -> unit
(** Pretty-printed (the baseline is committed; diffs should review well). *)

val load_file : string -> (t, string) result

(** {1 Regression comparison} *)

type status =
  | Within  (** Change within tolerance. *)
  | Improved  (** Past tolerance in the paper-expected direction. *)
  | Regressed  (** Past tolerance in the wrong direction. *)
  | Drifted
      (** An [Info] metric past tolerance: it has no better direction, so
          the move is reported but neither improves nor fails. *)
  | Missing  (** In the baseline, absent from the current run. *)
  | Added  (** New metric with no baseline yet (not a failure). *)

val status_name : status -> string

type drift = {
  name : string;
  baseline : float option;
  current : float option;
  change_pct : float option;  (** [None] when either side is missing. *)
  tolerance_pct : float;
  direction : Metrics.Report.direction;
  status : status;
}

val classify :
  direction:Metrics.Report.direction -> change:float -> tolerance:float ->
  status
(** The status of a [change] (percent) against a [tolerance] (percent). *)

val compare_runs :
  ?default_tolerance_pct:float -> baseline:t -> current:t -> unit -> drift list
(** One drift per metric in either document, baseline order first, then
    additions. A config mismatch (seed/scale/cpus/runs) makes every
    metric comparison meaningless, so it is reported by {!config_mismatch}
    instead — call it first. Default tolerance: 5%. *)

val config_mismatch : baseline:t -> current:t -> string option

val failures : drift list -> drift list
(** The [Regressed] and [Missing] entries (what should fail CI). *)

val pp_drifts : Format.formatter -> drift list -> unit
(** Human-readable comparison table plus a one-line summary. *)

val drift_to_json : drift -> Metrics.Json.t

val summary_to_json : ?error:string -> drift list -> Metrics.Json.t
(** The one-line summary object terminating `regress --json` output:
    status counts plus [ok]. Pass [error] (and an empty drift list) when
    the comparison never ran — a missing baseline or a config mismatch —
    so automation still gets its summary line, with [ok = false]. *)
