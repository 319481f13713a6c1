(** SMR tournament: the chaos scenario matrix run under {e every}
    reclamation scheme — baseline SLUB (RCU callbacks), RCU+Prudence,
    EBR/DEBRA and Hyaline — rendered as one cross-scheme table plus
    NDJSON for automation.

    Each cell is one {!Workloads.Chaos.run_one} outcome extended with the
    scheme-comparable columns the chaos report does not need: end-of-run
    limbo occupancy (latent objects + pending RCU callbacks) and the
    defer-to-reuse latency percentiles from the anatomy recorder's
    total ({!Obs.Anatomy.total_hist}). Deterministic: same params,
    scenarios and kinds render byte-identical output. *)

type cell = {
  outcome : Workloads.Chaos.outcome;
  kind : Workloads.Env.kind;
  limbo : int;
      (** Deferred objects still in limbo when the run ended: latent
          cache/slab occupancy plus pending RCU callbacks. *)
  reuse_p50_ns : int option;
      (** Defer-to-reuse latency median; [None] when nothing was reused. *)
  reuse_p99_ns : int option;
  gp_p99_ns : int option;
      (** RCU grace-period p99; [None] for schemes that never ran one. *)
  obs : Obs.Anatomy.t;
      (** The cell's armed anatomy recorder: source of the per-phase
          latency columns ({!phase_p99}) and the NDJSON [phase_p99_ns]
          object. *)
}

val run :
  ?kinds:Workloads.Env.kind list ->
  Chaos.params -> Workloads.Chaos.scenario list -> cell list
(** Every scenario x kind cell, scenarios outermost. [kinds] defaults to
    {!Workloads.Env.all_kinds}. Arms the {!Obs.Anatomy} recorder on each
    run (pure observation: outcomes are unchanged). *)

val phase_p99 : cell -> Obs.Phase.t -> int option
(** 99th-percentile latency of one anatomy phase for this cell. *)

val report :
  ?kinds:Workloads.Env.kind list ->
  Chaos.params -> Workloads.Chaos.scenario list -> Metrics.Report.t

val report_cells :
  Workloads.Env.kind list -> cell list -> Metrics.Report.t
(** Render already-computed cells (lets a caller reuse one {!run} for
    both the table and {!to_ndjson}). *)

val to_ndjson : Workloads.Env.kind list -> cell list -> string
(** One ["scheme"] object per cell plus a trailing ["summary"] line
    ([ok] = zero safety violations across the table). *)
