(** Experiment registry: one entry per table/figure of the paper's
    evaluation (plus ablations). Each experiment builds fresh simulated
    stacks, runs the workload over the SLUB baseline and Prudence, and
    renders a {!Metrics.Report.t} comparing the measured shape against the
    paper's claim. *)

type params = {
  scale : float;
      (** Multiplies workload sizes (transactions, pairs); 1.0 = the
          defaults used in EXPERIMENTS.md. *)
  seed : int;
  cpus : int;
  runs : int;  (** Repetitions for mean +/- stdev (paper: 3). *)
  trace : int option;
      (** [Some ring_capacity] arms the {!Trace} tracer on every
          environment the experiment builds; [None] (default) runs
          untraced. *)
}

val default_params : params

type experiment = {
  id : string;
  title : string;
  paper_ref : string;  (** "Fig. 6", "§3.3", ... *)
  run : params -> Metrics.Report.t list;
}

val all : experiment list
(** In paper order: fig3, costs, fig6, fig7..fig13, tree, ablations; then
    [gate], the behaviour gate ({!Gate}). *)

val find : string -> experiment option

(** {1 Individual experiment entry points} (used by tests) *)

val run_fig3 : params -> Metrics.Report.t list
val run_costs : params -> Metrics.Report.t list
val run_fig6 : params -> Metrics.Report.t list

val run_apps : params -> Metrics.Report.t list
(** Runs the four application benchmarks once per allocator and emits the
    Fig. 7-13 reports from the same pair of runs. *)

val run_tree : params -> Metrics.Report.t list
(** Extension (§3.1): path-copying BST updates defer several objects per
    operation; compares both allocators under that burstier pattern. *)

val run_ablations : params -> Metrics.Report.t list

(** {1 Raw data access} (used by the CLI and tests) *)

val microbench_pair :
  params -> obj_size:int ->
  Workloads.Microbench.result * Workloads.Microbench.result
(** (baseline, prudence) single-run results for one object size. *)

val endurance_pair :
  params -> Workloads.Endurance.result * Workloads.Endurance.result

val app_results :
  params ->
  (string * Workloads.Appmodel.result * Workloads.Appmodel.result) list
(** [(bench, baseline, prudence)] for the four §5.3 benchmarks. *)

(** {1 Traced runs} (the [trace] subcommand and bench harness) *)

val traceable : string list
(** Experiment ids {!run_traced} accepts. *)

type traced = {
  label : string;  (** The allocator. *)
  tracer : Trace.t;  (** Event rings and the GP/lock/alloc histograms. *)
  lifetime : Trace.Hist.t;
      (** Defer->reuse lifetimes: the anatomy recorder's total. *)
}

val run_traced : params -> string -> traced list option
(** [run_traced params id] reruns experiment [id]'s workload over both
    allocators with tracing and the anatomy recorder forced on (ring
    capacity from [params.trace], default 65536), one {!traced} per run.
    [None] if [id] is not in {!traceable}. *)
