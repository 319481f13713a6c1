(** Public facade of the Prudence reproduction.

    Re-exports every layer plus the {!Experiments} registry that
    regenerates each table/figure of the paper. Open nothing; use
    qualified paths ([Core.Experiments.run_fig6], [Core.Prudence.alloc],
    ...). *)

module Trace = Trace
module Prof = Prof
module Sim = Sim
module Mem = Mem
module Rcu = Rcu
module Slab = Slab
module Prudence = Prudence
module Faults = Faults
module Rcudata = Rcudata
module Workloads = Workloads
module Obs = Obs
module Check = Check
module Metrics = Metrics
module Stats = Stats
module Experiments = Experiments
module Gate = Gate
module Chaos = Chaos
module Tournament = Tournament
module Anatomy = Anatomy

let version = "1.0.0"
