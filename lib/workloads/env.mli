(** Builds the full simulated stack for one benchmark run: engine, machine,
    buddy allocator, pressure, RCU, reader tracking, and the allocator
    under test — the SLUB baseline or Prudence — behind one
    {!Slab.Backend.t}. *)

type kind = Baseline | Prudence_alloc | Ebr_debra | Hyaline_alloc

val all_kinds : kind list
(** Every registered allocator/SMR stack, registry order:
    slub, prudence, ebr-debra, hyaline. *)

val kind_label : kind -> string
(** "slub" / "prudence" / "ebr-debra" / "hyaline". *)

val kind_of_string : string -> kind option

val parse_kinds : string -> (kind list, string) result
(** An [--alloc] value: one kind name ({!kind_of_string}), ["both"]
    (slub and prudence) or ["all"] ({!all_kinds}). The error names the
    accepted values. *)

type config = {
  kind : kind;
  cpus : int;
  nodes : int;
  seed : int;
  tiebreak : Sim.Engine.tiebreak;
      (** Same-instant event ordering: [Fifo] (default, byte-identical
          schedules) or [Shuffle seed] for the checker's schedule
          exploration. *)
  tick_ns : int;
  total_pages : int;  (** Physical memory: pages of 4 KiB. *)
  rcu_config : Rcu.config;
  prudence_config : Prudence.config;
  ebr_config : Slab.Ebr.config;
      (** Epoch advancement tuning for the [Ebr_debra] kind. *)
  hyaline_config : Slab.Hyaline.config;
      (** Batch tuning for the [Hyaline_alloc] kind. *)
  costs : Slab.Costs.t;
  track_readers : bool;
      (** Arm the premature-reuse safety checker
          ({!Rcu.Readers.watch_reuse}; small overhead). *)
  trace : int option;
      (** [Some ring_capacity]: subscribe a {!Trace} tracer to the
          engine's probe (per-CPU event rings of that capacity + latency
          histograms). [None] (default): nothing watches the trace
          edges, so each emit costs a load and a length test. *)
  prof : Prof.t;
      (** Profiler installed on the engine (the machine and every layer
          on it read it from there) and the buddy allocator;
          {!Prof.null} (default): profiling disabled, zero overhead. *)
  debug_checks : bool;
      (** Arm {!Slab.Frame.check_invariants}' O(objects) sweeps (default
          [true]; the wall-clock benchmark harness turns it off). *)
  obs : bool;
      (** Arm the {!Obs.Anatomy} grace-period anatomy tracer / flight
          recorder (default [false]: the shared {!Obs.Anatomy.null}
          instance, which subscribes to nothing). Pure observation —
          deterministic counters are byte-identical with it on or
          off. *)
}

val default_config : config
(** 8 CPUs, 1 node, 64k pages (256 MiB), default RCU/Prudence configs. *)

type t = {
  cfg : config;
  eng : Sim.Engine.t;
  machine : Sim.Machine.t;
  buddy : Mem.Buddy.t;
  pressure : Mem.Pressure.t;
  rcu : Rcu.t;
  fenv : Slab.Frame.env;
  readers : Rcu.Readers.t;
  backend : Slab.Backend.t;
  smr : Slab.Smr.t;
      (** The truthful reclamation view (ground truth for oracles):
          matches the allocator's view except under unsafe mutation
          configs, where the allocator consumes a corrupted frontier
          and this one stays honest. *)
  rng : Sim.Rng.t;
  tracer : Trace.t option;  (** The tracer; [None] unless [cfg.trace]. *)
  prof : Prof.t;  (** The installed profiler; {!Prof.null} when off. *)
  obs : Obs.Anatomy.t;
      (** The anatomy recorder; {!Obs.Anatomy.null} when off. Watches the
          engine's {!Sim.Probe} (object edges and [kind]'s own detection
          edges) and the truthful frontier ([smr]). *)
}

val build : config -> t
(** Construct and start the stack (machine ticks running, RCU attached to
    pressure, reuse check subscribed when [track_readers]). *)

val cpu : t -> int -> Sim.Machine.cpu

val used_bytes : t -> int
(** Total used physical memory right now (the Fig. 3 y-axis). *)

val node_lock_stats : t -> Slab.Frame.cache -> int * int
(** (contended acquisitions, total wait ns) summed over the cache's nodes. *)

val safety_violations : t -> string list
