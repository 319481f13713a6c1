(* Behaviour gate over pinned scenarios (the registry's `gate`
   experiment, last in Experiments.all).

   Four scenarios run under both allocators and export two kinds of
   rows:

   - deterministic counters (executed events, simulated time, workload
     updates, slab alloc/free/deferred-free counts, grace periods) —
     functions of (seed, scale, cpus) alone, gated byte-identical in CI
     via the [Exact] metric direction;
   - allocs-per-event — replay-stable for a given compiler but not
     byte-exact across toolchains, gated [Lower_better] with a slack
     tolerance so an accidental allocation regression in a hot path
     fails CI while codegen drift does not.

   A gate run takes the registry's seed, scale and CPU count, not its
   runs or trace: the counters are single-run and instrumentation-free.
   Host time is not measured here: perfbench/ (`python3 perfbench/run.py`)
   is the one host-time benchmark. *)

module W = Workloads
module R = Metrics.Report
module T = Metrics.Table

type scenario = Endurance | Fig3 | Chaos_clean | Check

let all_scenarios = [ Endurance; Fig3; Chaos_clean; Check ]

let scenario_name = function
  | Endurance -> "endurance"
  | Fig3 -> "fig3"
  | Chaos_clean -> "chaos-clean"
  | Check -> "check"

let scaled_ns scale ns = max 1 (int_of_float (float_of_int ns *. scale))

(* The pinned environment: throttled callbacks, debug sweeps off. *)
let env_config ~prof ~seed ~cpus ~total_pages kind =
  {
    W.Env.default_config with
    W.Env.kind;
    cpus;
    seed;
    total_pages;
    rcu_config = W.Endurance.throttled_rcu;
    prof;
    debug_checks = false;
  }

let endurance env duration_ns =
  let r =
    W.Endurance.run env
      { W.Endurance.default_config with W.Endurance.duration_ns }
  in
  (env, r.W.Endurance.updates)

(* One run of a pinned scenario. Returns the environment (for post-run
   counter extraction) and the workload's update count. [prof] installs a
   profiler on the run's stack (test/test_prof.ml checks that doing so
   leaves the counters alone); the default null profiler keeps gate runs
   instrumentation-free. *)
let run_once ?(prof = Prof.null) ~scale ~seed ~cpus scenario kind =
  let env_config = env_config ~prof ~seed ~cpus kind in
  match scenario with
  | Endurance ->
      (* The `stat` subcommand's live endurance shape: 256 MiB, 2 s. *)
      endurance
        (W.Env.build (env_config ~total_pages:65_536))
        (scaled_ns scale (Sim.Clock.s 2))
  | Fig3 ->
      (* The Fig. 3 experiment shape: 1 GiB, 12 s, baseline OOMs. *)
      endurance
        (W.Env.build (env_config ~total_pages:262_144))
        (Sim.Clock.s (max 1 (int_of_float (12. *. scale))))
  | Chaos_clean ->
      (* The chaos control row: tracing armed, mitigations on, no
         faults — the heaviest instrumentation the simulator carries. *)
      let base = W.Chaos.default_config ~scenario:W.Chaos.Clean in
      let o =
        W.Chaos.run_one
          {
            base with
            W.Chaos.seed;
            cpus;
            duration_ns = scaled_ns scale base.W.Chaos.duration_ns;
            prof;
            debug_checks = false;
          }
          kind
      in
      (o.W.Chaos.env, o.W.Chaos.updates)
  | Check ->
      (* The verification stack armed on a 1 s endurance run: shadow-heap
         probes on every slab transition, the pattern oracles polling
         from the engine observer, reader tracking on. The checker's own
         cost lands in the check.probe span and its allocation behaviour
         gates via allocs-per-event like any other hot path. *)
      let duration_ns = scaled_ns scale (Sim.Clock.s 1) in
      let cfg = env_config ~total_pages:65_536 in
      let env =
        W.Env.build
          {
            cfg with
            W.Env.rcu_config =
              {
                cfg.W.Env.rcu_config with
                Rcu.stall_timeout_ns = Some (max 1 (duration_ns / 8));
              };
            track_readers = true;
          }
      in
      let oracle = Check.Shadow.install env in
      let orc =
        Check.Oracles.install
          (Check.Oracles.default_config ~duration_ns)
          env
      in
      Sim.Engine.set_observer
        (Sim.Machine.engine env.W.Env.machine)
        (Some (fun ~time:_ -> Check.Oracles.poll_stall orc));
      let run = endurance env duration_ns in
      Check.Oracles.finalize orc;
      if Check.Shadow.violation_count oracle > 0
         || Check.Oracles.stall_violations orc <> []
         || Check.Oracles.cb_violations orc <> []
      then failwith "gate: oracle fired on the clean check scenario";
      run

(* Deterministic counters: pure functions of (scenario, kind, seed, scale,
   cpus). *)
type counters = {
  events : int;  (** Engine events executed. *)
  sim_ns : int;  (** Final virtual clock. *)
  updates : int;  (** Workload list updates completed. *)
  allocs : int;  (** Slab allocations, summed over caches. *)
  frees : int;
  deferred_frees : int;
  gps : int;  (** RCU grace periods completed. *)
}

let counters_of env updates =
  let allocs = ref 0 and frees = ref 0 and deferred = ref 0 in
  env.W.Env.backend.Slab.Backend.iter_caches (fun c ->
      let s = Slab.Slab_stats.snapshot c.Slab.Frame.stats in
      allocs := !allocs + s.Slab.Slab_stats.allocs;
      frees := !frees + s.Slab.Slab_stats.frees;
      deferred := !deferred + s.Slab.Slab_stats.deferred_frees);
  {
    events = Sim.Engine.executed env.W.Env.eng;
    sim_ns = Sim.Engine.now env.W.Env.eng;
    updates;
    allocs = !allocs;
    frees = !frees;
    deferred_frees = !deferred;
    gps = (Rcu.stats env.W.Env.rcu).Rcu.gps_completed;
  }

type measurement = {
  scenario : scenario;
  alloc_label : string;  (** "slub" / "prudence". *)
  minor_words : float;  (** GC minor-heap words allocated by the run. *)
  c : counters;
}

(* The §6-style overhead figure: simulator minor-heap words allocated per
   engine event. The event count is deterministic and the allocation
   profile is replay-stable for a given compiler, so it gates —
   Lower_better with slack for codegen drift across compiler point
   releases. *)
let allocs_per_event m =
  if m.c.events = 0 then 0. else m.minor_words /. float_of_int m.c.events

let allocs_per_event_tolerance_pct = 10.

(* Each scenario under SLUB, then Prudence. *)
let run_all ?(scenarios = all_scenarios) ~scale ~seed ~cpus () =
  List.concat_map
    (fun scenario ->
      List.map
        (fun kind ->
          let m0 = Gc.minor_words () in
          let env, updates = run_once ~scale ~seed ~cpus scenario kind in
          let minor_words = Gc.minor_words () -. m0 in
          {
            scenario;
            alloc_label = W.Env.kind_label kind;
            minor_words;
            c = counters_of env updates;
          })
        [ W.Env.Baseline; W.Env.Prudence_alloc ])
    scenarios

let table ms =
  let row m =
    [
      scenario_name m.scenario;
      m.alloc_label;
      T.fmt_i m.c.events;
      T.fmt_i m.c.updates;
      Printf.sprintf "%.1f" (allocs_per_event m);
      T.fmt_i m.c.gps;
    ]
  in
  T.render
    ~header:[ "scenario"; "alloc"; "events"; "updates"; "words/event"; "GPs" ]
    (List.map row ms)

let metrics ms =
  List.concat_map
    (fun m ->
      let pre =
        Printf.sprintf "gate.%s.%s" (scenario_name m.scenario)
          m.alloc_label
      in
      let exact name v =
        R.metric ~direction:R.Exact ~tolerance_pct:0. (pre ^ "." ^ name) v
      in
      [
        exact "events" (float_of_int m.c.events);
        exact "sim_ns" (float_of_int m.c.sim_ns);
        exact "updates" (float_of_int m.c.updates);
        exact "allocs" (float_of_int m.c.allocs);
        exact "frees" (float_of_int m.c.frees);
        exact "deferred_frees" (float_of_int m.c.deferred_frees);
        exact "gps" (float_of_int m.c.gps);
        R.metric ~direction:R.Lower_better
          ~tolerance_pct:allocs_per_event_tolerance_pct
          (pre ^ ".allocs_per_event") (allocs_per_event m);
      ])
    ms

let report ~scale ~seed ~cpus =
  let ms = run_all ~scale ~seed ~cpus () in
  R.make ~metrics:(metrics ms) ~id:"gate"
    ~title:
      "Behaviour gate: deterministic counters of four pinned scenarios, \
       both allocators"
    ~paper_claim:
      "the setup is pinned before any number is reported: the same seed, \
       scale and CPU count replay the same events, updates, allocations \
       and grace periods"
    ~verdict:
      (Printf.sprintf
         "%d runs; 7 counters each gate Exact at 0%%, words/event gates \
          Lower_better at %.0f%%"
         (List.length ms) allocs_per_event_tolerance_pct)
    (table ms)
