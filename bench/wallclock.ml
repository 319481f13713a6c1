(* Behaviour gate over pinned scenarios (the `perf` subcommand).

   Four scenarios run under both allocators and export two kinds of
   rows:

   - deterministic counters (executed events, simulated time, workload
     updates, slab alloc/free/deferred-free counts, grace periods) —
     functions of the seed alone, gated byte-identical in CI via the
     [Exact] metric direction;
   - allocs-per-event — replay-stable for a given compiler but not
     byte-exact across toolchains, gated [Lower_better] with a slack
     tolerance so an accidental allocation regression in a hot path
     fails CI while codegen drift does not.

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

let scenario_of_string = function
  | "endurance" -> Some Endurance
  | "fig3" -> Some Fig3
  | "chaos-clean" | "chaos_clean" -> Some Chaos_clean
  | "check" -> Some Check
  | _ -> None

type params = { scale : float; seed : int; cpus : int }

let default_params = { scale = 1.0; seed = 42; cpus = 8 }

(* The throttled-callback RCU config of the Fig. 3 endurance family
   (lib/core/experiments.ml): the regime where deferred frees pile up,
   which is exactly what stresses the latent-bookkeeping hot paths. *)
let throttled_rcu =
  {
    Rcu.default_config with
    Rcu.blimit = 10;
    expedited_blimit = 30;
    softirq_period_ns = 1_000_000;
    qhimark = max_int;
  }

let scaled_ns scale ns = max 1 (int_of_float (float_of_int ns *. scale))

(* One run of a pinned scenario. Returns the environment (for post-run
   counter extraction) and the workload's update count. [prof] installs a
   profiler on the run's stack (test/test_prof.ml checks that doing so
   leaves the counters alone); the default null profiler keeps gate runs
   instrumentation-free. *)
let run_once ?(prof = Prof.null) p scenario kind =
  match scenario with
  | Endurance ->
      (* The `stat` subcommand's live endurance shape: 256 MiB, 2 s. *)
      let env =
        W.Env.build
          {
            W.Env.default_config with
            W.Env.kind;
            cpus = p.cpus;
            seed = p.seed;
            total_pages = 65_536;
            rcu_config = throttled_rcu;
            prof;
            debug_checks = false;
          }
      in
      let r =
        W.Endurance.run env
          {
            W.Endurance.default_config with
            W.Endurance.duration_ns = scaled_ns p.scale (Sim.Clock.s 2);
          }
      in
      (env, r.W.Endurance.updates)
  | Fig3 ->
      (* The Fig. 3 experiment shape: 1 GiB, 12 s, baseline OOMs. *)
      let env =
        W.Env.build
          {
            W.Env.default_config with
            W.Env.kind;
            cpus = p.cpus;
            seed = p.seed;
            total_pages = 262_144;
            rcu_config = throttled_rcu;
            prof;
            debug_checks = false;
          }
      in
      let r =
        W.Endurance.run env
          {
            W.Endurance.default_config with
            W.Endurance.duration_ns =
              Sim.Clock.s (max 1 (int_of_float (12. *. p.scale)));
          }
      in
      (env, r.W.Endurance.updates)
  | Chaos_clean ->
      (* The chaos control row: tracing armed, mitigations on, no
         faults — the heaviest instrumentation the simulator carries. *)
      let base = W.Chaos.default_config ~scenario:W.Chaos.Clean in
      let o =
        W.Chaos.run_one
          {
            base with
            W.Chaos.seed = p.seed;
            cpus = p.cpus;
            duration_ns = scaled_ns p.scale base.W.Chaos.duration_ns;
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
      let duration_ns = scaled_ns p.scale (Sim.Clock.s 1) in
      let env =
        W.Env.build
          {
            W.Env.default_config with
            W.Env.kind;
            cpus = p.cpus;
            seed = p.seed;
            total_pages = 65_536;
            rcu_config =
              {
                throttled_rcu with
                Rcu.stall_timeout_ns = Some (max 1 (duration_ns / 8));
              };
            prof;
            track_readers = true;
            debug_checks = false;
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
      let r =
        W.Endurance.run env
          { W.Endurance.default_config with W.Endurance.duration_ns }
      in
      Check.Oracles.finalize orc;
      if Check.Shadow.violation_count oracle > 0
         || Check.Oracles.stall_violations orc <> []
         || Check.Oracles.cb_violations orc <> []
      then failwith "wallclock: oracle fired on the clean check scenario";
      (env, r.W.Endurance.updates)

(* Deterministic counters: pure functions of (scenario, kind, params). *)
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

let measure p scenario kind =
  let m0 = Gc.minor_words () in
  let env, updates = run_once p scenario kind in
  let minor_words = Gc.minor_words () -. m0 in
  {
    scenario;
    alloc_label = W.Env.kind_label kind;
    minor_words;
    c = counters_of env updates;
  }

(* The §6-style overhead figure: simulator minor-heap words allocated per
   engine event. The event count is deterministic and the allocation
   profile is replay-stable for a given compiler, so it gates —
   Lower_better with slack for codegen drift across compiler point
   releases. *)
let allocs_per_event m =
  if m.c.events = 0 then 0. else m.minor_words /. float_of_int m.c.events

let allocs_per_event_tolerance_pct = 10.

let run_all ?(scenarios = all_scenarios) p =
  List.concat_map
    (fun s ->
      List.map
        (fun k -> measure p s k)
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
        Printf.sprintf "wallclock.%s.%s" (scenario_name m.scenario)
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

let to_bench p ms =
  Stats.Bench_json.make
    ~config:
      {
        Stats.Bench_json.seed = p.seed;
        scale = p.scale;
        cpus = p.cpus;
        runs = 1;
      }
    ~metrics:(metrics ms)
