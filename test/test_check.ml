(* The verification subsystem itself: shadow-heap oracle lifecycle, the
   auditors, schedule sweeps, differential replay — and the mutation
   self-tests proving the oracle actually fires on broken reclamation. *)

module W = Workloads
module Shadow = Check.Shadow
module Audit = Check.Audit
module Sweep = Check.Sweep
module Diff = Check.Differential

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  go 0

let build ?(kind = W.Env.Baseline) ?(track_readers = true)
    ?(prudence_config = Prudence.default_config) () =
  W.Env.build
    {
      W.Env.default_config with
      W.Env.kind;
      cpus = 2;
      seed = 7;
      total_pages = 4_096;
      prudence_config;
      track_readers;
    }

let drive ?(horizon = Sim.Clock.s 2) (env : W.Env.t) body =
  let finished = ref false in
  Sim.Process.spawn env.W.Env.eng (fun () ->
      body ();
      finished := true);
  Sim.Engine.run ~until:horizon env.W.Env.eng;
  if not !finished then Alcotest.fail "driver process did not finish"

let state_name = function
  | None -> "untracked"
  | Some s -> Format.asprintf "%a" Shadow.pp_state s

let check_state oracle ~oid expect =
  Alcotest.(check string) (Printf.sprintf "object %d state" oid) expect
    (state_name (Shadow.state oracle ~oid))

(* live -> deferred -> ripe across a grace period, then back into
   circulation, with zero violations: the oracle observes the full legal
   lifecycle without disturbing it. *)
let test_oracle_lifecycle () =
  let env = build ~kind:W.Env.Prudence_alloc () in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"lc" ~obj_size:256 in
  let c = W.Env.cpu env 0 in
  drive env (fun () ->
      let obj = Option.get (backend.Slab.Backend.alloc cache c) in
      let oid = obj.Slab.Frame.oid in
      check_state oracle ~oid "live";
      backend.Slab.Backend.free_deferred cache c obj;
      (match Shadow.state oracle ~oid with
      | Some (Shadow.Deferred _) -> ()
      | other ->
          Alcotest.failf "expected deferred, got %s" (state_name other));
      Rcu.synchronize env.W.Env.rcu;
      check_state oracle ~oid "ripe";
      (* Allocation pressure merges the ripe object back eventually. *)
      let churn =
        List.init 200 (fun _ -> backend.Slab.Backend.alloc cache c)
      in
      List.iter
        (function
          | Some o -> backend.Slab.Backend.free cache c o | None -> ())
        churn;
      match Shadow.state oracle ~oid with
      | Some (Shadow.Live | Shadow.Reclaimed) -> ()
      | other ->
          Alcotest.failf "expected live or reclaimed after churn, got %s"
            (state_name other));
  Alcotest.(check int) "no violations" 0 (Shadow.violation_count oracle);
  Alcotest.(check bool) "probes fired" true (Shadow.events oracle > 0)

(* A reader derefencing an object after it returned to a free pool must be
   flagged, and only then. *)
let test_oracle_use_after_reclaim () =
  let env = build () in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"uar" ~obj_size:256 in
  let c = W.Env.cpu env 0 in
  let readers = env.W.Env.readers in
  drive env (fun () ->
      let obj = Option.get (backend.Slab.Backend.alloc cache c) in
      let oid = obj.Slab.Frame.oid in
      (* Legal: reading a live object. *)
      Rcu.Readers.with_section readers c (fun () ->
          Rcu.Readers.hold readers c ~oid);
      Alcotest.(check int) "no violation on live access" 0
        (Shadow.violation_count oracle);
      backend.Slab.Backend.free cache c obj;
      check_state oracle ~oid "reclaimed";
      (* Broken: the reader kept a stale pointer past the free. *)
      Rcu.Readers.with_section readers c (fun () ->
          Rcu.Readers.hold readers c ~oid));
  match Shadow.violations oracle with
  | [ { Shadow.kind = Shadow.Use_after_reclaim { cpu = 0 }; oid = _; _ } ] ->
      ()
  | vs ->
      Alcotest.failf "expected one use-after-reclaim, got %d: %s"
        (List.length vs)
        (String.concat "; " (List.map Shadow.describe vs))

(* Mutation self-test: double free. The frame's own assert aborts the
   operation, but the probe fires first, so the oracle must have recorded
   the bad transition by the time the assert trips. *)
let test_oracle_double_free () =
  let env = build () in
  let oracle = Shadow.install env in
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"df" ~obj_size:256 in
  let c = W.Env.cpu env 0 in
  drive env (fun () ->
      let obj = Option.get (backend.Slab.Backend.alloc cache c) in
      backend.Slab.Backend.free cache c obj;
      match backend.Slab.Backend.free cache c obj with
      | () -> Alcotest.fail "double free was not rejected"
      | exception Assert_failure _ -> ());
  Alcotest.(check bool) "oracle saw the double free" true
    (List.exists
       (fun v ->
         match v.Shadow.kind with
         | Shadow.Bad_transition { event = "freed"; _ } -> true
         | _ -> false)
       (Shadow.violations oracle))

let small_sweep =
  {
    Sweep.default_config with
    Sweep.scenarios = [ W.Chaos.Clean; W.Chaos.Cb_flood ];
    sweeps = 2;
    base_shuffle_seed = 11;
    cpus = 2;
    duration_ns = Sim.Clock.ms 10;
    total_pages = 4_096;
  }

(* The sweep matrix at smoke scale: every shuffled schedule of every
   scenario must come back clean on both allocators, having actually done
   work. *)
let test_sweep_smoke () =
  let verdicts = Sweep.run small_sweep in
  Alcotest.(check int) "matrix size" (2 * 2 * 2) (List.length verdicts);
  List.iter
    (fun v ->
      if not (Sweep.ok v) then
        Alcotest.failf "unexpected failure: %s"
          (Format.asprintf "%a" Sweep.pp_verdict v);
      Alcotest.(check bool) "did work" true (v.Sweep.updates > 0);
      Alcotest.(check bool) "probes fired" true (v.Sweep.oracle_events > 0))
    verdicts

(* Same case, same seeds: the verdict must reproduce exactly (this is what
   makes the printed replay command trustworthy). *)
let test_sweep_deterministic_replay () =
  let case =
    { Sweep.scenario = W.Chaos.Cb_flood;
      kind = W.Env.Prudence_alloc;
      shuffle_seed = 13 }
  in
  let a = Sweep.run_case small_sweep case
  and b = Sweep.run_case small_sweep case in
  Alcotest.(check int) "same updates" a.Sweep.updates b.Sweep.updates;
  Alcotest.(check int) "same probe events" a.Sweep.oracle_events
    b.Sweep.oracle_events;
  Alcotest.(check bool) "same verdict" true (Sweep.ok a = Sweep.ok b);
  Alcotest.(check bool) "replay names the shuffle seed" true
    (contains ~affix:"--shuffle-seed=13" a.Sweep.replay)

(* A replay must rerun the same oracle set: every oracle the config
   switched off reappears as a --disable-oracle flag, and only those. *)
let test_replay_carries_disabled_oracles () =
  let case =
    { Sweep.scenario = W.Chaos.Clean;
      kind = W.Env.Prudence_alloc;
      shuffle_seed = 1 }
  in
  let replay oracles =
    Sweep.replay_command
      { small_sweep with Sweep.mutation = Sweep.Skip_gp; oracles }
      case
  in
  let r = replay { Sweep.all_oracles with Sweep.missed_qs = false } in
  Alcotest.(check bool) "disabled oracle named" true
    (contains ~affix:" --disable-oracle=missed-qs" r);
  Alcotest.(check bool) "enabled oracles not named" false
    (contains ~affix:"--disable-oracle=page-reuse" r);
  Alcotest.(check bool) "all oracles on: no flag" false
    (contains ~affix:"--disable-oracle" (replay Sweep.all_oracles))

(* Mutation self-test: reclaim one grace period early (Prudence with
   unsafe_skip_gp pretends everything is ripe). The oracle must fail the
   sweep with early-reuse violations and hand back a replayable seed. *)
let test_sweep_skip_gp_mutation_fires () =
  let cfg =
    {
      small_sweep with
      Sweep.scenarios = [ W.Chaos.Clean ];
      kinds = [ W.Env.Prudence_alloc ];
      sweeps = 1;
      mutation = Sweep.Skip_gp;
    }
  in
  match Sweep.run cfg with
  | [ v ] ->
      Alcotest.(check bool) "verdict fails" false (Sweep.ok v);
      Alcotest.(check bool) "early reuse reported" true
        (List.exists
           (fun viol ->
             match viol.Shadow.kind with
             | Shadow.Early_reuse _ -> true
             | _ -> false)
           v.Sweep.oracle_violations);
      Alcotest.(check bool) "replay command carries the mutation" true
        (contains ~affix:"--mutate=skip-gp" v.Sweep.replay)
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

(* The epoch-backend mutants: each corrupts one backend's grace
   detection while the truthful SMR view stays honest, so the shadow
   oracle's early-reuse check — and only that check — must catch it. *)
let epoch_mutation_cfg kind mutation =
  {
    small_sweep with
    Sweep.scenarios = [ W.Chaos.Stalled_reader ];
    kinds = [ kind ];
    sweeps = 1;
    duration_ns = Sim.Clock.ms 30;
    mutation;
  }

let run_epoch_mutation ?(oracles = Sweep.all_oracles) kind mutation =
  match Sweep.run { (epoch_mutation_cfg kind mutation) with Sweep.oracles } with
  | [ v ] -> v
  | vs -> Alcotest.failf "expected one verdict, got %d" (List.length vs)

let check_epoch_mutation_teeth kind mutation flag =
  let v = run_epoch_mutation kind mutation in
  Alcotest.(check bool) "verdict fails" false (Sweep.ok v);
  Alcotest.(check bool) "early reuse reported" true
    (List.exists
       (fun viol ->
         match viol.Shadow.kind with
         | Shadow.Early_reuse _ -> true
         | _ -> false)
       v.Sweep.oracle_violations);
  Alcotest.(check bool) "replay command carries the mutation" true
    (contains ~affix:("--mutate=" ^ flag) v.Sweep.replay)

let test_skip_epoch_advance_mutation_fires () =
  check_epoch_mutation_teeth W.Env.Ebr_debra Sweep.Skip_epoch_advance
    "skip-epoch-advance"

let test_drop_retire_batch_mutation_fires () =
  check_epoch_mutation_teeth W.Env.Hyaline_alloc Sweep.Drop_retire_batch
    "drop-retire-batch"

(* Necessity: with the early-reuse oracle disabled, the same mutated runs
   pass — no other oracle covers the bug, so early-reuse pulls its
   weight. *)
let test_early_reuse_oracle_necessary () =
  let oracles = { Sweep.all_oracles with Sweep.early_reuse = false } in
  List.iter
    (fun (kind, mutation) ->
      let v = run_epoch_mutation ~oracles kind mutation in
      if not (Sweep.ok v) then
        Alcotest.failf "%s without early-reuse oracle still failed: %s"
          (W.Env.kind_label kind)
          (Format.asprintf "%a" Sweep.pp_verdict v))
    [
      (W.Env.Ebr_debra, Sweep.Skip_epoch_advance);
      (W.Env.Hyaline_alloc, Sweep.Drop_retire_batch);
    ]

(* Auditors pass on a freshly built stack and after real churn. *)
let test_audit_clean () =
  let env = build ~kind:W.Env.Prudence_alloc () in
  Alcotest.(check (list string)) "fresh stack" [] (Audit.env env);
  let backend = env.W.Env.backend in
  let cache = backend.Slab.Backend.create_cache ~name:"aud" ~obj_size:512 in
  let c = W.Env.cpu env 0 in
  drive env (fun () ->
      let objs =
        List.filter_map
          (fun _ -> backend.Slab.Backend.alloc cache c)
          (List.init 300 Fun.id)
      in
      List.iteri
        (fun i o ->
          if i mod 2 = 0 then backend.Slab.Backend.free cache c o
          else backend.Slab.Backend.free_deferred cache c o)
        objs;
      (* Mid-flight audit: deferred objects outstanding. *)
      Alcotest.(check (list string)) "mid-flight" [] (Audit.env env);
      backend.Slab.Backend.settle ());
  Alcotest.(check (list string)) "after settle" [] (Audit.env env)

let test_differential_identical () =
  let trace = Diff.gen ~n_ops:800 ~seed:5 () in
  let r = Diff.run ~seed:5 trace in
  if not r.Diff.ok then
    Alcotest.failf "differential diverged: %s"
      (String.concat "; " r.Diff.mismatches);
  List.iter
    (fun (rp : Diff.replay) ->
      Alcotest.(check bool)
        (rp.Diff.label ^ " finished")
        true rp.Diff.finished)
    r.Diff.replays;
  (* The trace must actually exercise the deferred path. *)
  let deferred =
    Array.fold_left
      (fun n o -> if o = Diff.Deferred_ok then n + 1 else n)
      0 (List.hd r.Diff.replays).Diff.outcomes
  in
  Alcotest.(check bool) "trace defers objects" true (deferred > 50)

let test_differential_trace_deterministic () =
  let a = Diff.gen ~n_ops:400 ~seed:9 () and b = Diff.gen ~n_ops:400 ~seed:9 () in
  Alcotest.(check bool) "same ops" true (a.Diff.ops = b.Diff.ops);
  let c = Diff.gen ~n_ops:400 ~seed:10 () in
  Alcotest.(check bool) "different seed, different ops" true
    (a.Diff.ops <> c.Diff.ops)

let suite =
  [
    Alcotest.test_case "oracle: legal lifecycle is silent" `Quick
      test_oracle_lifecycle;
    Alcotest.test_case "oracle: use after reclaim flagged" `Quick
      test_oracle_use_after_reclaim;
    Alcotest.test_case "mutation: double free flagged" `Quick
      test_oracle_double_free;
    Alcotest.test_case "sweep: smoke matrix clean" `Quick test_sweep_smoke;
    Alcotest.test_case "sweep: verdicts replay deterministically" `Quick
      test_sweep_deterministic_replay;
    Alcotest.test_case "sweep: replay carries disabled oracles" `Quick
      test_replay_carries_disabled_oracles;
    Alcotest.test_case "mutation: skip-gp makes the sweep fail" `Quick
      test_sweep_skip_gp_mutation_fires;
    Alcotest.test_case "mutation: skip-epoch-advance caught on ebr-debra"
      `Quick test_skip_epoch_advance_mutation_fires;
    Alcotest.test_case "mutation: drop-retire-batch caught on hyaline" `Quick
      test_drop_retire_batch_mutation_fires;
    Alcotest.test_case "necessity: early-reuse oracle pulls its weight"
      `Quick test_early_reuse_oracle_necessary;
    Alcotest.test_case "auditors: clean stack, clean verdict" `Quick
      test_audit_clean;
    Alcotest.test_case "differential: stacks agree on a trace" `Quick
      test_differential_identical;
    Alcotest.test_case "differential: trace generation deterministic" `Quick
      test_differential_trace_deterministic;
  ]
