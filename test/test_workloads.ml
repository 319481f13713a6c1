module W = Workloads

let small_cfg kind =
  {
    W.Env.default_config with
    W.Env.kind;
    cpus = 2;
    seed = 5;
    total_pages = 16_384;
    tick_ns = 250_000;
  }

let test_env_build () =
  let env = W.Env.build (small_cfg W.Env.Baseline) in
  Alcotest.(check string) "label" "slub"
    env.W.Env.backend.Slab.Backend.label;
  Alcotest.(check int) "cpus" 2 (Sim.Machine.nr_cpus env.W.Env.machine);
  Alcotest.(check int) "no memory used yet" 0 (W.Env.used_bytes env);
  let env2 = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  Alcotest.(check string) "label" "prudence"
    env2.W.Env.backend.Slab.Backend.label

let test_kind_parsing () =
  Alcotest.(check bool) "slub" true (W.Env.kind_of_string "slub" = Some W.Env.Baseline);
  Alcotest.(check bool) "prudence" true
    (W.Env.kind_of_string "prudence" = Some W.Env.Prudence_alloc);
  Alcotest.(check bool) "junk" true (W.Env.kind_of_string "junk" = None)

(* One meaning per --alloc value, whichever command reads it. *)
let test_parse_kinds () =
  let ok s = match W.Env.parse_kinds s with Ok k -> k | Error e -> failwith e in
  Alcotest.(check bool) "both = slub + prudence" true
    (ok "both" = [ W.Env.Baseline; W.Env.Prudence_alloc ]);
  Alcotest.(check bool) "all = every kind" true (ok "all" = W.Env.all_kinds);
  Alcotest.(check bool) "one name, one kind" true
    (ok "ebr" = [ W.Env.Ebr_debra ]);
  Alcotest.(check bool) "junk rejected" true
    (Result.is_error (W.Env.parse_kinds "junk"))

let micro_cfg =
  {
    W.Microbench.default_config with
    W.Microbench.pairs_per_cpu = 3_000;
    obj_size = 512;
  }

let test_microbench_completes_both () =
  List.iter
    (fun kind ->
      let env = W.Env.build (small_cfg kind) in
      let r = W.Microbench.run env micro_cfg in
      Alcotest.(check int)
        (W.Env.kind_label kind ^ " all pairs")
        6_000 r.W.Microbench.pairs;
      Alcotest.(check bool) "no oom" false r.W.Microbench.oom;
      Alcotest.(check bool) "positive rate" true
        (r.W.Microbench.pairs_per_sec > 0.);
      (* settle ran: nothing outstanding *)
      Alcotest.(check int) "rcu drained" 0
        (Rcu.pending_callbacks env.W.Env.rcu))
    [ W.Env.Baseline; W.Env.Prudence_alloc ]

let test_microbench_deterministic () =
  let run () =
    let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
    let r = W.Microbench.run env micro_cfg in
    (r.W.Microbench.duration_ns, r.W.Microbench.snap.Slab.Slab_stats.grows)
  in
  Alcotest.(check (pair int int)) "same seed, same result" (run ()) (run ())

let test_microbench_stats_consistent () =
  let env = W.Env.build (small_cfg W.Env.Baseline) in
  let r = W.Microbench.run env micro_cfg in
  let s = r.W.Microbench.snap in
  Alcotest.(check int) "allocs = pairs" 6_000 s.Slab.Slab_stats.allocs;
  Alcotest.(check int) "deferred = pairs" 6_000
    s.Slab.Slab_stats.deferred_frees;
  Alcotest.(check int) "hits + misses = allocs" 6_000
    (s.Slab.Slab_stats.hits + s.Slab.Slab_stats.misses)

let test_endurance_prudence_flat () =
  let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  let r =
    W.Endurance.run env
      {
        W.Endurance.default_config with
        W.Endurance.duration_ns = Sim.Clock.ms 200;
        update_interval_ns = 20_000;
        list_len = 16;
      }
  in
  Alcotest.(check bool) "samples recorded" true (Array.length r.W.Endurance.series > 10);
  Alcotest.(check bool) "no oom" true (r.W.Endurance.oom_at_ns = None);
  Alcotest.(check bool) "updates happened" true (r.W.Endurance.updates > 1000);
  (* flat: the last sample is within 3x of the 25%-mark sample *)
  let series = r.W.Endurance.series in
  let q = Array.length series / 4 in
  let _, early = series.(q) and _, last = series.(Array.length series - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "equilibrium (%.2f vs %.2f MiB)" early last)
    true
    (last < 3. *. Float.max early 0.5)

let test_endurance_baseline_grows () =
  let cfg =
    {
      (small_cfg W.Env.Baseline) with
      W.Env.tick_ns = 1_000_000;
      rcu_config =
        {
          Rcu.default_config with
          Rcu.blimit = 5;
          expedited_blimit = 10;
          softirq_period_ns = 1_000_000;
          qhimark = max_int;
        };
    }
  in
  let env = W.Env.build cfg in
  let r =
    W.Endurance.run env
      {
        W.Endurance.default_config with
        W.Endurance.duration_ns = Sim.Clock.ms 500;
        update_interval_ns = 10_000;
        list_len = 16;
      }
  in
  let series = r.W.Endurance.series in
  let q = Array.length series / 4 in
  let _, early = series.(q) and _, last = series.(Array.length series - 1) in
  Alcotest.(check bool)
    (Printf.sprintf "memory climbs (%.2f -> %.2f MiB)" early last)
    true
    (last > 1.5 *. early);
  Alcotest.(check bool) "backlog built up" true (r.W.Endurance.max_backlog > 1_000)

let app_test_cfg =
  W.Appmodel.
    {
      bench_name = "mini";
      caches =
        [
          { cache_name = "filp"; obj_size = 256 };
          { cache_name = "kmalloc-64"; obj_size = 64 };
        ];
      standing = [ ("filp", 4) ];
      gen_txn =
        (fun _rng ->
          [
            Acquire "filp";
            Acquire "kmalloc-64";
            Work 500;
            Release_newest "kmalloc-64";
            Release_deferred "filp";
          ]);
      txns_per_cpu = 1_000;
      think_ns_mean = 2_000.;
    }

let test_appmodel_runs () =
  let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  let r = W.Appmodel.run env app_test_cfg in
  Alcotest.(check int) "all txns" 2_000 r.W.Appmodel.txns;
  Alcotest.(check bool) "no oom" false r.W.Appmodel.oom;
  Alcotest.(check int) "both caches reported" 2
    (List.length r.W.Appmodel.caches);
  (* one deferred (filp) and one regular (kmalloc) free per txn -> 50% *)
  Alcotest.(check bool)
    (Printf.sprintf "deferred pct ~50 (%.1f)" r.W.Appmodel.deferred_pct)
    true
    (r.W.Appmodel.deferred_pct > 45. && r.W.Appmodel.deferred_pct < 55.)

let test_appmodel_standing_objects_live () =
  let env = W.Env.build (small_cfg W.Env.Prudence_alloc) in
  let r = W.Appmodel.run env app_test_cfg in
  let filp =
    List.find
      (fun (c : W.Appmodel.cache_result) -> c.W.Appmodel.cache_name = "filp")
      r.W.Appmodel.caches
  in
  (* 4 standing objects per cpu x 2 cpus stay live: fragmentation is
     well-defined. *)
  Alcotest.(check bool) "fragmentation defined" false
    (Float.is_nan filp.W.Appmodel.fragmentation);
  Alcotest.(check bool) "fragmentation >= 1" true
    (filp.W.Appmodel.fragmentation >= 1.0)

let test_appmodel_unknown_cache_rejected () =
  let env = W.Env.build (small_cfg W.Env.Baseline) in
  let bad =
    { app_test_cfg with W.Appmodel.gen_txn = (fun _ -> [ W.Appmodel.Acquire "nope" ]) }
  in
  (try
     ignore (W.Appmodel.run env bad);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

let paper_ratio name lo hi cfg =
  let env = W.Env.build { (small_cfg W.Env.Baseline) with W.Env.cpus = 2 } in
  let r = W.Appmodel.run env cfg in
  Alcotest.(check bool)
    (Printf.sprintf "%s deferred share %.1f%% in [%g, %g]" name
       r.W.Appmodel.deferred_pct lo hi)
    true
    (r.W.Appmodel.deferred_pct >= lo && r.W.Appmodel.deferred_pct <= hi)

let test_fig12_ratios () =
  (* Paper Fig. 12: Postmark 24.4%, Netperf 14%, Apache 18%, PostgreSQL
     4.4%. Allow a couple of points of modelling slack. *)
  paper_ratio "postmark" 19. 29. (W.Postmark.config ~txns_per_cpu:2_000 ());
  paper_ratio "netperf" 11. 17. (W.Netperf.config ~txns_per_cpu:2_000 ());
  paper_ratio "apache" 15. 22. (W.Apache.config ~txns_per_cpu:2_000 ());
  paper_ratio "postgresql" 2.5 7. (W.Postgresql.config ~txns_per_cpu:2_000 ())

let suite =
  [
    Alcotest.test_case "env build" `Quick test_env_build;
    Alcotest.test_case "kind parsing" `Quick test_kind_parsing;
    Alcotest.test_case "--alloc parsing" `Quick test_parse_kinds;
    Alcotest.test_case "microbench completes (both)" `Quick
      test_microbench_completes_both;
    Alcotest.test_case "microbench deterministic" `Quick
      test_microbench_deterministic;
    Alcotest.test_case "microbench stats consistent" `Quick
      test_microbench_stats_consistent;
    Alcotest.test_case "endurance: prudence flat" `Slow
      test_endurance_prudence_flat;
    Alcotest.test_case "endurance: baseline grows" `Slow
      test_endurance_baseline_grows;
    Alcotest.test_case "appmodel runs" `Quick test_appmodel_runs;
    Alcotest.test_case "appmodel standing objects" `Quick
      test_appmodel_standing_objects_live;
    Alcotest.test_case "appmodel unknown cache" `Quick
      test_appmodel_unknown_cache_rejected;
    Alcotest.test_case "fig12 deferred shares" `Slow test_fig12_ratios;
  ]
