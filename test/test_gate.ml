(* The behaviour gate's fields must be pure functions of the pinned
   configuration: two in-process runs of the same scenario have to
   produce identical deterministic counters (the [Exact] metrics
   committed in bench/BENCH_baseline.json and gated in CI). *)

module G = Core.Gate

let counters (m : G.measurement) = m.G.c

let endurance_only () =
  G.run_all ~scenarios:[ G.Endurance ] ~scale:0.01 ~seed:42 ~cpus:2 ()

let test_deterministic_fields () =
  let ms1 = endurance_only () and ms2 = endurance_only () in
  Alcotest.(check int) "both allocators measured" 2 (List.length ms1);
  List.iter2
    (fun m1 m2 ->
      Alcotest.(check string)
        "same allocator order" m1.G.alloc_label
        m2.G.alloc_label;
      Alcotest.(check bool)
        (Printf.sprintf "deterministic counters identical (%s)"
           m1.G.alloc_label)
        true
        (counters m1 = counters m2))
    ms1 ms2

let test_exact_metrics_are_gated () =
  (* Each measurement exports exactly its 7 deterministic counters with
     the Exact direction and zero tolerance, so the CI regress gate
     refuses any drift, plus one allocs-per-event row that gates
     direction-aware (Lower_better with slack) — and nothing else. *)
  let ms = endurance_only () in
  List.iter
    (fun (m : G.measurement) ->
      let rows = G.metrics [ m ] in
      let exact, rest =
        List.partition
          (fun r -> r.Metrics.Report.direction = Metrics.Report.Exact)
          rows
      in
      Alcotest.(check int)
        ("7 exact counters: " ^ m.G.alloc_label)
        7 (List.length exact);
      List.iter
        (fun r ->
          Alcotest.(check (option (float 0.)))
            ("zero tolerance: " ^ r.Metrics.Report.name)
            (Some 0.) r.Metrics.Report.tolerance_pct)
        exact;
      match rest with
      | [ r ] ->
          Alcotest.(check bool)
            ("allocs_per_event gates Lower_better with slack: "
           ^ r.Metrics.Report.name)
            true
            (String.ends_with ~suffix:".allocs_per_event" r.Metrics.Report.name
            && r.Metrics.Report.direction = Metrics.Report.Lower_better
            && r.Metrics.Report.tolerance_pct = Some 10.)
      | _ ->
          Alcotest.failf "%s: expected one non-Exact row, got %d"
            m.G.alloc_label (List.length rest))
    ms

let test_alloc_drift_gates () =
  (* An injected allocation regression past tolerance must classify as
     Regressed (fails CI); the same drift downward must be Improved. *)
  let module B = Stats.Bench_json in
  let cfg = { B.seed = 42; scale = 0.05; cpus = 8; runs = 1 } in
  let apev v =
    Metrics.Report.metric ~direction:Metrics.Report.Lower_better
      ~tolerance_pct:G.allocs_per_event_tolerance_pct
      "gate.endurance.prudence.allocs_per_event" v
  in
  let baseline = B.make ~config:cfg ~metrics:[ apev 100. ] in
  let gate current =
    match
      B.compare_runs ~baseline
        ~current:(B.make ~config:cfg ~metrics:[ apev current ])
        ()
    with
    | [ d ] -> d.B.status
    | ds -> Alcotest.failf "expected one drift, got %d" (List.length ds)
  in
  Alcotest.(check string) "within slack" "within"
    (B.status_name (gate 110.));
  Alcotest.(check string) "injected +30% alloc drift fails" "regressed"
    (B.status_name (gate 130.));
  Alcotest.(check string) "-30% improves, never fails" "improved"
    (B.status_name (gate 70.))

let test_registered () =
  (* The gate is the registry's last experiment, so the bench harness
     writes its rows into the one baseline: 4 scenarios x 2 allocators x
     8 rows, every one named gate.*. *)
  let e =
    match Core.Experiments.find "gate" with
    | Some e -> e
    | None -> Alcotest.fail "experiment gate missing"
  in
  Alcotest.(check (option string)) "last in Experiments.all" (Some "gate")
    (match List.rev Core.Experiments.all with
    | last :: _ -> Some last.Core.Experiments.id
    | [] -> None);
  let p =
    { Core.Experiments.default_params with Core.Experiments.scale = 0.01; cpus = 2 }
  in
  let metrics = Core.Metrics.Report.all_metrics (e.Core.Experiments.run p) in
  Alcotest.(check int) "4 scenarios x 2 allocators x 8 rows" (4 * 2 * 8)
    (List.length metrics);
  List.iter
    (fun (m : Core.Metrics.Report.metric) ->
      if not (String.starts_with ~prefix:"gate." m.Core.Metrics.Report.name)
      then Alcotest.failf "row %s outside gate.*" m.Core.Metrics.Report.name)
    metrics

let suite =
  [
    Alcotest.test_case "gate counters are replay-stable" `Quick
      test_deterministic_fields;
    Alcotest.test_case "gate exports 7 exact rows and one allocs gate" `Quick
      test_exact_metrics_are_gated;
    Alcotest.test_case "gate is the registry's last experiment" `Quick
      test_registered;
    Alcotest.test_case "allocs-per-event drift gates direction-aware" `Quick
      test_alloc_drift_gates;
  ]
