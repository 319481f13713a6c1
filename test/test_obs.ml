(* lib/obs: grace-period anatomy schema, recorder purity, and the
   forensic-bundle pipeline (determinism + postmortem rendering). *)

module W = Workloads
module Sweep = Check.Sweep

let small_params =
  { Core.Chaos.seed = 42; cpus = 4; scale = 0.01; ring = 2_048 }

(* Every backend reports the same five-phase schema: per phase, the
   sample count equals the reuse count (minus drops), and the clamped
   edges make the phase sums add up exactly to the total. Checked on
   clean and on cb-flood, where RCU grace periods and the epoch
   schemes' own detection run side by side. *)
let check_schema scenario =
  let results = Core.Anatomy.run small_params scenario in
  Alcotest.(check int) "four backends" 4 (List.length results);
  List.iter
    (fun (r : Core.Anatomy.result) ->
      let label =
        W.Chaos.scenario_name scenario ^ "/"
        ^ W.Env.kind_label r.Core.Anatomy.kind
      in
      let obs = r.Core.Anatomy.obs in
      Alcotest.(check bool) (label ^ ": recorder armed") true
        (Obs.Anatomy.enabled obs);
      let reuses = Obs.Anatomy.reuses obs in
      Alcotest.(check bool) (label ^ ": observed reuses") true (reuses > 0);
      Alcotest.(check int) (label ^ ": no dropped tokens") 0
        (Obs.Anatomy.dropped obs);
      let total = Obs.Anatomy.total_hist obs in
      List.iter
        (fun p ->
          let h = Obs.Anatomy.phase_hist obs p in
          Alcotest.(check int)
            (Printf.sprintf "%s: %s count" label (Obs.Phase.name p))
            (Trace.Hist.count total) (Trace.Hist.count h))
        Obs.Phase.all;
      Alcotest.(check int)
        (label ^ ": phase sums == total, exactly")
        (Trace.Hist.sum total)
        (Core.Anatomy.phase_sum obs))
    results;
  Alcotest.(check bool) "sum identity verdict" true
    (Core.Anatomy.sum_identity_ok results)

let test_anatomy_schema_all_backends () =
  List.iter check_schema [ W.Chaos.Clean; W.Chaos.Cb_flood ]

(* The RCU-backed schemes must attribute QS collection to real grace
   periods: the worst completed GP names a holdout CPU. *)
let test_worst_gp_names_holdout () =
  let results =
    Core.Anatomy.run ~kinds:[ W.Env.Baseline; W.Env.Prudence_alloc ]
      small_params W.Chaos.Clean
  in
  List.iter
    (fun (r : Core.Anatomy.result) ->
      match Obs.Anatomy.worst_gp r.Core.Anatomy.obs with
      | None -> Alcotest.fail "no completed grace period recorded"
      | Some g ->
          Alcotest.(check bool) "holdout cpu named" true
            (g.Obs.Anatomy.holdout_cpu >= 0);
          Alcotest.(check bool) "complete after start" true
            (g.Obs.Anatomy.complete_ns >= g.Obs.Anatomy.start_ns))
    results

(* Each scheme's worst grace period under cb-flood at the CI smoke's
   scale: (cookie, start, complete, first-QS CPU, holdout CPU). RCU
   grace periods run under every scheme here, so a recorder that took
   them for its own scheme's detection would name a holdout (cpu 2) for
   ebr-debra's worst epoch. *)
let test_worst_gp_pinned () =
  let expect =
    [
      ("slub", (1, 0, 1_750_000, 0, 3));
      ("prudence", (1, 0, 1_750_000, 0, 3));
      ("ebr-debra", (917, 70_441_935, 70_541_935, -1, -1));
      ("hyaline", (457, 46_199_036, 46_199_036, -1, -1));
    ]
  in
  let results =
    Core.Anatomy.run { small_params with Core.Chaos.scale = 0.05 }
      W.Chaos.Cb_flood
  in
  List.iter
    (fun (r : Core.Anatomy.result) ->
      let label = W.Env.kind_label r.Core.Anatomy.kind in
      match Obs.Anatomy.worst_gp r.Core.Anatomy.obs with
      | None -> Alcotest.failf "%s: no completed grace period" label
      | Some g ->
          let c, s, e, f, h = List.assoc label expect in
          Alcotest.(check (list int)) (label ^ ": worst gp") [ c; s; e; f; h ]
            Obs.Anatomy.
              [ g.cookie; g.start_ns; g.complete_ns; g.first_qs_cpu;
                g.holdout_cpu ])
    results

(* Detection edges are scoped to their scheme: an epoch recorder
   subscribed without RCU ignores grace-period edges and takes its
   holdouts from blocked epoch scans; with RCU, the grace-period edges
   stamp the token. *)
let test_scheme_scoped_subscription () =
  let fed ~rcu edges =
    let probe = Sim.Probe.create () in
    let t = Obs.Anatomy.create ~scheme:"ebr-debra" ~now:(fun () -> 5) () in
    Obs.Anatomy.subscribe t ~rcu probe;
    List.iter
      (fun (e, cpu, a, b) -> Sim.Probe.emit probe e ~cpu ~a ~b)
      ((Sim.Probe.Obj_defer, -1, 1, 4) :: edges);
    let r = Option.get (Obs.Anatomy.find_gp t 4) in
    Obs.Anatomy.(r.first_qs_cpu, r.holdout_cpu)
  in
  let gp_edges = [ (Sim.Probe.Gp_start, -1, 4, 0); (Gp_qs, 2, 0, 0) ] in
  Alcotest.(check (pair int int)) "epoch recorder ignores Gp_* edges"
    (-1, -1)
    (fed ~rcu:false ((Sim.Probe.Epoch_scan, -1, 0, 0) :: gp_edges));
  Alcotest.(check (pair int int)) "Epoch_blocked names the holdout" (1, 1)
    (fed ~rcu:false
       (((Sim.Probe.Epoch_scan, -1, 0, 0) :: gp_edges)
       @ [ (Epoch_blocked, 1, 0, 0) ]));
  Alcotest.(check (pair int int)) "an RCU recorder stamps from Gp_* edges"
    (2, 2) (fed ~rcu:true gp_edges)

(* Pure observation: arming the recorder must not change any
   deterministic outcome of the run. *)
let test_recorder_off_identical_counters () =
  let cfg = Core.Chaos.config_for small_params W.Chaos.Clean in
  let on = W.Chaos.run_one { cfg with W.Chaos.obs = true } W.Env.Prudence_alloc
  and off =
    W.Chaos.run_one { cfg with W.Chaos.obs = false } W.Env.Prudence_alloc
  in
  Alcotest.(check int) "updates" off.W.Chaos.updates on.W.Chaos.updates;
  Alcotest.(check int) "gp p99" off.W.Chaos.gp_p99_ns on.W.Chaos.gp_p99_ns;
  Alcotest.(check int) "stall warnings" off.W.Chaos.stall_warnings
    on.W.Chaos.stall_warnings;
  Alcotest.(check int) "safety violations" off.W.Chaos.safety_violations
    on.W.Chaos.safety_violations;
  Alcotest.(check (float 0.0)) "peak MiB" off.W.Chaos.peak_used_mib
    on.W.Chaos.peak_used_mib;
  Alcotest.(check (float 0.0)) "final MiB" off.W.Chaos.final_used_mib
    on.W.Chaos.final_used_mib;
  Alcotest.(check bool) "recorder off is null" false
    (Obs.Anatomy.enabled off.W.Chaos.env.W.Env.obs);
  Alcotest.(check bool) "recorder on saw traffic" true
    (Obs.Anatomy.reuses on.W.Chaos.env.W.Env.obs > 0)

let bundle_case_config dir =
  {
    Sweep.default_config with
    Sweep.scenarios = [ W.Chaos.Clean ];
    kinds = [ W.Env.Prudence_alloc ];
    sweeps = 1;
    cpus = 2;
    duration_ns = 5_000_000;
    mutation = Sweep.Skip_gp;
    bundle_dir = Some dir;
  }

let bundle_case =
  { Sweep.scenario = W.Chaos.Clean; kind = W.Env.Prudence_alloc;
    shuffle_seed = 1 }

let tmp_dir name =
  let d = Filename.concat (Filename.get_temp_dir_name ()) name in
  (try Sys.mkdir d 0o755 with Sys_error _ -> ());
  d

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Same seed + same violation => byte-identical bundle NDJSON. *)
let test_bundle_deterministic () =
  let run dir =
    let v = Sweep.run_case (bundle_case_config dir) bundle_case in
    Alcotest.(check bool) "case fails under skip-gp" false (Sweep.ok v);
    match v.Sweep.bundle with
    | None -> Alcotest.fail "failing case produced no bundle"
    | Some path -> read_file path
  in
  let a = run (tmp_dir "obs-bundle-a") in
  let b = run (tmp_dir "obs-bundle-b") in
  Alcotest.(check bool) "bundle non-empty" true (String.length a > 0);
  Alcotest.(check string) "byte-identical across re-runs" a b

(* A passing case writes nothing even with the dump armed. *)
let test_no_bundle_on_pass () =
  let dir = tmp_dir "obs-bundle-pass" in
  let cfg =
    { (bundle_case_config dir) with Sweep.mutation = Sweep.No_mutation }
  in
  let v = Sweep.run_case cfg bundle_case in
  Alcotest.(check bool) "clean case passes" true (Sweep.ok v);
  Alcotest.(check bool) "no bundle path" true (v.Sweep.bundle = None)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* The bundle round-trips through the postmortem renderer: the header
   validates, and the timeline names CPUs, offending objects and the
   implicated grace-period cookie. *)
let test_postmortem_renders () =
  let dir = tmp_dir "obs-bundle-render" in
  let v = Sweep.run_case (bundle_case_config dir) bundle_case in
  let path = Option.get v.Sweep.bundle in
  let content = read_file path in
  match Obs.Bundle.render content with
  | Error e -> Alcotest.fail ("render failed: " ^ e)
  | Ok text ->
      List.iter
        (fun sub ->
          Alcotest.(check bool) ("mentions " ^ sub) true (contains ~sub text))
        [
          Obs.Bundle.version; "reason:   oracle-violation"; "timeline";
          "cpu 0:"; "object lineages"; "cookie"; "grace-period anatomy";
          "metric snapshot"; "replay:";
        ]

let test_bundle_rejects_garbage () =
  (match Obs.Bundle.render "not json" with
  | Ok _ -> Alcotest.fail "accepted garbage"
  | Error _ -> ());
  match Obs.Bundle.render "{\"type\":\"bundle\",\"version\":\"nope/9\"}" with
  | Ok _ -> Alcotest.fail "accepted wrong version"
  | Error e ->
      Alcotest.(check bool) "names the version" true
        (contains ~sub:"unsupported bundle version" e)

(* The obs.* metrics register exactly when the recorder is armed, so a
   recorder-off registry snapshot is byte-identical to the seed's. *)
let test_obs_metrics_gated () =
  let cfg = Core.Chaos.config_for small_params W.Chaos.Clean in
  let names on =
    let o = W.Chaos.run_one { cfg with W.Chaos.obs = on } W.Env.Prudence_alloc in
    let reg = Stats.Registry.create () in
    Stats.Providers.register_env reg o.W.Chaos.env;
    List.filter_map
      (fun ((m : Stats.Registry.metric), _) ->
        if String.length m.Stats.Registry.name >= 4
           && String.sub m.Stats.Registry.name 0 4 = "obs."
        then Some m.Stats.Registry.name
        else None)
      (Stats.Registry.read_all reg)
  in
  Alcotest.(check (list string)) "no obs.* metrics when off" [] (names false);
  let on = names true in
  Alcotest.(check bool) "obs.* metrics when armed" true
    (List.mem "obs.qs-collection.p99_ns" on && List.mem "obs.defers" on)

let suite =
  [
    Alcotest.test_case "anatomy: one schema across all four backends" `Slow
      test_anatomy_schema_all_backends;
    Alcotest.test_case "anatomy: worst GP names its holdout CPU" `Slow
      test_worst_gp_names_holdout;
    Alcotest.test_case "anatomy: cb-flood worst GP per scheme" `Slow
      test_worst_gp_pinned;
    Alcotest.test_case "anatomy: detection edges scoped to the scheme" `Quick
      test_scheme_scoped_subscription;
    Alcotest.test_case "recorder off/on: identical deterministic counters"
      `Slow test_recorder_off_identical_counters;
    Alcotest.test_case "bundle: byte-identical across re-runs" `Slow
      test_bundle_deterministic;
    Alcotest.test_case "bundle: none written for passing cases" `Slow
      test_no_bundle_on_pass;
    Alcotest.test_case "postmortem: renders timeline, lineage, anatomy" `Slow
      test_postmortem_renders;
    Alcotest.test_case "bundle: rejects garbage and wrong versions" `Quick
      test_bundle_rejects_garbage;
    Alcotest.test_case "stats: obs.* metrics gated on the recorder" `Slow
      test_obs_metrics_gated;
  ]
