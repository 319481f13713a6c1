(* prudence-repro: command-line driver for the paper reproduction. *)

let list_experiments () =
  Format.printf "experiments:@.";
  List.iter
    (fun (e : Core.Experiments.experiment) ->
      Format.printf "  %-12s %-14s %s@." e.Core.Experiments.id
        e.Core.Experiments.paper_ref e.Core.Experiments.title)
    Core.Experiments.all;
  Format.printf
    "  %-12s %-14s aliases: run the apps experiment@." "fig7..fig13"
    "Figs. 7-13";
  0

(* Exit 2 with "<flag> must be positive" unless [v > 0]. *)
let require_positive ?(unit = "") flag v =
  if v <= 0 then begin
    Format.eprintf "%s must be positive (got %d%s)@." flag v unit;
    exit 2
  end

let params scale seed cpus runs =
  require_positive "--cpus" cpus;
  require_positive "--runs" runs;
  { Core.Experiments.scale; seed; cpus; runs; trace = None }

let run_experiment ids p =
  let ids = if ids = [] then [ "all" ] else ids in
  let experiments =
    if ids = [ "all" ] then Core.Experiments.all
    else
      List.map
        (fun id ->
          match Core.Experiments.find id with
          | Some e -> e
          | None ->
              Format.eprintf "unknown experiment %S (try `list`)@." id;
              exit 2)
        ids
  in
  (* Dedupe (fig7..fig13 all alias apps). *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (e : Core.Experiments.experiment) ->
      if not (Hashtbl.mem seen e.Core.Experiments.id) then begin
        Hashtbl.add seen e.Core.Experiments.id ();
        Format.printf "running %s (%s)...@.@." e.Core.Experiments.id
          e.Core.Experiments.paper_ref;
        let reports = e.Core.Experiments.run p in
        Core.Metrics.Report.print_all Format.std_formatter reports
      end)
    experiments;
  0

let trace_experiment id out want_hists ring p =
  require_positive "--ring" ring;
  let p = { p with Core.Experiments.trace = Some ring } in
  match Core.Experiments.run_traced p id with
  | None ->
      Format.eprintf "experiment %S cannot be traced; traceable: %s@." id
        (String.concat ", " Core.Experiments.traceable);
      2
  | Some runs ->
      let out =
        match out with Some f -> f | None -> Printf.sprintf "trace-%s.json" id
      in
      let module E = Core.Experiments in
      Core.Trace.Chrome.write_file out
        (List.map (fun r -> (r.E.label, r.E.tracer)) runs);
      List.iter
        (fun { E.label; tracer = tr; lifetime } ->
          Format.printf "== %s: %d events retained (%d dropped)@." label
            (Core.Trace.total_events tr)
            (Core.Trace.total_dropped tr);
          let hist title h =
            Format.printf "%s@."
              (Core.Metrics.Histview.render ~title:(label ^ " " ^ title) h)
          in
          hist "defer->reuse lifetime" lifetime;
          if want_hists then begin
            hist "grace-period latency" (Core.Trace.gp_latency tr);
            hist "node-lock wait" (Core.Trace.lock_wait tr);
            hist "allocation-path cost" (Core.Trace.alloc_cost tr)
          end)
        runs;
      (let p50 r = Core.Trace.Hist.percentile r.E.lifetime 50. in
       match runs with
       | [ slub; prud ] when p50 slub > 0 ->
           Format.printf
             "median defer->reuse lifetime: %s (slub) vs %s (prudence), %.1fx@."
             (Core.Metrics.Histview.fmt_ns (p50 slub))
             (Core.Metrics.Histview.fmt_ns (p50 prud))
             (float_of_int (p50 slub) /. float_of_int (max 1 (p50 prud)))
       | _ -> ());
      Format.printf "wrote %s (load it at https://ui.perfetto.dev or \
                     chrome://tracing)@." out;
      0

let parse_scenarios names =
  let names = if names = [] then [ "all" ] else names in
  if names = [ "all" ] then Core.Workloads.Chaos.all_scenarios
  else
    List.map
      (fun name ->
        match Core.Workloads.Chaos.scenario_of_string name with
        | Some s -> s
        | None ->
            Format.eprintf "unknown scenario %S; scenarios: %s, all@." name
              (String.concat ", "
                 (List.map Core.Workloads.Chaos.scenario_name
                    Core.Workloads.Chaos.all_scenarios));
            exit 2)
      names

let parse_kinds alloc =
  match Core.Workloads.Env.parse_kinds alloc with
  | Ok kinds -> kinds
  | Error e ->
      Format.eprintf "%s@." e;
      exit 2

let chaos_params ring p =
  require_positive "--ring" ring;
  {
    Core.Chaos.seed = p.Core.Experiments.seed;
    cpus = p.Core.Experiments.cpus;
    scale = p.Core.Experiments.scale;
    ring;
  }

let run_chaos names alloc ring bundle_dir p =
  let scenarios = parse_scenarios names in
  let kinds = parse_kinds alloc in
  let cp = chaos_params ring p in
  Core.Metrics.Report.print Format.std_formatter
    (Core.Chaos.report ~kinds ?bundle_dir cp scenarios);
  0

let run_anatomy name alloc ring json p =
  let scenario =
    match Core.Workloads.Chaos.scenario_of_string name with
    | Some s -> s
    | None ->
        Format.eprintf "unknown scenario %S; scenarios: %s@." name
          (String.concat ", "
             (List.map Core.Workloads.Chaos.scenario_name
                Core.Workloads.Chaos.all_scenarios));
        exit 2
  in
  let kinds = parse_kinds alloc in
  let cp = chaos_params ring p in
  let results = Core.Anatomy.run ~kinds cp scenario in
  if json then
    print_string
      (String.concat "\n" (Core.Anatomy.json_of_results scenario results)
      ^ "\n")
  else
    Core.Metrics.Report.print Format.std_formatter
      (Core.Anatomy.report_results scenario results);
  if Core.Anatomy.sum_identity_ok results then 0 else 1

let read_whole_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let run_postmortem file =
  match read_whole_file file with
  | exception Sys_error e ->
      Format.eprintf "postmortem: %s@." e;
      2
  | content -> (
      match Core.Obs.Bundle.render content with
      | Ok text ->
          print_string text;
          0
      | Error e ->
          Format.eprintf "postmortem: %s@." e;
          2)

let run_tournament names alloc ring out p =
  let module T = Core.Tournament in
  let scenarios = parse_scenarios names in
  let kinds = parse_kinds alloc in
  let cp = chaos_params ring p in
  let cells = T.run ~kinds cp scenarios in
  Core.Metrics.Report.print Format.std_formatter (T.report_cells kinds cells);
  (match out with
  | None -> ()
  | Some file ->
      let oc = open_out file in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () -> output_string oc (T.to_ndjson kinds cells));
      Format.printf "wrote %s (%d scheme rows + summary)@." file
        (List.length cells));
  let violations =
    List.fold_left
      (fun acc (c : T.cell) ->
        acc + c.T.outcome.Core.Workloads.Chaos.safety_violations)
      0 cells
  in
  if violations = 0 then 0 else 1

let run_stat alloc duration_ms sample_every capacity watch series format
    registry_table pages scale seed cpus =
  let module Live = Core.Stats.Live in
  let module Providers = Core.Stats.Providers in
  require_positive "--cpus" cpus;
  require_positive "--duration-ms" duration_ms;
  require_positive ~unit:" ns" "--sample-every" sample_every;
  require_positive "--capacity" capacity;
  require_positive "--pages" pages;
  let ext =
    match format with
    | "csv" | "ndjson" -> format
    | s ->
        Format.eprintf "unknown series format %S (csv, ndjson)@." s;
        exit 2
  in
  let kinds = parse_kinds alloc in
  let series_file label =
    match series with
    | None -> None
    | Some base ->
        if List.length kinds = 1 then Some base
        else
          (* Both allocators share one --series flag: suffix the label. *)
          Some
            (match Filename.chop_suffix_opt ~suffix:("." ^ ext) base with
            | Some stem -> Printf.sprintf "%s-%s.%s" stem label ext
            | None -> Printf.sprintf "%s-%s" base label)
  in
  List.iter
    (fun kind ->
      let cfg =
        {
          Live.kind;
          seed;
          cpus;
          scale;
          duration_ns = duration_ms * 1_000_000;
          sample_every_ns = sample_every;
          capacity;
          total_pages = pages;
        }
      in
      let on_watch =
        if not watch then None
        else
          Some
            (fun ~time_ns ~snapshot ->
              Format.printf "---- %s @ %.1f ms (virtual) ----@.%s@."
                (Core.Workloads.Env.kind_label kind)
                (float_of_int time_ns /. 1e6)
                snapshot)
      in
      let r = Live.run ?on_watch cfg in
      Format.printf "==== %s: final state after %.0f ms virtual ====@."
        r.Live.label
        (float_of_int (duration_ms * 1_000_000) *. scale /. 1e6);
      Format.printf "%s@." (Providers.snapshot ~watch:r.Live.watch r.Live.env);
      if registry_table then
        Format.printf "%s@." (Core.Stats.Registry.table r.Live.registry);
      Format.printf "workload: %d list updates%s@." r.Live.updates
        (match r.Live.oom_at_ns with
        | None -> ""
        | Some t -> Printf.sprintf "; OOM at %.1f ms" (float_of_int t /. 1e6));
      (match series_file r.Live.label with
      | None -> ()
      | Some file ->
          let body =
            match ext with
            | "csv" -> Core.Sim.Sampler.to_csv r.Live.sampler
            | _ -> Core.Sim.Sampler.to_ndjson r.Live.sampler
          in
          let oc = open_out file in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc body);
          Format.printf "wrote %s (%d samples, %d dropped)@." file
            (Core.Sim.Sampler.rows r.Live.sampler)
            (Core.Sim.Sampler.dropped r.Live.sampler));
      Format.printf "@.")
    kinds;
  0

let run_regress baseline_file current_file tolerance json =
  let module B = Core.Stats.Bench_json in
  if tolerance < 0. then begin
    Format.eprintf "--tolerance-pct must be non-negative (got %g)@." tolerance;
    exit 2
  end;
  (* With --json, every exit path still emits the one summary NDJSON
     line automation keys on — a missing baseline or config mismatch
     reports as an error summary, not silent stderr. *)
  let fail_with ~code msg =
    Format.eprintf "%s@." msg;
    if json then
      print_endline
        (Core.Metrics.Json.to_string (B.summary_to_json ~error:msg []));
    code
  in
  let load what file k =
    match B.load_file file with
    | Ok t -> k t
    | Error e ->
        fail_with ~code:2 (Printf.sprintf "cannot load %s %s: %s" what file e)
  in
  load "baseline" baseline_file @@ fun baseline ->
  load "current" current_file @@ fun current ->
  match B.config_mismatch ~baseline ~current with
  | Some msg -> fail_with ~code:1 msg
  | None ->
      let drifts =
        B.compare_runs ~default_tolerance_pct:tolerance ~baseline ~current ()
      in
      let failed = B.failures drifts in
      if json then begin
        List.iter
          (fun d ->
            print_endline (Core.Metrics.Json.to_string (B.drift_to_json d)))
          drifts;
        print_endline (Core.Metrics.Json.to_string (B.summary_to_json drifts))
      end
      else Format.printf "%a" B.pp_drifts drifts;
      if failed = [] then 0
      else begin
        Format.eprintf "regression gate FAILED: %d metric(s) regressed or \
                        missing@."
          (List.length failed);
        1
      end

let parse_mutation mutate =
  let module Sweep = Core.Check.Sweep in
  match Sweep.mutation_of_string mutate with
  | Some m -> m
  | None ->
      Format.eprintf "unknown mutation %S (none, %s)@." mutate
        (String.concat ", " (List.map Sweep.mutation_name Sweep.all_mutations));
      exit 2

let parse_oracles disabled =
  let module Sweep = Core.Check.Sweep in
  List.fold_left
    (fun o name ->
      match Sweep.disable_oracle o name with
      | Some o -> o
      | None ->
          Format.eprintf "unknown oracle %S (%s)@." name
            (String.concat ", " Sweep.oracle_names);
          exit 2)
    Sweep.all_oracles disabled

let parse_plan = function
  | None -> None
  | Some s -> (
      match Core.Faults.Plan.of_compact s with
      | Ok p -> Some p
      | Error e ->
          Format.eprintf "bad --plan: %s@." e;
          exit 2)

(* The options check and fuzz share, parsed and validated into a sweep
   config; each command then sets [sweeps] and [bundle_dir]. *)
let sweep_base names alloc shuffle_seed mutate duration_ms pages disabled plan
    seed cpus =
  require_positive "--duration-ms" duration_ms;
  require_positive "--pages" pages;
  require_positive "--cpus" cpus;
  {
    Core.Check.Sweep.scenarios = parse_scenarios names;
    kinds = parse_kinds alloc;
    sweeps = 1;
    base_shuffle_seed = shuffle_seed;
    seed;
    cpus;
    duration_ns = duration_ms * 1_000_000;
    total_pages = pages;
    mutation = parse_mutation mutate;
    oracles = parse_oracles disabled;
    plan = parse_plan plan;
    bundle_dir = None;
  }

let run_check base sweeps skip_diff bundle_dir json =
  let module Sweep = Core.Check.Sweep in
  let module J = Core.Metrics.Json in
  require_positive "--sweeps" sweeps;
  let cfg = { base with Sweep.sweeps; bundle_dir } in
  let shuffle_seed = cfg.Sweep.base_shuffle_seed and seed = cfg.Sweep.seed in
  if not json then
    Format.printf
      "sweeping %d scenario(s) x %d allocator(s) x %d shuffled schedule(s) \
       (shuffle seeds %d..%d, workload seed %d)...@."
      (List.length cfg.Sweep.scenarios) (List.length cfg.Sweep.kinds) sweeps
      shuffle_seed
      (shuffle_seed + sweeps - 1)
      seed;
  let last = ref None in
  let progress (case : Sweep.case) =
    let key = (case.Sweep.scenario, case.Sweep.kind) in
    if (not json) && !last <> Some key then begin
      last := Some key;
      Format.printf "  %s/%s@."
        (Core.Workloads.Chaos.scenario_name case.Sweep.scenario)
        (Core.Workloads.Env.kind_label case.Sweep.kind)
    end
  in
  let verdicts = Sweep.run ~progress cfg in
  let sweep_failed = List.exists (fun v -> not (Sweep.ok v)) verdicts in
  if json then
    List.iter
      (fun (v : Sweep.verdict) ->
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("type", J.Str "verdict");
                  ( "scenario",
                    J.Str
                      (Core.Workloads.Chaos.scenario_name
                         v.Sweep.case.Sweep.scenario) );
                  ( "alloc",
                    J.Str (Core.Workloads.Env.kind_label v.Sweep.case.Sweep.kind)
                  );
                  ("shuffle_seed", J.Int v.Sweep.case.Sweep.shuffle_seed);
                  ("ok", J.Bool (Sweep.ok v));
                  ( "oracle_violations",
                    J.Int (List.length v.Sweep.oracle_violations) );
                  ( "reader_violations",
                    J.Int (List.length v.Sweep.reader_violations) );
                  ( "stall_violations",
                    J.Int (List.length v.Sweep.stall_violations) );
                  ("cb_violations", J.Int (List.length v.Sweep.cb_violations));
                  ("audit_failures", J.Int (List.length v.Sweep.audit_failures));
                  ("dropped_violations", J.Int v.Sweep.dropped_violations);
                  ("oracle_events", J.Int v.Sweep.oracle_events);
                  ("updates", J.Int v.Sweep.updates);
                  ("survived", J.Bool v.Sweep.survived);
                  ("replay", J.Str v.Sweep.replay);
                  ( "bundle",
                    match v.Sweep.bundle with
                    | Some path -> J.Str path
                    | None -> J.Null );
                ])))
      verdicts
  else Format.printf "@.%a@." Sweep.summary verdicts;
  let diff_failed =
    if skip_diff then false
    else begin
      let trace = Core.Check.Differential.gen ~seed () in
      let r = Core.Check.Differential.run ~seed trace in
      if json then
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("type", J.Str "differential");
                  ("ok", J.Bool r.Core.Check.Differential.ok);
                  ( "mismatches",
                    J.Int (List.length r.Core.Check.Differential.mismatches) );
                ]))
      else Format.printf "%a@." Core.Check.Differential.pp_result r;
      not r.Core.Check.Differential.ok
    end
  in
  let failed = sweep_failed || diff_failed in
  if json then
    print_endline
      (J.to_string
         (J.Obj
            [
              ("type", J.Str "summary");
              ("cases", J.Int (List.length verdicts));
              ( "failed_cases",
                J.Int
                  (List.length
                     (List.filter (fun v -> not (Sweep.ok v)) verdicts)) );
              ("differential", J.Bool (not skip_diff));
              ("ok", J.Bool (not failed));
            ]));
  if failed then 1 else 0

let run_fuzz_differential fcfg json =
  let module Fuzz = Core.Check.Fuzz in
  let module Diff = Core.Check.Differential in
  let module J = Core.Metrics.Json in
  (* A multi-kind --alloc (both or all) replays on every backend: the
     default is 'both', and differential mode means every backend. *)
  let kinds =
    match fcfg.Fuzz.base.Core.Check.Sweep.kinds with
    | [ _ ] as kinds -> kinds
    | _ -> Core.Workloads.Env.all_kinds
  in
  if not json then
    Format.printf
      "differential fuzzing: budget %d, fuzz seed %d, %d backend(s) (%s)...@."
      fcfg.Fuzz.budget fcfg.Fuzz.seed (List.length kinds)
      (String.concat ", " (List.map Core.Workloads.Env.kind_label kinds));
  let progress (r : Fuzz.diff_record) =
    if json then
      print_endline
        (J.to_string
           (J.Obj
              [
                ("type", J.Str "diff_case");
                ("exec", J.Int r.Fuzz.d_exec);
                ("trace_seed", J.Int r.Fuzz.trace_seed);
                ("ops", J.Int r.Fuzz.n_ops);
                ("slots", J.Int r.Fuzz.n_slots);
                ("gap_ns", J.Int r.Fuzz.gap_ns);
                ("ok", J.Bool r.Fuzz.result.Diff.ok);
                ( "mismatches",
                  J.Int (List.length r.Fuzz.result.Diff.mismatches) );
              ]))
    else if not r.Fuzz.result.Diff.ok then
      Format.printf "  #%-4d trace seed %d (%d ops, %d slots) DIVERGED@."
        r.Fuzz.d_exec r.Fuzz.trace_seed r.Fuzz.n_ops r.Fuzz.n_slots
  in
  let dr = Fuzz.run_differential ~progress ~kinds fcfg in
  let failed = dr.Fuzz.diff_failure <> None in
  if json then
    print_endline
      (J.to_string
         (J.Obj
            [
              ("type", J.Str "summary");
              ("mode", J.Str "differential");
              ("executed", J.Int dr.Fuzz.diff_executed);
              ("budget", J.Int fcfg.Fuzz.budget);
              ( "backends",
                J.List
                  (List.map
                     (fun k -> J.Str (Core.Workloads.Env.kind_label k))
                     kinds) );
              ("failure", J.Bool failed);
              ("ok", J.Bool (not failed));
            ]))
  else begin
    Format.printf "@.%d differential case(s) executed across %d backend(s)@."
      dr.Fuzz.diff_executed (List.length kinds);
    match dr.Fuzz.diff_failure with
    | None -> Format.printf "no divergence, every verdict clean.@."
    | Some r ->
        Format.printf "divergence at execution %d:@.%a@." r.Fuzz.d_exec
          Diff.pp_result r.Fuzz.result
  end;
  if failed then 1 else 0

(* Campaign cases never dump bundles ([base] carries none); only the
   final (minimized) witness does, via a bundle-armed re-run below. *)
let run_fuzz base budget fuzz_seed no_minimize differential bundle_dir json =
  let module Sweep = Core.Check.Sweep in
  let module Fuzz = Core.Check.Fuzz in
  let module Minimize = Core.Check.Minimize in
  let module J = Core.Metrics.Json in
  require_positive "--budget" budget;
  let fcfg = { Fuzz.base; budget; seed = fuzz_seed; stop_on_failure = true } in
  if differential then run_fuzz_differential fcfg json
  else begin
  if not json then
    Format.printf
      "fuzzing: budget %d, fuzz seed %d, workload seed %d, %d scenario(s) x \
       %d allocator(s)...@."
      budget fuzz_seed base.Sweep.seed
      (List.length base.Sweep.scenarios)
      (List.length base.Sweep.kinds);
  let case_json (r : Fuzz.record) =
    let scfg, case = Fuzz.concretize fcfg r.Fuzz.input in
    J.Obj
      [
        ("type", J.Str "case");
        ("exec", J.Int r.Fuzz.exec);
        ("origin", J.Str (Fuzz.origin_name r.Fuzz.origin));
        ( "scenario",
          J.Str (Core.Workloads.Chaos.scenario_name r.Fuzz.input.Fuzz.scenario)
        );
        ("alloc", J.Str (Core.Workloads.Env.kind_label r.Fuzz.input.Fuzz.kind));
        ("shuffle_seed", J.Int r.Fuzz.input.Fuzz.shuffle_seed);
        ("duration_ns", J.Int r.Fuzz.input.Fuzz.duration_ns);
        ("cpus", J.Int r.Fuzz.input.Fuzz.cpus);
        ( "plan",
          match r.Fuzz.input.Fuzz.plan with
          | None -> J.Null
          | Some p -> J.Str (Core.Faults.Plan.to_compact p) );
        ("ok", J.Bool (Sweep.ok r.Fuzz.verdict));
        ("new_features", J.Int r.Fuzz.new_features);
        ("total_features", J.Int r.Fuzz.total_features);
        ("corpus_size", J.Int r.Fuzz.corpus_size);
        ("replay", J.Str (Sweep.replay_command scfg case));
      ]
  in
  let progress (r : Fuzz.record) =
    if json then print_endline (J.to_string (case_json r))
    else if r.Fuzz.new_features > 0 || not (Sweep.ok r.Fuzz.verdict) then
      Format.printf "  #%-4d %-8s %-16s/%-9s %s%s@." r.Fuzz.exec
        (Fuzz.origin_name r.Fuzz.origin)
        (Core.Workloads.Chaos.scenario_name r.Fuzz.input.Fuzz.scenario)
        (Core.Workloads.Env.kind_label r.Fuzz.input.Fuzz.kind)
        (if Sweep.ok r.Fuzz.verdict then
           Printf.sprintf "+%d features (%d total, corpus %d)"
             r.Fuzz.new_features r.Fuzz.total_features r.Fuzz.corpus_size
         else "FAIL")
        (if Sweep.ok r.Fuzz.verdict then "" else " <-- oracle fired")
  in
  let result = Fuzz.run ~progress fcfg in
  if not json then
    Format.printf
      "@.%d case(s) executed, %d coverage feature(s), corpus %d@."
      result.Fuzz.executed result.Fuzz.total_features
      (List.length result.Fuzz.corpus);
  match result.Fuzz.failure with
  | None ->
      if json then
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("type", J.Str "summary");
                  ("executed", J.Int result.Fuzz.executed);
                  ("budget", J.Int budget);
                  ("total_features", J.Int result.Fuzz.total_features);
                  ("corpus_size", J.Int (List.length result.Fuzz.corpus));
                  ("failure", J.Bool false);
                  ("ok", J.Bool true);
                ]))
      else Format.printf "no oracle fired within the budget.@.";
      0
  | Some (fcfg', fcase, fverdict) ->
      if not json then
        Format.printf "@.failure at execution %d:@.%a@." result.Fuzz.executed
          Sweep.pp_verdict fverdict;
      let minimized =
        if no_minimize then None
        else begin
          if not json then Format.printf "@.minimizing witness...@.";
          let progress (s : Minimize.step) =
            if json then
              print_endline
                (J.to_string
                   (J.Obj
                      [
                        ("type", J.Str "shrink");
                        ("action", J.Str s.Minimize.action);
                        ("candidate", J.Str s.Minimize.candidate);
                        ("kept", J.Bool s.Minimize.kept);
                      ]))
            else if s.Minimize.kept then
              Format.printf "  %s %s: still fails, kept@." s.Minimize.action
                s.Minimize.candidate
          in
          match Minimize.run ~progress fcfg' fcase with
          | m -> Some m
          | exception Minimize.Not_a_witness ->
              if not json then
                Format.printf "minimizer: case no longer fails (flaky?)@.";
              None
        end
      in
      let replay =
        match minimized with
        | Some m -> m.Minimize.replay
        | None -> Sweep.replay_command fcfg' fcase
      in
      (* Forensic bundle for the final witness: re-run the minimized case
         (or the original failure when minimization was skipped or came up
         empty) with the bundle dump armed. The re-run is deterministic,
         so the verdict matches what the campaign saw. *)
      let bundle =
        match bundle_dir with
        | None -> None
        | Some dir ->
            let wcfg, wcase =
              match minimized with
              | Some m -> (m.Minimize.cfg, m.Minimize.case)
              | None -> (fcfg', fcase)
            in
            let wv =
              Sweep.run_case { wcfg with Sweep.bundle_dir = Some dir } wcase
            in
            wv.Sweep.bundle
      in
      if json then begin
        (match minimized with
        | None -> ()
        | Some m ->
            let plan_specs =
              match m.Minimize.cfg.Sweep.plan with
              | Some p -> List.length p.Core.Faults.Plan.specs
              | None -> 0
            in
            print_endline
              (J.to_string
                 (J.Obj
                    [
                      ("type", J.Str "minimized");
                      ("runs", J.Int m.Minimize.runs);
                      ( "duration_ns",
                        J.Int m.Minimize.cfg.Sweep.duration_ns );
                      ("cpus", J.Int m.Minimize.cfg.Sweep.cpus);
                      ("plan_specs", J.Int plan_specs);
                      ("replay", J.Str m.Minimize.replay);
                    ])));
        print_endline
          (J.to_string
             (J.Obj
                [
                  ("type", J.Str "summary");
                  ("executed", J.Int result.Fuzz.executed);
                  ("budget", J.Int budget);
                  ("total_features", J.Int result.Fuzz.total_features);
                  ("corpus_size", J.Int (List.length result.Fuzz.corpus));
                  ("failure", J.Bool true);
                  ("replay", J.Str replay);
                  ( "bundle",
                    match bundle with Some p -> J.Str p | None -> J.Null );
                  ("ok", J.Bool false);
                ]))
      end
      else begin
        (match minimized with
        | None -> ()
        | Some m ->
            Format.printf
              "@.minimal witness after %d shrink run(s): %d ms, %d cpus, %d \
               fault spec(s)@."
              m.Minimize.runs
              (m.Minimize.cfg.Sweep.duration_ns / 1_000_000)
              m.Minimize.cfg.Sweep.cpus
              (match m.Minimize.cfg.Sweep.plan with
              | Some p -> List.length p.Core.Faults.Plan.specs
              | None -> 0));
        (match bundle with
        | Some p -> Format.printf "@.bundle: %s@." p
        | None -> ());
        Format.printf "@.replay: %s@." replay
      end;
      1
  end

open Cmdliner

(* --scale accepts a float or the presets small/medium/full. *)
let scale_conv =
  let parse s =
    match s with
    | "small" -> Ok 0.05
    | "medium" -> Ok 0.3
    | "full" -> Ok 1.0
    | _ -> (
        match float_of_string_opt s with
        | Some f when f > 0.0 -> Ok f
        | _ -> Error (`Msg (Printf.sprintf "invalid scale %S" s)))
  in
  Arg.conv (parse, Format.pp_print_float)

let scale_arg =
  let doc =
    "Workload scale factor: a float or small/medium/full (= 0.05/0.3/1.0; \
     1.0 = EXPERIMENTS.md defaults)."
  in
  Arg.(value & opt scale_conv 1.0 & info [ "scale" ] ~docv:"F" ~doc)

let seed_arg =
  let doc = "Deterministic simulation seed." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let cpus_arg =
  let doc = "Simulated CPUs (the paper's machine had 64 logical CPUs)." in
  Arg.(value & opt int 8 & info [ "cpus" ] ~docv:"N" ~doc)

let runs_arg =
  let doc = "Repetitions for mean +/- stdev (paper: 3)." in
  Arg.(value & opt int 1 & info [ "runs" ] ~docv:"N" ~doc)

let params_term =
  Term.(const params $ scale_arg $ seed_arg $ cpus_arg $ runs_arg)

let ring_arg ~default doc =
  Arg.(value & opt int default & info [ "ring" ] ~docv:"N" ~doc)

(* Every --alloc goes through [parse_kinds]: 'both' is slub+prudence
   and 'all' is every scheme, for every command. *)
let alloc_arg ~default doc =
  let doc =
    doc ^ " One of slub, prudence, ebr-debra, hyaline, both or all."
  in
  Arg.(value & opt string default & info [ "alloc" ] ~docv:"KIND" ~doc)

let scenarios_arg =
  let doc =
    "Scenarios (clean, stalled-reader, cb-flood, pressure-spike, \
     alloc-fault) or 'all' (default)."
  in
  Arg.(value & pos_all string [] & info [] ~docv:"SCENARIO" ~doc)

(* The ten options check and fuzz share, with one set of defaults. *)
let sweep_base_term =
  let alloc =
    alloc_arg ~default:"both" "Allocator/SMR stack(s) ('both' = slub+prudence)."
  in
  let shuffle_seed =
    let doc =
      "First shuffle seed: check sweeps seeds N..N+sweeps-1, fuzz seeds its \
       corpus with N. Use the seed printed by a failing run (with \
       --sweeps=1) to replay it."
    in
    Arg.(value & opt int 1 & info [ "shuffle-seed" ] ~docv:"N" ~doc)
  in
  let mutate =
    let doc =
      "Mutation self-test: inject a known kernel bug class and require the \
       matching oracle to FAIL the run (proof the oracle has teeth). \
       'skip-gp' reclaims deferred objects without waiting for their grace \
       period (shadow oracle); 'drop-stall' disarms the stall detector \
       under pinned grace periods (missed-QS oracle); 'lose-cb' drops \
       every 64th call_rcu callback between accounting and list \
       (conservation oracle); 'free-latent-page' lets the shrinker return \
       still-deferred pages to the buddy (page-reuse oracle); \
       'skip-epoch-advance' advances the EBR epoch without scanning \
       reader announcements (early-reuse oracle, --alloc=ebr-debra); \
       'drop-retire-batch' ripens Hyaline batches while readers still \
       hold references (early-reuse oracle, --alloc=hyaline)."
    in
    Arg.(value & opt string "none" & info [ "mutate" ] ~docv:"M" ~doc)
  in
  let duration_ms =
    let doc =
      "Virtual run length per case, in milliseconds (fuzz's duration \
       mutator scales it x0.5..x2)."
    in
    Arg.(value & opt int 50 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let pages =
    let doc = "Physical memory per run, in 4 KiB pages." in
    Arg.(value & opt int 8_192 & info [ "pages" ] ~docv:"N" ~doc)
  in
  let disable_oracle =
    let doc =
      Printf.sprintf
        "Disable one oracle (%s); repeatable. Used by the necessity \
         self-tests: a --mutate run with its oracle disabled must pass."
        (String.concat ", " Core.Check.Sweep.oracle_names)
    in
    Arg.(value & opt_all string [] & info [ "disable-oracle" ] ~docv:"O" ~doc)
  in
  let plan =
    let doc =
      "Fault-plan override in compact form ('seed:spec;spec;...', as \
       printed by failing replay commands) instead of the scenario's \
       default plan; fuzz applies it to its seed corpus."
    in
    Arg.(value & opt (some string) None & info [ "plan" ] ~docv:"PLAN" ~doc)
  in
  let cpus =
    let doc = "Simulated CPUs per run (fuzz's CPU mutator varies 2..8)." in
    Arg.(value & opt int 4 & info [ "cpus" ] ~docv:"N" ~doc)
  in
  Term.(
    const sweep_base $ scenarios_arg $ alloc
    $ shuffle_seed $ mutate $ duration_ms $ pages $ disable_oracle $ plan
    $ seed_arg $ cpus)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List available experiments")
    Term.(const list_experiments $ const ())

let run_cmd =
  let ids =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"EXPERIMENT"
          ~doc:"Experiment ids (fig3, costs, fig6, apps, ablations, \
                fig7..fig13) or 'all'.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Run experiments and print their reports")
    Term.(const run_experiment $ ids $ params_term)

let trace_cmd =
  let id =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id to trace (fig3, fig6).")
  in
  let out =
    let doc = "Output file for the Chrome trace-event JSON (default \
               trace-<experiment>.json)." in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let hists =
    let doc = "Also print the grace-period latency, lock-wait and \
               allocation-cost histograms." in
    Arg.(value & flag & info [ "hist" ] ~doc)
  in
  let ring =
    ring_arg ~default:65_536
      "Per-CPU event-ring capacity (oldest events drop on overflow)."
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Rerun an experiment with tracing armed: write a Perfetto-loadable \
          Chrome trace and print latency histograms")
    Term.(const trace_experiment $ id $ out $ hists $ ring $ params_term)

let chaos_cmd =
  let alloc =
    alloc_arg ~default:"both" "Reclamation scheme(s) ('both' = slub+prudence)."
  in
  let ring =
    ring_arg ~default:16_384
      "Per-CPU event-ring capacity for the GP-latency histogram."
  in
  let bundle_dir =
    let doc =
      "Arm the flight recorder and dump a forensic bundle into $(docv) for \
       every outcome whose mitigations fired (safety violation, OOM, \
       emergency flush, OOM delay or stall warning); render bundles with \
       the postmortem subcommand."
    in
    Arg.(
      value & opt (some string) None & info [ "bundle-dir" ] ~docv:"DIR" ~doc)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run fault-injection scenarios over the selected reclamation \
          schemes and print a survival/degradation report (RCU stall \
          warnings, grace-period p99, backoff retries, emergency flushes)")
    Term.(const run_chaos $ scenarios_arg $ alloc $ ring $ bundle_dir $ params_term)

let anatomy_cmd =
  let scenario =
    Arg.(
      value & pos 0 string "clean"
      & info [] ~docv:"SCENARIO"
          ~doc:"Scenario to dissect (clean, stalled-reader, cb-flood, \
                pressure-spike, alloc-fault; default clean).")
  in
  let alloc =
    alloc_arg ~default:"all"
      "Reclamation scheme(s) to dissect."
  in
  let ring = ring_arg ~default:16_384 "Per-CPU event-ring capacity." in
  let json =
    let doc =
      "Machine-readable output: one NDJSON 'phase' object per (scheme, \
       phase), one 'total' and one 'worst_gp' per scheme, one trailing \
       'summary' line with the sum-identity verdict."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "anatomy"
       ~doc:
         "Grace-period anatomy: run one chaos scenario under each \
          reclamation scheme with the phase tracer armed and decompose \
          every defer-to-reuse latency into defer-request, request-start, \
          qs-collection, complete-harvest and harvest-reuse (same schema \
          for all four backends), with a worst-GP drill-down naming the \
          holdout CPU; non-zero exit if the per-phase sums do not add up \
          exactly to the totals")
    Term.(const run_anatomy $ scenario $ alloc $ ring $ json $ params_term)

let postmortem_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE"
          ~doc:"Forensic bundle (NDJSON) written by check/fuzz \
                --bundle-dir or chaos --bundle-dir.")
  in
  Cmd.v
    (Cmd.info "postmortem"
       ~doc:
         "Render a forensic bundle into a human post-mortem: the \
          violation, a per-CPU timeline of the last trace events before \
          it, the offending objects' lineages \
          (deferred->harvested->reused), the anatomy of the implicated \
          grace periods and the full metric snapshot, plus the exact \
          replay command")
    Term.(const run_postmortem $ file)

let tournament_cmd =
  let alloc =
    alloc_arg ~default:"all" "Schemes to race."
  in
  let ring =
    ring_arg ~default:16_384
      "Per-CPU event-ring capacity for the latency histograms."
  in
  let out =
    let doc =
      "Also write the table as NDJSON to $(docv): one 'scheme' object per \
       (scenario, scheme) cell plus a trailing 'summary' line."
    in
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  Cmd.v
    (Cmd.info "tournament"
       ~doc:
         "Cross-scheme SMR tournament: run the chaos scenarios under every \
          reclamation scheme (SLUB callbacks, RCU+Prudence, EBR/DEBRA, \
          Hyaline) and print one comparison table -- throughput, end-of-run \
          limbo occupancy, defer-to-reuse latency percentiles, grace-period \
          p99, OOM resilience; non-zero exit on any safety violation")
    Term.(const run_tournament $ scenarios_arg $ alloc $ ring $ out $ params_term)

let check_cmd =
  let sweeps =
    let doc = "Shuffled schedules per (scenario, allocator) pair." in
    Arg.(value & opt int 20 & info [ "sweeps" ] ~docv:"N" ~doc)
  in
  let skip_diff =
    let doc = "Skip the baseline-vs-Prudence differential trace replay." in
    Arg.(value & flag & info [ "skip-diff" ] ~doc)
  in
  let bundle_dir =
    let doc =
      "Dump a self-contained forensic bundle (NDJSON: violation, per-CPU \
       event window, offending object lineages, GP anatomy, metric \
       snapshot, replay command) into $(docv) for every failing case; \
       render with the postmortem subcommand."
    in
    Arg.(
      value & opt (some string) None & info [ "bundle-dir" ] ~docv:"DIR" ~doc)
  in
  let json =
    let doc =
      "Machine-readable output: one NDJSON object per sweep verdict, one \
       for the differential replay, one summary line; human progress \
       output is suppressed."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Schedule-exploration safety check: run the chaos matrix under \
          shuffled same-instant event orderings with the shadow-heap \
          oracle and invariant auditors armed, then differentially replay \
          one trace against both allocators; non-zero exit and a replay \
          command on any violation")
    Term.(
      const run_check $ sweep_base_term $ sweeps $ skip_diff $ bundle_dir
      $ json)

let fuzz_cmd =
  let budget =
    let doc = "Maximum cases to execute." in
    Arg.(value & opt int 100 & info [ "budget" ] ~docv:"N" ~doc)
  in
  let fuzz_seed =
    let doc =
      "Fuzzer RNG seed (mutation choices). The same seed and budget replay \
       the identical campaign, case for case."
    in
    Arg.(value & opt int 1 & info [ "fuzz-seed" ] ~docv:"N" ~doc)
  in
  let no_minimize =
    let doc = "Report the first failure as-is instead of shrinking it." in
    Arg.(value & flag & info [ "no-minimize" ] ~doc)
  in
  let bundle_dir =
    let doc =
      "On failure, re-run the final (minimized) witness with the flight \
       recorder armed and dump its forensic bundle into $(docv); the \
       summary NDJSON line carries the bundle path."
    in
    Arg.(
      value & opt (some string) None & info [ "bundle-dir" ] ~docv:"DIR" ~doc)
  in
  let differential =
    let doc =
      "Differential mode: instead of the coverage-guided campaign, draw \
       random op traces from the fuzz RNG and replay each under every \
       reclamation backend; any divergence in the backend-independent \
       outcome sequence, or any oracle hit, is a finding. A single-scheme \
       --alloc replays on that scheme alone; any multi-scheme value, \
       including the default 'both', replays on all four."
    in
    Arg.(value & flag & info [ "differential" ] ~doc)
  in
  let json =
    let doc =
      "Machine-readable output: one NDJSON 'case' object per execution, \
       'shrink' objects during minimization, a 'minimized' object and one \
       trailing 'summary' line; byte-identical across runs with the same \
       seeds and budget."
    in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Coverage-guided schedule fuzzing: mutate (shuffle seed, fault \
          plan, duration, CPUs) from a per-scenario seed corpus, keeping \
          inputs that light up new behavioural coverage; on an oracle \
          failure, shrink the witness (drop fault specs, binary-search \
          duration, reduce CPUs) and print a one-line replay command; \
          deterministic and replayable from --fuzz-seed")
    Term.(
      const run_fuzz $ sweep_base_term $ budget $ fuzz_seed $ no_minimize
      $ differential $ bundle_dir $ json)

let stat_cmd =
  let alloc =
    alloc_arg ~default:"both"
      "Allocator stack(s) to introspect ('both' = slub+prudence)."
  in
  let duration_ms =
    let doc = "Virtual run length in milliseconds (scaled by --scale)." in
    Arg.(value & opt int 2_000 & info [ "duration-ms" ] ~docv:"MS" ~doc)
  in
  let sample_every =
    let doc = "Sampler period in virtual nanoseconds." in
    Arg.(value & opt int 10_000_000 & info [ "sample-every" ] ~docv:"NS" ~doc)
  in
  let capacity =
    let doc = "Time-series ring capacity in rows (oldest rows drop)." in
    Arg.(value & opt int 4_096 & info [ "capacity" ] ~docv:"N" ~doc)
  in
  let watch =
    let doc =
      "Print a full snapshot periodically during the run (every 10 sampler \
       periods of virtual time), with churn columns showing per-interval \
       deltas."
    in
    Arg.(value & flag & info [ "watch" ] ~doc)
  in
  let series =
    let doc =
      "Export the sampled time series to $(docv) (with --alloc both, the \
       allocator label is appended to the file name)."
    in
    Arg.(value & opt (some string) None & info [ "series" ] ~docv:"FILE" ~doc)
  in
  let format =
    let doc = "Series export format: csv or ndjson." in
    Arg.(value & opt string "csv" & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let registry_table =
    let doc = "Also print the flat metric-registry table (every registered \
               counter/gauge/derived metric with its current value)." in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let pages =
    let doc = "Physical memory, in 4 KiB pages." in
    Arg.(value & opt int 65_536 & info [ "pages" ] ~docv:"N" ~doc)
  in
  Cmd.v
    (Cmd.info "stat"
       ~doc:
         "Live allocator/RCU introspection: run the Fig. 3 endurance load \
          and report buddyinfo-style free-block counts, slabtop-style \
          per-cache activity, RCU grace-period/backlog state and \
          Prudence latent-cache occupancy; optionally sample any \
          registered metric into a bounded time-series ring and export it")
    Term.(
      const run_stat $ alloc $ duration_ms $ sample_every $ capacity $ watch
      $ series $ format $ registry_table $ pages $ scale_arg $ seed_arg
      $ cpus_arg)

let regress_cmd =
  let baseline =
    (* A plain string, not Arg.file: a missing baseline must reach the
       loader so `--json` still emits its error summary line. *)
    let doc = "Committed baseline BENCH_seed.json." in
    Arg.(
      required
      & opt (some string) None
      & info [ "baseline" ] ~docv:"FILE" ~doc)
  in
  let current =
    let doc = "Freshly generated BENCH_seed.json to gate." in
    Arg.(
      required
      & opt (some string) None
      & info [ "current" ] ~docv:"FILE" ~doc)
  in
  let tolerance =
    let doc =
      "Default drift tolerance in percent for metrics that do not carry \
       their own."
    in
    Arg.(value & opt float 5.0 & info [ "tolerance-pct" ] ~docv:"PCT" ~doc)
  in
  let json =
    let doc = "Emit one NDJSON object per metric drift instead of a table." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  Cmd.v
    (Cmd.info "regress"
       ~doc:
         "Bench regression gate: compare a fresh BENCH_seed.json against \
          the committed baseline; exit 1 when any metric drifts past its \
          tolerance in the paper-unexpected direction (or disappears)")
    Term.(const run_regress $ baseline $ current $ tolerance $ json)

let main_cmd =
  let doc =
    "Reproduction of 'Prudent Memory Reclamation in Procrastination-Based \
     Synchronization' (ASPLOS 2016)"
  in
  Cmd.group
    (Cmd.info "prudence-repro" ~version:Core.version ~doc)
    [
      list_cmd; run_cmd; trace_cmd; chaos_cmd; anatomy_cmd; tournament_cmd;
      check_cmd; fuzz_cmd; postmortem_cmd; stat_cmd; regress_cmd;
    ]

let () = exit (Cmd.eval' main_cmd)
