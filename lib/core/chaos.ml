type params = { seed : int; cpus : int; scale : float; ring : int }

let default_params = { seed = 42; cpus = 8; scale = 1.0; ring = 16_384 }

let config_for p scenario =
  let base = Workloads.Chaos.default_config ~scenario in
  {
    base with
    Workloads.Chaos.seed = p.seed;
    cpus = p.cpus;
    ring = p.ring;
    duration_ns =
      int_of_float (float_of_int base.Workloads.Chaos.duration_ns *. p.scale);
  }

let run_scenario p scenario = Workloads.Chaos.run_pair (config_for p scenario)

let fmt_ms ns = Printf.sprintf "%.1fms" (float_of_int ns /. 1e6)

let outcome_cell (o : Workloads.Chaos.outcome) =
  match o.Workloads.Chaos.oom_at_ns with
  | None -> "survived"
  | Some t -> Printf.sprintf "OOM@%.2fs" (Sim.Clock.to_s t)

let holdouts_cell = function
  | [] -> "-"
  | cpus -> String.concat "," (List.map string_of_int cpus)

let row (o : Workloads.Chaos.outcome) =
  let open Workloads.Chaos in
  [
    scenario_name o.scenario;
    o.label;
    outcome_cell o;
    Metrics.Table.fmt_i o.updates;
    Metrics.Table.fmt_i o.stall_warnings;
    holdouts_cell o.holdout_cpus;
    fmt_ms o.gp_p99_ns;
    Metrics.Table.fmt_i o.grow_retries;
    Printf.sprintf "%s/%s"
      (Metrics.Table.fmt_i o.emergency_flushes)
      (Metrics.Table.fmt_i o.emergency_flushed_objs);
    Metrics.Table.fmt_i o.ooms_delayed;
    Metrics.Table.fmt_i o.injected_failures;
    Metrics.Table.fmt_i o.safety_violations;
  ]

let header =
  [
    "scenario"; "alloc"; "outcome"; "updates"; "stalls"; "holdouts";
    "gp p99"; "retries"; "flush/objs"; "oom-delay"; "inj-fail"; "viol";
  ]

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Sys.mkdir d 0o755 with Sys_error _ -> ()
    end
  in
  go dir

(* A chaos run has no oracle verdict; what merits a forensic bundle is a
   mitigation firing (or an outright loss). Ordered by severity: the
   first matching reason names the bundle. *)
let mitigation_reason (o : Workloads.Chaos.outcome) =
  let open Workloads.Chaos in
  if o.safety_violations > 0 then Some "chaos-safety-violation"
  else if o.oom_at_ns <> None then Some "chaos-oom"
  else if o.emergency_flushes > 0 then Some "chaos-emergency-flush"
  else if o.ooms_delayed > 0 then Some "chaos-oom-delay"
  else if o.stall_warnings > 0 then Some "chaos-stall-warning"
  else None

let chaos_replay p scenario label =
  Printf.sprintf
    "prudence-repro chaos %s --alloc=%s --seed=%d --cpus=%d --scale=%g \
     --ring=%d"
    (Workloads.Chaos.scenario_name scenario)
    label p.seed p.cpus p.scale p.ring

let write_bundle dir p reason (o : Workloads.Chaos.outcome) =
  mkdir_p dir;
  let env = o.Workloads.Chaos.env in
  let violations =
    List.map
      (fun (w : Rcu.stall_warning) ->
        Printf.sprintf "stall warning at %d ns: holdouts %s" w.Rcu.at_ns
          (holdouts_cell w.Rcu.holdouts))
      (Rcu.stall_warnings env.Workloads.Env.rcu)
  in
  let metrics =
    let reg = Stats.Registry.create () in
    Stats.Providers.register_env reg env;
    List.map
      (fun ((m : Stats.Registry.metric), value) ->
        (m.Stats.Registry.name, value))
      (Stats.Registry.read_all reg)
  in
  let path =
    Filename.concat dir
      (Printf.sprintf "bundle-chaos-%s-%s.ndjson"
         (Workloads.Chaos.scenario_name o.Workloads.Chaos.scenario)
         o.Workloads.Chaos.label)
  in
  Obs.Bundle.write ~path ~reason
    ~replay:(chaos_replay p o.Workloads.Chaos.scenario o.Workloads.Chaos.label)
    ~scheme:o.Workloads.Chaos.label
    ~at_ns:(Sim.Engine.now env.Workloads.Env.eng)
    ~trace:(Option.get env.Workloads.Env.tracer)
    ~anatomy:env.Workloads.Env.obs ~offenders:[] ~violations ~metrics ();
  path

let report ?(kinds = [ Workloads.Env.Baseline; Workloads.Env.Prudence_alloc ])
    ?bundle_dir p scenarios =
  let outcomes =
    List.concat_map
      (fun s ->
        let cfg = config_for p s in
        let cfg =
          if bundle_dir = None then cfg
          else { cfg with Workloads.Chaos.obs = true }
        in
        List.map (fun k -> Workloads.Chaos.run_one cfg k) kinds)
      scenarios
  in
  let bundles =
    match bundle_dir with
    | None -> []
    | Some dir ->
        List.filter_map
          (fun o ->
            Option.map
              (fun reason -> write_bundle dir p reason o)
              (mitigation_reason o))
          outcomes
  in
  let rows = List.map row outcomes in
  let survived label =
    let mine =
      List.filter (fun o -> o.Workloads.Chaos.label = label) outcomes
    in
    let n =
      List.length (List.filter (fun o -> o.Workloads.Chaos.survived) mine)
    in
    Printf.sprintf "%s %d/%d" label n (List.length mine)
  in
  let violations =
    List.fold_left
      (fun acc o -> acc + o.Workloads.Chaos.safety_violations)
      0 outcomes
  in
  let verdict =
    Printf.sprintf "survival: %s; safety violations: %d"
      (String.concat ", "
         (List.map (fun k -> survived (Workloads.Env.kind_label k)) kinds))
      violations
  in
  Metrics.Report.make ~id:"chaos"
    ~title:"Chaos matrix: fault injection over both allocators"
    ~paper_claim:
      "Robustness (S3.4/S3.5): Prudence degrades gracefully where SLUB hits \
       fatal OOM -- emergency flush + OOM delay ride out callback floods and \
       pressure spikes; stalled readers are detected and named, never cause \
       premature reuse."
    ~verdict
    (Metrics.Table.render ~header rows
    ^
    match bundles with
    | [] -> ""
    | paths ->
        "\nforensic bundles (mitigation triggered):\n"
        ^ String.concat "\n" (List.map (fun p -> "  " ^ p) paths))
