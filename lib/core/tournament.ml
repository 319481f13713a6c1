type cell = {
  outcome : Workloads.Chaos.outcome;
  kind : Workloads.Env.kind;
  limbo : int;
  reuse_p50_ns : int option;
  reuse_p99_ns : int option;
  gp_p99_ns : int option;
  obs : Obs.Anatomy.t;
      (* Armed anatomy recorder: the phase columns come from here. *)
}

(* "Limbo" unifies the two places a deferred object can wait: the latent
   caches/slabs of the Prudence frame (any SMR backend) and the baseline's
   RCU callback lists. Exactly one is non-zero per scheme, so the sum is
   the scheme's end-of-run deferred occupancy. *)
let limbo_of env =
  let latent = ref 0 in
  env.Workloads.Env.backend.Slab.Backend.iter_caches (fun c ->
      latent := !latent + Slab.Frame.latent_total c);
  !latent + Rcu.pending_callbacks env.Workloads.Env.rcu

let cell_of kind (o : Workloads.Chaos.outcome) =
  let env = o.Workloads.Chaos.env in
  let reuse = Obs.Anatomy.total_hist env.Workloads.Env.obs in
  let gp = Trace.gp_latency (Option.get env.Workloads.Env.tracer) in
  {
    outcome = o;
    kind;
    limbo = limbo_of env;
    reuse_p50_ns = Trace.Hist.percentile_opt reuse 50.;
    reuse_p99_ns = Trace.Hist.percentile_opt reuse 99.;
    gp_p99_ns = Trace.Hist.percentile_opt gp 99.;
    obs = env.Workloads.Env.obs;
  }

let phase_p99 c p =
  Trace.Hist.percentile_opt (Obs.Anatomy.phase_hist c.obs p) 99.

let run ?(kinds = Workloads.Env.all_kinds) p scenarios =
  List.concat_map
    (fun s ->
      let cfg = { (Chaos.config_for p s) with Workloads.Chaos.obs = true } in
      List.map (fun k -> cell_of k (Workloads.Chaos.run_one cfg k)) kinds)
    scenarios

let fmt_ms_opt = function
  | None -> "-"
  | Some ns -> Printf.sprintf "%.1fms" (float_of_int ns /. 1e6)

let fmt_us_opt = function
  | None -> "-"
  | Some ns -> Printf.sprintf "%.0fus" (float_of_int ns /. 1e3)

let header =
  [
    "scenario"; "scheme"; "outcome"; "updates"; "limbo@end"; "reuse p50";
    "reuse p99"; "gp p99"; "qs p99"; "harv p99"; "flush/objs"; "oom-delay";
    "viol"; "peak MiB";
  ]

let row c =
  let o = c.outcome in
  let open Workloads.Chaos in
  [
    scenario_name o.scenario;
    o.label;
    (match o.oom_at_ns with
    | None -> "survived"
    | Some t -> Printf.sprintf "OOM@%.2fs" (Sim.Clock.to_s t));
    Metrics.Table.fmt_i o.updates;
    Metrics.Table.fmt_i c.limbo;
    fmt_us_opt c.reuse_p50_ns;
    fmt_ms_opt c.reuse_p99_ns;
    fmt_ms_opt c.gp_p99_ns;
    fmt_ms_opt (phase_p99 c Obs.Phase.Qs_collection);
    fmt_ms_opt (phase_p99 c Obs.Phase.Complete_to_harvest);
    Printf.sprintf "%s/%s"
      (Metrics.Table.fmt_i o.emergency_flushes)
      (Metrics.Table.fmt_i o.emergency_flushed_objs);
    Metrics.Table.fmt_i o.ooms_delayed;
    Metrics.Table.fmt_i o.safety_violations;
    Metrics.Table.fmt_f ~dec:1 o.peak_used_mib;
  ]

let verdict kinds cells =
  let survived label =
    let mine =
      List.filter (fun c -> c.outcome.Workloads.Chaos.label = label) cells
    in
    let n =
      List.length
        (List.filter (fun c -> c.outcome.Workloads.Chaos.survived) mine)
    in
    Printf.sprintf "%s %d/%d" label n (List.length mine)
  in
  let violations =
    List.fold_left
      (fun acc c -> acc + c.outcome.Workloads.Chaos.safety_violations)
      0 cells
  in
  Printf.sprintf "survival: %s; safety violations: %d"
    (String.concat ", "
       (List.map (fun k -> survived (Workloads.Env.kind_label k)) kinds))
    violations

let report_cells kinds cells =
  Metrics.Report.make ~id:"tournament"
    ~title:"SMR tournament: every reclamation scheme over the chaos matrix"
    ~paper_claim:
      "Cross-scheme comparison (Fig. 3 axes, generalized): the allocator \
       integration, not the grace-period mechanism, determines limbo \
       occupancy and defer-to-reuse latency -- RCU+Prudence, EBR/DEBRA and \
       Hyaline all reuse memory promptly where baseline SLUB's callback \
       batching lets deferred objects pile up, and every scheme stays \
       safety-clean under fault injection."
    ~verdict:(verdict kinds cells)
    (Metrics.Table.render ~header (List.map row cells))

let report ?(kinds = Workloads.Env.all_kinds) p scenarios =
  report_cells kinds (run ~kinds p scenarios)

let cell_json c =
  let module J = Metrics.Json in
  let o = c.outcome in
  let opt = function None -> J.Null | Some v -> J.Int v in
  J.Obj
    [
      ("type", J.Str "scheme");
      ("scenario", J.Str (Workloads.Chaos.scenario_name o.Workloads.Chaos.scenario));
      ("scheme", J.Str o.Workloads.Chaos.label);
      ("survived", J.Bool o.Workloads.Chaos.survived);
      ( "oom_at_ns",
        match o.Workloads.Chaos.oom_at_ns with
        | None -> J.Null
        | Some t -> J.Int t );
      ("updates", J.Int o.Workloads.Chaos.updates);
      ("limbo_end", J.Int c.limbo);
      ("reuse_p50_ns", opt c.reuse_p50_ns);
      ("reuse_p99_ns", opt c.reuse_p99_ns);
      ("gp_p99_ns", opt c.gp_p99_ns);
      ( "phase_p99_ns",
        J.Obj
          (List.map
             (fun p -> (Obs.Phase.name p, opt (phase_p99 c p)))
             Obs.Phase.all) );
      ("stall_warnings", J.Int o.Workloads.Chaos.stall_warnings);
      ("grow_retries", J.Int o.Workloads.Chaos.grow_retries);
      ("emergency_flushes", J.Int o.Workloads.Chaos.emergency_flushes);
      ("emergency_flushed_objs", J.Int o.Workloads.Chaos.emergency_flushed_objs);
      ("ooms_delayed", J.Int o.Workloads.Chaos.ooms_delayed);
      ("injected_failures", J.Int o.Workloads.Chaos.injected_failures);
      ("safety_violations", J.Int o.Workloads.Chaos.safety_violations);
      ("peak_used_mib", J.Float o.Workloads.Chaos.peak_used_mib);
      ("final_used_mib", J.Float o.Workloads.Chaos.final_used_mib);
    ]

let to_ndjson kinds cells =
  let module J = Metrics.Json in
  let lines = List.map (fun c -> J.to_string (cell_json c)) cells in
  let violations =
    List.fold_left
      (fun acc c -> acc + c.outcome.Workloads.Chaos.safety_violations)
      0 cells
  in
  let summary =
    J.Obj
      [
        ("type", J.Str "summary");
        ( "schemes",
          J.List
            (List.map (fun k -> J.Str (Workloads.Env.kind_label k)) kinds) );
        ("cells", J.Int (List.length cells));
        ( "survived",
          J.Int
            (List.length
               (List.filter (fun c -> c.outcome.Workloads.Chaos.survived) cells))
        );
        ("safety_violations", J.Int violations);
        ("ok", J.Bool (violations = 0));
      ]
  in
  String.concat "\n" (lines @ [ J.to_string summary ]) ^ "\n"
