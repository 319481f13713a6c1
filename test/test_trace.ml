(* The trace library: bounded rings, HDR histograms, the tracer as a
   probe subscriber, Chrome export well-formedness, and a traced mini-run
   whose grace periods must pair up in virtual-time order. *)

(* ---------------- ring buffer ---------------- *)

let test_ring_basic () =
  let r = Trace.Ring.create ~capacity:4 in
  Alcotest.(check int) "empty" 0 (Trace.Ring.length r);
  List.iter (fun i -> Trace.Ring.push r i) [ 1; 2; 3 ];
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (Trace.Ring.to_list r);
  Alcotest.(check int) "no drops" 0 (Trace.Ring.dropped r)

let test_ring_overflow_drops_oldest () =
  let r = Trace.Ring.create ~capacity:4 in
  List.iter (fun i -> Trace.Ring.push r i) [ 1; 2; 3; 4; 5; 6 ];
  Alcotest.(check int) "full" 4 (Trace.Ring.length r);
  Alcotest.(check (list int)) "oldest gone" [ 3; 4; 5; 6 ]
    (Trace.Ring.to_list r);
  Alcotest.(check int) "two dropped" 2 (Trace.Ring.dropped r);
  Trace.Ring.clear r;
  Alcotest.(check int) "cleared" 0 (Trace.Ring.length r);
  Trace.Ring.push r 7;
  Alcotest.(check (list int)) "reusable after clear" [ 7 ]
    (Trace.Ring.to_list r)

let test_ring_ordering_preserved () =
  let r = Trace.Ring.create ~capacity:16 in
  for i = 1 to 1000 do
    Trace.Ring.push r i
  done;
  Alcotest.(check (list int)) "last 16 in push order"
    (List.init 16 (fun i -> 985 + i))
    (Trace.Ring.to_list r);
  Alcotest.(check int) "dropped the rest" 984 (Trace.Ring.dropped r)

let test_ring_invalid_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Trace.Ring.create ~capacity:0))

(* ---------------- histogram ---------------- *)

let test_hist_exact_below_32 () =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.record h) [ 0; 1; 5; 31 ];
  Alcotest.(check int) "count" 4 (Trace.Hist.count h);
  Alcotest.(check int) "min" 0 (Trace.Hist.min_value h);
  Alcotest.(check int) "max" 31 (Trace.Hist.max_value h);
  Alcotest.(check int) "p100 exact" 31 (Trace.Hist.percentile h 100.);
  Alcotest.(check int) "p25 exact" 0 (Trace.Hist.percentile h 25.)

let test_hist_empty () =
  let h = Trace.Hist.create () in
  Alcotest.(check int) "p50 of empty" 0 (Trace.Hist.percentile h 50.);
  Alcotest.(check int) "count" 0 (Trace.Hist.count h)

(* The _opt variants make "no samples" unambiguous: plain [percentile]
   returns 0 on an empty histogram, indistinguishable from a real 0. *)
let test_hist_opt_queries () =
  let h = Trace.Hist.create () in
  Alcotest.(check (option int)) "p50 of empty" None
    (Trace.Hist.percentile_opt h 50.);
  Alcotest.(check (option int)) "p99.9 of empty" None
    (Trace.Hist.percentile_opt h 99.9);
  Alcotest.(check (option (float 0.0))) "mean of empty" None
    (Trace.Hist.mean_opt h);
  (* A single sample lands in one bucket: every percentile answers. *)
  Trace.Hist.record h 17;
  Alcotest.(check (option int)) "p0 single" (Some 17)
    (Trace.Hist.percentile_opt h 0.);
  Alcotest.(check (option int)) "p50 single" (Some 17)
    (Trace.Hist.percentile_opt h 50.);
  Alcotest.(check (option int)) "p100 single" (Some 17)
    (Trace.Hist.percentile_opt h 100.);
  Alcotest.(check (option (float 0.0))) "mean single" (Some 17.)
    (Trace.Hist.mean_opt h);
  (* Agreement with the non-optional query when samples exist. *)
  Alcotest.(check (option int)) "matches percentile"
    (Some (Trace.Hist.percentile h 50.))
    (Trace.Hist.percentile_opt h 50.)

(* One sample: every percentile must round-trip to within the bucket's
   1/16 relative width. *)
let prop_hist_roundtrip =
  QCheck.Test.make ~name:"hist percentile round-trips within 1/16"
    ~count:500
    QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let h = Trace.Hist.create () in
      Trace.Hist.record h v;
      let r = Trace.Hist.percentile h 50. in
      r <= v && v - r <= (v / 16) + 1)

let prop_hist_percentile_monotonic =
  QCheck.Test.make ~name:"hist percentiles are monotonic in p" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (int_bound 10_000_000))
    (fun vs ->
      let h = Trace.Hist.create () in
      List.iter (Trace.Hist.record h) vs;
      let ps = [ 1.; 10.; 25.; 50.; 75.; 90.; 99.; 100. ] in
      let rs = List.map (Trace.Hist.percentile h) ps in
      (* pairwise non-decreasing *)
      fst
        (List.fold_left
           (fun (ok, prev) r -> (ok && r >= prev, r))
           (true, List.hd rs) (List.tl rs)))

let prop_hist_mean_bounded =
  QCheck.Test.make ~name:"hist mean lies within [min,max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (int_bound 1_000_000))
    (fun vs ->
      let h = Trace.Hist.create () in
      List.iter (Trace.Hist.record h) vs;
      let m = Trace.Hist.mean h in
      float_of_int (Trace.Hist.min_value h) <= m
      && m <= float_of_int (Trace.Hist.max_value h))

(* Reverse iteration and the bounded newest-n window against the list
   model, wraparound included: the ring keeps the last [cap] pushes,
   [iter_rev] visits them newest-first, and [recent n] returns the
   newest [n] in oldest-first order (clamping n to [0, length]). *)
let prop_ring_rev_recent_model =
  QCheck.Test.make ~name:"ring iter_rev/recent match the list model"
    ~count:500
    QCheck.(pair (int_range 1 8) (small_list small_nat))
    (fun (cap, xs) ->
      let r = Trace.Ring.create ~capacity:cap in
      List.iter (Trace.Ring.push r) xs;
      let total = List.length xs in
      let kept = List.filteri (fun i _ -> i >= total - cap) xs in
      let rebuilt = ref [] in
      Trace.Ring.iter_rev r (fun x -> rebuilt := x :: !rebuilt);
      !rebuilt = kept
      && List.for_all
           (fun n ->
             let keep = min (max n 0) (List.length kept) in
             Trace.Ring.recent r n
             = List.filteri (fun i _ -> i >= List.length kept - keep) kept)
           [ -1; 0; 1; (cap / 2) + 1; cap; cap + 3 ])

(* ---------------- the tracer on the bus ---------------- *)

(* Emit [(time, edge, cpu, a, b)] on the engine's probe, each at its
   virtual time. *)
let emit_at eng events =
  let probe = Sim.Engine.probe eng in
  List.iter
    (fun (time, e, cpu, a, b) ->
      ignore
        (Sim.Engine.schedule_at eng ~time (fun () ->
             Sim.Probe.emit probe e ~cpu ~a ~b)))
    events;
  Sim.Engine.run eng

let test_edge_kind_map () =
  Alcotest.(check (list int)) "trace kinds are indices 0..23, in order"
    (List.init Trace.Event.kind_count Fun.id)
    (List.map Trace.Event.index Trace.Event.kinds);
  Alcotest.(check int) "Alloc_cost is no trace kind" (-1)
    (Trace.Event.index Sim.Probe.Alloc_cost);
  Alcotest.(check string) "names follow the index" "gp-start"
    (Trace.Event.kind_name Sim.Probe.Gp_start)

let test_emit_merge_order () =
  let eng = Sim.Engine.create () in
  let tr = Trace.create ~ring_capacity:8 ~ncpus:2 eng in
  let cache = Sim.Probe.intern (Sim.Engine.probe eng) "kmalloc-64" in
  emit_at eng
    [
      (10, Sim.Probe.Alloc_miss, 1, cache, 0);
      (20, Gp_start, -1, 7, 0);
      (30, Alloc_hit, 0, cache, 0);
      (40, Alloc_cost, 0, cache, 99);
      (50, Obj_alloc, 0, 1, 0);
    ];
  let evs = Trace.events tr in
  Alcotest.(check (list int)) "merged by time, non-trace edges skipped"
    [ 10; 20; 30 ]
    (List.map (fun (e : Trace.Event.t) -> e.Trace.Event.time) evs);
  Alcotest.(check (list (pair string int)))
    "labels resolved; Gp_start's arg is a"
    [ ("kmalloc-64", 0); ("", 7); ("kmalloc-64", 0) ]
    (List.map (fun (e : Trace.Event.t) -> Trace.Event.(e.label, e.arg)) evs);
  Alcotest.(check int) "alloc cost sampled" 1
    (Trace.Hist.count (Trace.alloc_cost tr));
  Alcotest.(check int) "total" 3 (Trace.total_events tr)

let test_histograms_from_edges () =
  let eng = Sim.Engine.create () in
  let tr = Trace.create ~ncpus:1 eng in
  emit_at eng
    [
      (100, Sim.Probe.Gp_start, -1, 1, 0);
      (350, Lock_contended, 0, 0, 40);
      (600, Gp_end, -1, 0, 1);
    ];
  Alcotest.(check int) "gp latency = end - start" 500
    (Trace.Hist.max_value (Trace.gp_latency tr));
  Alcotest.(check int) "lock wait = Lock_contended's b" 40
    (Trace.Hist.max_value (Trace.lock_wait tr))

(* ---------------- traced mini-run ---------------- *)

let tiny =
  {
    Core.Experiments.default_params with
    Core.Experiments.scale = 0.03;
    cpus = 2;
  }

let traced_runs = lazy (
  match Core.Experiments.run_traced tiny "fig6" with
  | Some runs -> runs
  | None -> Alcotest.fail "fig6 not traceable")

(* [(allocator, tracer)], the Chrome exporter's input. *)
let tracers () =
  List.map
    (fun r -> Core.Experiments.(r.label, r.tracer))
    (Lazy.force traced_runs)

let lifetime label =
  (List.find
     (fun r -> r.Core.Experiments.label = label)
     (Lazy.force traced_runs))
    .Core.Experiments.lifetime

(* Grace periods are strictly sequential: starts and ends must alternate,
   every end matches the latest start's cookie, and virtual time never
   goes backwards across the pairs. *)
let test_gp_pairs_nest () =
  List.iter
    (fun (label, tr) ->
      let gps =
        List.filter
          (fun (e : Trace.Event.t) ->
            e.Trace.Event.kind = Sim.Probe.Gp_start
            || e.Trace.Event.kind = Gp_end)
          (Trace.events tr)
      in
      Alcotest.(check bool) (label ^ " saw grace periods") true
        (List.length gps > 2);
      let open_gp = ref None in
      let last_time = ref 0 in
      List.iter
        (fun (e : Trace.Event.t) ->
          Alcotest.(check bool)
            (label ^ " time monotone") true
            (e.Trace.Event.time >= !last_time);
          last_time := e.Trace.Event.time;
          match (e.Trace.Event.kind, !open_gp) with
          | Sim.Probe.Gp_start, None ->
              open_gp := Some e.Trace.Event.arg
          | Gp_start, Some _ ->
              Alcotest.failf "%s: nested Gp_start at %d" label
                e.Trace.Event.time
          | Gp_end, Some seq ->
              Alcotest.(check int) (label ^ " end matches start") seq
                e.Trace.Event.arg;
              open_gp := None
          | Gp_end, None ->
              Alcotest.failf "%s: Gp_end without start at %d" label
                e.Trace.Event.time
          | _ -> ())
        gps)
    (tracers ())

let test_traced_lifetimes () =
  let hist = lifetime in
  Alcotest.(check bool) "prudence reuses deferred objects" true
    (Trace.Hist.count (hist "prudence") > 0);
  (* The headline acceptance shape: deferred objects wait longer under
     the baseline than under Prudence. *)
  if Trace.Hist.count (hist "slub") > 0 then
    Alcotest.(check bool) "slub lifetimes exceed prudence's" true
      (Trace.Hist.percentile (hist "slub") 50.
      >= Trace.Hist.percentile (hist "prudence") 50.)

(* Everything deterministic a microbench run leaves behind: dispatched
   events, the final clock, the loop's virtual duration, every cache's
   counters and RCU's. *)
let run_snapshot kind ~observed =
  let module E = Workloads.Env in
  let env =
    E.build
      {
        E.default_config with
        E.kind;
        cpus = 2;
        trace = (if observed then Some 1_024 else None);
        obs = observed;
      }
  in
  let probe = Sim.Engine.probe env.E.eng in
  if not observed then
    List.iter
      (fun e ->
        Alcotest.(check bool)
          ("untraced env watches no " ^ Trace.Event.kind_name e)
          false (Sim.Probe.active probe e))
      Trace.Event.kinds;
  let r =
    Workloads.Microbench.run env
      { Workloads.Microbench.default_config with pairs_per_cpu = 1_800 }
  in
  let caches = ref [] in
  env.E.backend.Slab.Backend.iter_caches (fun c ->
      caches :=
        (c.Slab.Frame.name, Slab.Slab_stats.snapshot c.Slab.Frame.stats)
        :: !caches);
  ( (Sim.Engine.executed env.E.eng, Sim.Engine.now env.E.eng),
    ( r.Workloads.Microbench.duration_ns,
      !caches,
      Rcu.stats env.E.rcu,
      r.Workloads.Microbench.pairs ) )

let test_tracing_is_pure_observation () =
  (* Tracer and anatomy recorder on vs off: the run must be identical
     (observers charge no virtual time and schedule nothing). *)
  List.iter
    (fun kind ->
      let label = Workloads.Env.kind_label kind in
      let (ev_off, clock_off), rest_off = run_snapshot kind ~observed:false in
      let (ev_on, clock_on), rest_on = run_snapshot kind ~observed:true in
      Alcotest.(check int) (label ^ " dispatched events") ev_off ev_on;
      Alcotest.(check int) (label ^ " final clock") clock_off clock_on;
      Alcotest.(check bool) (label ^ " duration, cache and RCU counters")
        true (rest_off = rest_on))
    [ Workloads.Env.Baseline; Workloads.Env.Prudence_alloc ]

(* ---------------- pinned outputs ---------------- *)

(* Recorded before the trace kinds moved onto the observation bus: the
   export's bytes, the four histograms and one tournament cell must not
   move when the plumbing under them changes. *)
let hist_summary h =
  Trace.Hist.
    (count h, sum h, percentile h 50., percentile h 99.)

let test_pinned_outputs () =
  let runs = tracers () in
  Alcotest.(check string) "chrome export digest"
    "d912fcbd0c1e0d6b3118c8b87883aa39"
    (Digest.to_hex (Digest.string (Trace.Chrome.to_string runs)));
  let quad = Alcotest.(pair (pair int int) (pair int int)) in
  let pin label name h (c, s, p50, p99) =
    let c', s', p50', p99' = hist_summary h in
    Alcotest.check quad (label ^ " " ^ name) ((c, s), (p50, p99))
      ((c', s'), (p50', p99'))
  in
  List.iter
    (fun (label, life, gp, lock, alloc) ->
      let tr = List.assoc label runs in
      pin label "lifetime" (lifetime label) life;
      pin label "gp latency" (Trace.gp_latency tr) gp;
      pin label "lock wait" (Trace.lock_wait tr) lock;
      pin label "alloc cost" (Trace.alloc_cost tr) alloc)
    [
      ( "slub",
        (1, 627_532, 627_532, 627_532),
        (4, 1_125_000, 250_000, 360_448),
        (651, 68_800, 60, 216),
        (3_600, 643_300, 128, 800) );
      ( "prudence",
        (467, 285_918_471, 589_824, 622_592),
        (4, 1_125_000, 250_000, 360_448),
        (618, 51_100, 60, 176),
        (3_600, 573_148, 128, 672) );
    ];
  match
    Core.Tournament.run ~kinds:[ Workloads.Env.Prudence_alloc ]
      { Core.Chaos.default_params with Core.Chaos.scale = 0.05; cpus = 4 }
      [ Workloads.Chaos.Clean ]
  with
  | [ c ] ->
      Alcotest.(check (list (option int))) "tournament clean/prudence"
        [ Some 7_602_176; Some 19_922_944; Some 1_000_000 ]
        Core.Tournament.[ c.reuse_p50_ns; c.reuse_p99_ns; c.gp_p99_ns ]
  | _ -> Alcotest.fail "expected one tournament cell"

(* ---------------- Chrome export ---------------- *)

(* No JSON parser in the tree: check structure by hand — balanced
   braces/brackets outside strings, expected top-level keys, and the
   pair-slice phase present. *)
let json_balanced s =
  let depth = ref 0 and in_str = ref false and escaped = ref false in
  String.iter
    (fun c ->
      if !in_str then
        if !escaped then escaped := false
        else if c = '\\' then escaped := true
        else if c = '"' then in_str := false
        else ()
      else
        match c with
        | '"' -> in_str := true
        | '{' | '[' -> incr depth
        | '}' | ']' -> decr depth
        | _ -> ())
    s;
  (not !in_str) && !depth = 0

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

let test_chrome_export () =
  let json = Trace.Chrome.to_string (tracers ()) in
  Alcotest.(check bool) "balanced" true (json_balanced json);
  Alcotest.(check bool) "traceEvents" true (contains ~sub:"\"traceEvents\"" json);
  Alcotest.(check bool) "metadata" true (contains ~sub:"process_name" json);
  Alcotest.(check bool) "gp slices" true (contains ~sub:"grace-period" json);
  Alcotest.(check bool) "instants" true (contains ~sub:"\"ph\":\"i\"" json)

let test_chrome_escape () =
  let eng = Sim.Engine.create () in
  let tr = Trace.create ~ring_capacity:8 ~ncpus:1 eng in
  let weird = Sim.Probe.intern (Sim.Engine.probe eng) "we\"ird\\cache\n" in
  emit_at eng [ (1, Sim.Probe.Alloc_hit, 0, weird, 0) ];
  let json = Trace.Chrome.to_string [ ("r", tr) ] in
  Alcotest.(check bool) "escaped label balanced" true (json_balanced json)

let test_histview_render () =
  let h = Trace.Hist.create () in
  List.iter (Trace.Hist.record h) [ 100; 200; 200; 5_000; 1_000_000 ];
  let s = Metrics.Histview.render ~title:"t" h in
  Alcotest.(check bool) "has summary" true (contains ~sub:"5 samples" s);
  Alcotest.(check bool) "has bars" true (contains ~sub:"|#" s);
  Alcotest.(check string) "empty hist" "e: (no samples)\n"
    (Metrics.Histview.render ~title:"e" (Trace.Hist.create ()));
  (* One bucket: the percentile lines must render without arithmetic on
     absent neighbours. *)
  let one = Trace.Hist.create () in
  Trace.Hist.record one 42;
  let s1 = Metrics.Histview.render ~title:"one" one in
  Alcotest.(check bool) "single bucket summary" true
    (contains ~sub:"1 samples" s1);
  Alcotest.(check bool) "single bucket p50" true (contains ~sub:"p50" s1)

let suite =
  [
    Alcotest.test_case "ring: basic push/iter" `Quick test_ring_basic;
    Alcotest.test_case "ring: overflow drops oldest" `Quick
      test_ring_overflow_drops_oldest;
    Alcotest.test_case "ring: ordering preserved under churn" `Quick
      test_ring_ordering_preserved;
    Alcotest.test_case "ring: rejects capacity <= 0" `Quick
      test_ring_invalid_capacity;
    Alcotest.test_case "hist: exact below 32" `Quick test_hist_exact_below_32;
    Alcotest.test_case "hist: empty" `Quick test_hist_empty;
    Alcotest.test_case "hist: _opt on empty and single bucket" `Quick
      test_hist_opt_queries;
    QCheck_alcotest.to_alcotest prop_ring_rev_recent_model;
    QCheck_alcotest.to_alcotest prop_hist_roundtrip;
    QCheck_alcotest.to_alcotest prop_hist_percentile_monotonic;
    QCheck_alcotest.to_alcotest prop_hist_mean_bounded;
    Alcotest.test_case "edge-to-kind map" `Quick test_edge_kind_map;
    Alcotest.test_case "emit: events merge in time order" `Quick
      test_emit_merge_order;
    Alcotest.test_case "histograms from edges" `Quick
      test_histograms_from_edges;
    Alcotest.test_case "traced run: GP start/end pairs nest" `Slow
      test_gp_pairs_nest;
    Alcotest.test_case "traced run: lifetime histograms populated" `Slow
      test_traced_lifetimes;
    Alcotest.test_case "tracing is pure observation" `Slow
      test_tracing_is_pure_observation;
    Alcotest.test_case "pinned: export digest, histograms, tournament cell"
      `Slow test_pinned_outputs;
    Alcotest.test_case "chrome: export is well-formed" `Slow test_chrome_export;
    Alcotest.test_case "chrome: labels escaped" `Quick test_chrome_escape;
    Alcotest.test_case "histview: renders summary and bars" `Quick
      test_histview_render;
  ]
