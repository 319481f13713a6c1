(* One repetition of one benchmark workload, on every stack it runs.

     pbench.exe --workload endurance|apps|routing --seed N
                [--traced] [--spans-out PREFIX] [--stamp JSON]
                [--inject-alloc-ns NS]

   Prints one JSON object on stdout: set-up and timed-phase host
   readings (including the host time of every fixed slice of simulated
   time, so the caller can combine repetitions slice by slice), the
   deterministic counters of every stack (the caller
   checks they repeat exactly), the simulated outcome, and — with
   --traced — the per-layer figures from the library profiler ([Prof])
   and the benchmark's own spans. A fresh process per repetition keeps
   one repetition's heap peak from leaking into the next.

   --traced installs the profiler on every stack; --spans-out then
   writes the spans as NDJSON and folded stacks when the run ends.
   --inject-alloc-ns busy-waits inside every wrapped [Backend.alloc]
   call (the sensitivity check's calibrated slowdown). *)

module W = Workloads

let workload = ref ""
let seed = ref 1
let traced = ref false
let spans_out = ref ""
let stamp = ref "{}"
let inject_alloc_ns = ref 0.

(* Set-up is repeated this many times per run; the median counts. *)
let setup_reps = 3

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME endurance|apps|routing");
    ("--seed", Arg.Set_int seed, "N input seed");
    ("--traced", Arg.Set traced, " install the profilers");
    ("--spans-out", Arg.Set_string spans_out, "PREFIX write PREFIX.ndjson/.folded");
    ("--stamp", Arg.Set_string stamp, "JSON machine stamp for the span file");
    ("--inject-alloc-ns", Arg.Set_float inject_alloc_ns, "NS slow Backend.alloc");
  ]

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)
(* ------------------------------------------------------------------ *)

let jnum f = if Float.is_finite f then Printf.sprintf "%.17g" f else "null"
let jstr s = Printf.sprintf "%S" s
let jobj fields =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> jstr k ^ ": " ^ v) fields) ^ "}"
let jlist items = "[" ^ String.concat ", " items ^ "]"

(* ------------------------------------------------------------------ *)
(* Host readings                                                        *)
(* ------------------------------------------------------------------ *)

(* A fixed integer loop timed in-process beside every repetition, so
   host drift between runs is visible. Recorded, never divided into the
   metrics. *)
let calibrate () =
  let t0 = Bspan.now_ns () in
  let x = ref 1 in
  for i = 1 to 20_000_000 do
    x := ((!x * 1_103_515_245) + 12_345 + i) land 0x3fff_ffff
  done;
  ignore (Sys.opaque_identity !x);
  (Bspan.now_ns () -. t0) /. 1e6

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Host time per fixed slice of simulated time, read through the
   engine's pure per-event observer. *)
type slicer = {
  mutable slice_ns : int;
  mutable next : int;
  mutable last : float;
  mutable n : int;
  mutable buf : Float.Array.t;
}

(* Pooled over every run of a repetition. *)
let slices =
  { slice_ns = 1; next = 0; last = 0.; n = 0; buf = Float.Array.make 65_536 0. }

(* Close the slice that ends at host time [t]. *)
let record s t =
  if s.n = Float.Array.length s.buf then begin
    let b = Float.Array.make (2 * s.n) 0. in
    Float.Array.blit s.buf 0 b 0 s.n;
    s.buf <- b
  end;
  Float.Array.set s.buf s.n ((t -. s.last) /. 1e6);
  s.n <- s.n + 1;
  s.last <- t

let observe s ~time =
  if time >= s.next then begin
    record s (Bspan.now_ns ());
    s.next <- ((time / s.slice_ns) + 1) * s.slice_ns
  end

(* ------------------------------------------------------------------ *)
(* The wrapped backend                                                  *)
(* ------------------------------------------------------------------ *)

type counts = { mutable attempts : int; mutable failed : int }

let wrap_backend ~eng ~spans ~inject counts (b : Slab.Backend.t) =
  let open Slab.Backend in
  {
    b with
    alloc =
      (fun cache cpu ->
        let id = cpu.Sim.Machine.id in
        counts.attempts <- counts.attempts + 1;
        Bspan.enter spans eng ~cpu:id Bspan.Backend_alloc;
        if inject > 0. then Bspan.spin inject;
        let r = b.alloc cache cpu in
        Bspan.exit spans eng ~cpu:id Bspan.Backend_alloc;
        if r = None then counts.failed <- counts.failed + 1;
        r);
    free =
      (fun cache cpu obj ->
        let id = cpu.Sim.Machine.id in
        Bspan.enter spans eng ~cpu:id Bspan.Backend_free;
        b.free cache cpu obj;
        Bspan.exit spans eng ~cpu:id Bspan.Backend_free);
    free_deferred =
      (fun cache cpu obj ->
        let id = cpu.Sim.Machine.id in
        Bspan.enter spans eng ~cpu:id Bspan.Backend_free_deferred;
        b.free_deferred cache cpu obj;
        Bspan.exit spans eng ~cpu:id Bspan.Backend_free_deferred);
  }

(* ------------------------------------------------------------------ *)
(* Per-stack results                                                    *)
(* ------------------------------------------------------------------ *)

type stack = {
  kind : W.Env.kind;
  mutable events : int;
  mutable sim_ns : int;  (** Sum of the runs' final clocks. *)
  mutable ops : int;
  mutable ops_sim_ns : int;  (** Simulated time the ops span. *)
  mutable allocs : int;
  mutable frees : int;
  mutable deferred_frees : int;
  mutable gps : int;
  counts : counts;
  mutable peak_used_mib : float;
  mutable wall_s : float;  (** Host time, not deterministic. *)
  mutable oom : bool;
  mutable problems : string list;
}

let new_stack kind =
  {
    kind;
    events = 0;
    sim_ns = 0;
    ops = 0;
    ops_sim_ns = 0;
    allocs = 0;
    frees = 0;
    deferred_frees = 0;
    gps = 0;
    counts = { attempts = 0; failed = 0 };
    peak_used_mib = 0.;
    wall_s = 0.;
    oom = false;
    problems = [];
  }

(* Traced-run accumulators, summed over every run of every stack. *)
type layers = {
  p_calls : int array;
  p_self_ns : Float.Array.t;
  p_incl_ns : Float.Array.t;
  p_words : Float.Array.t;
  mutable prof_self_ns : float;
  mutable truncated : int;
  mutable unmatched : int;
  mutable cascades : int;
  mutable hits : int;
  mutable slab_allocs : int;
  mutable ocache_churns : int;
  mutable slab_churns : int;
  mutable merges : int;
  mutable merged_objs : int;
  mutable max_backlog : int;
  mutable build_calls : int;
  mutable build_ns : float;
  mutable folded : (string * float) list;
  mutable span_lines : string list;
  b_calls : int array;
  b_self_ns : Float.Array.t;
  b_incl_ns : Float.Array.t;
  b_words : Float.Array.t;
}

let layers =
  let n = Prof.Span.count and m = Bspan.nspans in
  {
    p_calls = Array.make n 0;
    p_self_ns = Float.Array.make n 0.;
    p_incl_ns = Float.Array.make n 0.;
    p_words = Float.Array.make n 0.;
    prof_self_ns = 0.;
    truncated = 0;
    unmatched = 0;
    cascades = 0;
    hits = 0;
    slab_allocs = 0;
    ocache_churns = 0;
    slab_churns = 0;
    merges = 0;
    merged_objs = 0;
    max_backlog = 0;
    build_calls = 0;
    build_ns = 0.;
    folded = [];
    span_lines = [];
    b_calls = Array.make m 0;
    b_self_ns = Float.Array.make m 0.;
    b_incl_ns = Float.Array.make m 0.;
    b_words = Float.Array.make m 0.;
  }

let fadd a i v = Float.Array.set a i (Float.Array.get a i +. v)

let span_line ~source ~stack ~run ~span ~layer ~calls ~self_ns ~incl_ns ~words =
  jobj
    [
      ("type", jstr "span");
      ("source", jstr source);
      ("stack", jstr stack);
      ("run", jstr run);
      ("span", jstr span);
      ("layer", jstr layer);
      ("calls", string_of_int calls);
      ("self_ns", jnum self_ns);
      ("incl_ns", jnum incl_ns);
      ("self_minor_words", jnum words);
    ]

let collect_trace ~stack ~run prof spans =
  let l = layers in
  List.iter
    (fun (c : Prof.cell) ->
      let i = Prof.Span.index c.Prof.span in
      l.p_calls.(i) <- l.p_calls.(i) + c.Prof.calls;
      fadd l.p_self_ns i c.Prof.self_ns;
      fadd l.p_incl_ns i c.Prof.incl_ns;
      fadd l.p_words i c.Prof.self_minor_words;
      l.span_lines <-
        span_line ~source:"prof" ~stack ~run
          ~span:(Prof.Span.name c.Prof.span)
          ~layer:(Prof.Span.subsystem c.Prof.span)
          ~calls:c.Prof.calls ~self_ns:c.Prof.self_ns ~incl_ns:c.Prof.incl_ns
          ~words:c.Prof.self_minor_words
        :: l.span_lines)
    (Prof.totals prof);
  l.prof_self_ns <- l.prof_self_ns +. Prof.total_self_ns prof;
  l.truncated <- l.truncated + Prof.truncated prof + spans.Bspan.truncated;
  l.unmatched <-
    l.unmatched + Prof.dropped_exits prof + spans.Bspan.unmatched
    + spans.Bspan.suspended;
  List.iter
    (fun s ->
      let i = Bspan.index s and calls = Bspan.calls spans s in
      if calls > 0 then begin
        l.b_calls.(i) <- l.b_calls.(i) + calls;
        fadd l.b_self_ns i (Bspan.self_ns spans s);
        fadd l.b_incl_ns i (Bspan.incl_ns spans s);
        fadd l.b_words i (Bspan.self_words spans s);
        l.span_lines <-
          span_line ~source:"bench" ~stack ~run ~span:(Bspan.name s)
            ~layer:(List.hd (String.split_on_char '.' (Bspan.name s)))
            ~calls ~self_ns:(Bspan.self_ns spans s)
            ~incl_ns:(Bspan.incl_ns spans s) ~words:(Bspan.self_words spans s)
          :: l.span_lines
      end)
    Bspan.all;
  let prefix = stack ^ ";" ^ run ^ ";" in
  l.folded <-
    List.rev_append
      (List.map
         (fun (p, w) -> (prefix ^ p, float_of_int w))
         (Prof.folded ~weight:`Self_ns prof))
      (List.rev_append
         (List.map (fun (p, w) -> (prefix ^ "bench;" ^ p, w)) (Bspan.folded spans))
         l.folded)

(* ------------------------------------------------------------------ *)
(* One repetition                                                       *)
(* ------------------------------------------------------------------ *)

let cache_totals (st : stack) (env : W.Env.t) =
  env.W.Env.backend.Slab.Backend.iter_caches (fun c ->
      let s = Slab.Slab_stats.snapshot c.Slab.Frame.stats in
      st.allocs <- st.allocs + s.Slab.Slab_stats.allocs;
      st.frees <- st.frees + s.Slab.Slab_stats.frees;
      st.deferred_frees <- st.deferred_frees + s.Slab.Slab_stats.deferred_frees;
      if !traced then begin
        let l = layers in
        l.hits <- l.hits + s.Slab.Slab_stats.hits;
        l.slab_allocs <- l.slab_allocs + s.Slab.Slab_stats.allocs;
        l.ocache_churns <- l.ocache_churns + Slab.Slab_stats.ocache_churns s;
        l.slab_churns <- l.slab_churns + Slab.Slab_stats.slab_churns s;
        l.merges <- l.merges + s.Slab.Slab_stats.merges;
        l.merged_objs <- l.merged_objs + s.Slab.Slab_stats.merged_objs
      end)

let setup_s = ref 0.
let wall_s = ref 0.
let minor_words = ref 0.
let slice_counts = ref []

let run_one (st : stack) (r : Shapes.run) =
  (* Set-up: generate the inputs and build the stack [setup_reps] times;
     the median counts, the last build is the one that runs. *)
  let samples = ref [] and built = ref None in
  for rep = 1 to setup_reps do
    let prof =
      if !traced && rep = setup_reps then Prof.create ~ncpus:8 () else Prof.null
    in
    let cfg = { (r.Shapes.env_config st.kind ~seed:!seed) with W.Env.prof } in
    let t0 = Bspan.now_ns () in
    let body = r.Shapes.prepare ~seed:!seed in
    let env = W.Env.build cfg in
    let dt = Bspan.now_ns () -. t0 in
    samples := dt :: !samples;
    built := Some (env, body, prof)
  done;
  let env, body, prof = Option.get !built in
  setup_s := !setup_s +. (median !samples /. 1e9);
  if !traced then begin
    layers.build_calls <- layers.build_calls + List.length !samples;
    layers.build_ns <- List.fold_left ( +. ) layers.build_ns !samples
  end;
  Prof.reset prof;
  let eng = env.W.Env.eng in
  let spans = if !traced then Bspan.create ~ncpus:8 else Bspan.null in
  let counts = { attempts = 0; failed = 0 } in
  let env =
    {
      env with
      W.Env.backend =
        wrap_backend ~eng ~spans ~inject:!inject_alloc_ns counts env.W.Env.backend;
    }
  in
  Gc.full_major ();
  let n0 = slices.n in
  slices.slice_ns <- r.Shapes.slice_ns;
  slices.next <- r.Shapes.slice_ns;
  Sim.Engine.set_observer eng (Some (observe slices));
  let m0 = Gc.minor_words () in
  let t0 = Bspan.now_ns () in
  slices.last <- t0;
  let o = body env spans in
  let t1 = Bspan.now_ns () in
  let m1 = Gc.minor_words () in
  Sim.Engine.set_observer eng None;
  (* The tail after the last boundary, so a run's slices sum to its
     wall time. *)
  record slices t1;
  slice_counts := (slices.n - n0) :: !slice_counts;
  wall_s := !wall_s +. ((t1 -. t0) /. 1e9);
  st.wall_s <- st.wall_s +. ((t1 -. t0) /. 1e9);
  minor_words := !minor_words +. (m1 -. m0);
  st.events <- st.events + Sim.Engine.executed eng;
  st.sim_ns <- st.sim_ns + Sim.Engine.now eng;
  st.ops <- st.ops + o.Shapes.ops;
  st.ops_sim_ns <- st.ops_sim_ns + o.Shapes.sim_ns;
  st.counts.attempts <- st.counts.attempts + counts.attempts;
  st.counts.failed <- st.counts.failed + counts.failed;
  cache_totals st env;
  let rs = Rcu.stats env.W.Env.rcu in
  st.gps <- st.gps + rs.Rcu.gps_completed;
  let page = float_of_int (Mem.Buddy.page_size env.W.Env.buddy) in
  st.peak_used_mib <-
    Float.max st.peak_used_mib
      (float_of_int (Mem.Buddy.peak_used_pages env.W.Env.buddy)
      *. page /. 1048576.);
  st.oom <- st.oom || o.Shapes.oom;
  let label = W.Env.kind_label st.kind in
  let violations = W.Env.safety_violations env in
  st.problems <-
    st.problems
    @ List.map (fun p -> label ^ ": " ^ p) o.Shapes.problems
    @ List.map (fun v -> label ^ ": safety violation: " ^ v) violations;
  if !traced then begin
    layers.cascades <- layers.cascades + Sim.Engine.cascades eng;
    layers.max_backlog <- max layers.max_backlog rs.Rcu.max_backlog;
    collect_trace ~stack:label ~run:r.Shapes.run_name prof spans
  end

(* ------------------------------------------------------------------ *)
(* Per-layer figures (traced run)                                       *)
(* ------------------------------------------------------------------ *)

let per_layer ~events ~gps ~alloc_failed =
  let l = layers in
  let pi s = Prof.Span.index s in
  let calls s = l.p_calls.(pi s) in
  let self s = Float.Array.get l.p_self_ns (pi s) in
  let incl s = Float.Array.get l.p_incl_ns (pi s) in
  let words s = Float.Array.get l.p_words (pi s) in
  let per v n = if n = 0 then 0. else v /. float_of_int n in
  let ns_per s = per (self s) (calls s) in
  let bi s = Bspan.index s in
  let bcalls s = l.b_calls.(bi s) in
  let bself s = Float.Array.get l.b_self_ns (bi s) in
  let bincl s = Float.Array.get l.b_incl_ns (bi s) in
  let bwords s = Float.Array.get l.b_words (bi s) in
  let open Prof.Span in
  let sum spans = List.fold_left (fun a s -> a +. self s) 0. spans in
  let engine_own =
    sum [ Engine_schedule; Engine_wheel_advance; Engine_bucket_drain; Engine_heap_pop ]
  in
  let rcudata_ns =
    List.fold_left (fun a s -> a +. bself s) 0.
      Bspan.[ Hash_lookup; Hash_update; Hash_insert ]
  in
  let rcudata_words =
    List.fold_left (fun a s -> a +. bwords s) 0.
      Bspan.[ Hash_lookup; Hash_update; Hash_insert ]
  in
  (* The wrappers' own time: their inclusive time less the library's
     entry spans they call straight into. *)
  let wrapper_ns =
    Float.max 0.
      (bincl Bspan.Backend_alloc +. bincl Bspan.Backend_free
     +. bincl Bspan.Backend_free_deferred
      -. (incl Slab_alloc +. incl Slab_free +. incl Slab_defer
        +. incl Prudence_defer))
  in
  let workload_ns =
    Float.max 0. (self Engine_dispatch -. rcudata_ns -. wrapper_ns)
  in
  let total = l.prof_self_ns in
  let wall_ns = !wall_s *. 1e9 in
  [
    ("engine.events", float_of_int events);
    ("engine.schedule.ns_per_call", ns_per Engine_schedule);
    ("engine.wheel_advance.ns_per_call", ns_per Engine_wheel_advance);
    ("engine.bucket_drain.ns_per_call", ns_per Engine_bucket_drain);
    ("engine.self_share", engine_own /. Float.max 1. total);
    ("engine.cascades", float_of_int l.cascades);
    ("workload.self_ms", workload_ns /. 1e6);
    ( "workload.words_per_event",
      per (words Engine_dispatch -. rcudata_words) events );
    ("buddy.alloc.calls", float_of_int (calls Buddy_alloc));
    ("buddy.alloc.ns_per_call", ns_per Buddy_alloc);
    ("buddy.alloc.words_per_call", per (words Buddy_alloc) (calls Buddy_alloc));
    ("buddy.free.calls", float_of_int (calls Buddy_free));
    ("buddy.free.ns_per_call", ns_per Buddy_free);
    ("slab.alloc.calls", float_of_int (calls Slab_alloc));
    ("slab.alloc.ns_per_call", ns_per Slab_alloc);
    ("slab.alloc.failed", float_of_int alloc_failed);
    ("slab.free.ns_per_call", ns_per Slab_free);
    ("slab.free_deferred.ns_per_call", ns_per Slab_defer);
    ("slab.grow.calls", float_of_int (calls Slab_grow));
    ("slab.grow.ns_per_call", ns_per Slab_grow);
    ("slab.grow.words_per_call", per (words Slab_grow) (calls Slab_grow));
    ("slab.hit_ratio", per (float_of_int l.hits) l.slab_allocs);
    ("slab.ocache_churns", float_of_int l.ocache_churns);
    ("slab.slab_churns", float_of_int l.slab_churns);
    ("latq.push.calls", float_of_int (calls Latq_push));
    ("latq.push.ns_per_call", ns_per Latq_push);
    ("latq.push.words_per_call", per (words Latq_push) (calls Latq_push));
    ("latq.harvest.calls", float_of_int (calls Latq_harvest));
    ("latq.harvest.ns_per_call", ns_per Latq_harvest);
    ("prudence.defer.ns_per_call", ns_per Prudence_defer);
    ("prudence.scan.ns_per_call", ns_per Prudence_scan);
    ("prudence.merge_yield", per (float_of_int l.merged_objs) l.merges);
    ("rcu.gps", float_of_int gps);
    ("rcu.gp.ns_per_call", ns_per Rcu_gp);
    ("rcu.cb_drain.calls", float_of_int (calls Rcu_cb_drain));
    ("rcu.cb_drain.ns_per_call", ns_per Rcu_cb_drain);
    ("rcu.cb_drain.words_per_call", per (words Rcu_cb_drain) (calls Rcu_cb_drain));
    ("rcu.max_backlog", float_of_int l.max_backlog);
    ("rcu.qs.calls", float_of_int (calls Rcu_qs));
    ("rcudata.lookup.calls", float_of_int (bcalls Bspan.Hash_lookup));
    ( "rcudata.lookup.ns_per_call",
      per (bself Bspan.Hash_lookup) (bcalls Bspan.Hash_lookup) );
    ( "rcudata.lookup.words_per_call",
      per (bwords Bspan.Hash_lookup) (bcalls Bspan.Hash_lookup) );
    ( "rcudata.update.ns_per_call",
      per (bself Bspan.Hash_update) (bcalls Bspan.Hash_update) );
    (* The boundary's own time: the wrapper less the allocator's entry
       span it calls straight into. *)
    ( "backend.alloc.ns_per_call",
      per
        (Float.max 0. (bincl Bspan.Backend_alloc -. incl Slab_alloc))
        (bcalls Bspan.Backend_alloc) );
    ("env.build.ms_per_call", per l.build_ns l.build_calls /. 1e6);
    ("self_ms.engine", engine_own /. 1e6);
    ("self_ms.workload", workload_ns /. 1e6);
    ("self_ms.rcudata", rcudata_ns /. 1e6);
    ("self_ms.buddy", sum [ Buddy_alloc; Buddy_free ] /. 1e6);
    ("self_ms.slab", sum [ Slab_alloc; Slab_free; Slab_defer; Slab_grow ] /. 1e6);
    ("self_ms.latq", sum [ Latq_push; Latq_harvest ] /. 1e6);
    ("self_ms.rcu", sum [ Rcu_qs; Rcu_gp; Rcu_cb_drain ] /. 1e6);
    ( "self_ms.prudence",
      sum [ Prudence_defer; Prudence_scan; Prudence_flush ] /. 1e6 );
    ( "trace.unattributed_share",
      Float.max 0. (wall_ns -. total) /. Float.max 1. wall_ns );
    ("trace.truncated", float_of_int l.truncated);
    ("trace.unmatched_exits", float_of_int l.unmatched);
    ("trace.backend_alloc_share", bincl Bspan.Backend_alloc /. Float.max 1. total);
  ]

let write_spans ~path_prefix ~header =
  let oc = open_out (path_prefix ^ ".ndjson") in
  output_string oc header;
  output_char oc '\n';
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    (List.rev layers.span_lines);
  close_out oc;
  let oc = open_out (path_prefix ^ ".folded") in
  List.iter
    (fun (path, ns) ->
      let w = Float.round ns in
      if w > 0. then Printf.fprintf oc "%s %.0f\n" path w)
    (List.sort compare layers.folded);
  close_out oc

(* ------------------------------------------------------------------ *)

let () =
  Arg.parse spec (fun a -> raise (Arg.Bad a)) "pbench.exe --workload W --seed N";
  let w =
    match Shapes.find !workload with
    | Some w -> w
    | None ->
        prerr_endline ("pbench: unknown workload " ^ !workload);
        exit 2
  in
  let calib_ms = calibrate () in
  let stacks = List.map new_stack W.Env.all_kinds in
  List.iter (fun st -> List.iter (run_one st) w.Shapes.runs) stacks;
  let events = List.fold_left (fun a st -> a + st.events) 0 stacks in
  let attempts = List.fold_left (fun a st -> a + st.counts.attempts) 0 stacks in
  let failed = List.fold_left (fun a st -> a + st.counts.failed) 0 stacks in
  let heap_mb =
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1e6
  in
  let stack_json st =
    ( W.Env.kind_label st.kind,
      jobj
        [
          ( "counters",
            jobj
              [
                ("events", string_of_int st.events);
                ("sim_ns", string_of_int st.sim_ns);
                ("ops", string_of_int st.ops);
                ("allocs", string_of_int st.allocs);
                ("frees", string_of_int st.frees);
                ("deferred_frees", string_of_int st.deferred_frees);
                ("gps", string_of_int st.gps);
                ("alloc_attempts", string_of_int st.counts.attempts);
                ("alloc_failed", string_of_int st.counts.failed);
              ] );
          ( "sim_ops_per_s",
            jnum (float_of_int st.ops /. (float_of_int st.ops_sim_ns /. 1e9)) );
          ("sim_peak_used_mib", jnum st.peak_used_mib);
          ("wall_s", jnum st.wall_s);
          ("oom", string_of_bool st.oom);
        ] )
  in
  let problems = List.concat_map (fun st -> st.problems) stacks in
  let layer_fields =
    if !traced then
      let gps = List.fold_left (fun a st -> a + st.gps) 0 stacks in
      List.map
        (fun (k, v) -> (k, jnum v))
        (per_layer ~events ~gps ~alloc_failed:failed)
    else []
  in
  if !traced && !spans_out <> "" then
    write_spans ~path_prefix:!spans_out
      ~header:
        (jobj
           [
             ("type", jstr "run");
             ("workload", jstr w.Shapes.name);
             ("seed", string_of_int !seed);
             ("machine", !stamp);
             ("wall_s", jnum !wall_s);
             ("truncated", string_of_int layers.truncated);
             ("unmatched_exits", string_of_int layers.unmatched);
           ]);
  print_endline
    (jobj
       [
         ("workload", jstr w.Shapes.name);
         ("seed", string_of_int !seed);
         ("traced", string_of_bool !traced);
         ("calib_ms", jnum calib_ms);
         ("setup_s", jnum !setup_s);
         ("wall_s", jnum !wall_s);
         ("events", string_of_int events);
         ("minor_words", jnum !minor_words);
         ("peak_heap_mb", jnum heap_mb);
         ("slices", jlist (List.rev_map string_of_int !slice_counts));
         ( "slice_ms",
           jlist
             (List.init slices.n (fun i ->
                  Printf.sprintf "%.5g" (Float.Array.get slices.buf i))) );
         ("alloc_attempts", string_of_int attempts);
         ("alloc_failed", string_of_int failed);
         ("stacks", jobj (List.map stack_json stacks));
         ("problems", jlist (List.map jstr problems));
         ("layers", jobj layer_fields);
       ])
