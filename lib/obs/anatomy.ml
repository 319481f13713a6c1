(* The grace-period anatomy tracer + object-lineage flight recorder.

   One instance observes a whole environment through the engine's
   observation bus (Sim.Probe) and the truthful frontier hook, both pure
   observation — they read the virtual clock and mutate only their own
   state, never consume virtual time, and never schedule events — so a
   run with the recorder armed is byte-identical (in every deterministic
   counter) to one without. The off switch is the Prof.null pattern:
   {!null} has [enabled = false], subscribes to nothing, and every entry
   point is one load-and-branch.

   Phase attribution: each reclamation token (GP number / epoch / batch
   id) gets a record stamped at defer, detection request, detection
   start, and completion; each deferred object gets a lineage stamped at
   defer, harvest (free-pool entry) and reuse. At reuse the two are
   joined into the five-phase decomposition of {!Phase}, with each edge
   clamped to be monotone so per-object phase samples always sum exactly
   to the object's total defer->reuse latency. *)

type gp_record = {
  cookie : int;
  mutable defer_ns : int;  (* first defer issuing this token; -1 none *)
  mutable request_ns : int;  (* first detection request at/after issue *)
  mutable start_ns : int;  (* detection cycle actually began *)
  mutable complete_ns : int;  (* truthful frontier passed the token *)
  mutable first_qs_cpu : int;
  mutable first_qs_ns : int;
  mutable holdout_cpu : int;  (* last CPU to report before completion *)
  mutable holdout_ns : int;
  mutable objects : int;  (* objects deferred under this token *)
}

type lineage = {
  oid : int;
  l_cookie : int;
  l_deferred_ns : int;
  mutable l_pooled_ns : int;  (* harvested into a free pool; -1 pending *)
  mutable l_reused_ns : int;  (* handed to a new owner; -1 pending *)
}

type t = {
  enabled : bool;
  scheme : string;
  now : unit -> int;
  hists : Trace.Hist.t array;  (* one per Phase.t *)
  total : Trace.Hist.t;  (* defer->reuse, the sum identity's right side *)
  tokens : (int, gp_record) Hashtbl.t;
  mutable open_toks : gp_record list;  (* complete_ns < 0, newest first *)
  mutable awaiting_request : gp_record list;  (* request_ns < 0 *)
  completed_log : gp_record Trace.Ring.t;  (* completed, bounded *)
  lineages : (int, lineage) Hashtbl.t;  (* outstanding deferred objects *)
  recent_lineage : lineage Trace.Ring.t;  (* closed lineages, bounded *)
  mutable frontier : int;  (* truthful frontier last observed *)
  mutable defers : int;
  mutable reuses : int;
  mutable dropped : int;  (* reuses whose token record was missing *)
}

let completed_log_capacity = 1_024
let recent_lineage_capacity = 4_096

let make ~enabled ~scheme ~now =
  {
    enabled;
    scheme;
    now;
    hists = Array.init Phase.count (fun _ -> Trace.Hist.create ());
    total = Trace.Hist.create ();
    tokens = Hashtbl.create (if enabled then 256 else 1);
    open_toks = [];
    awaiting_request = [];
    completed_log = Trace.Ring.create ~capacity:completed_log_capacity;
    lineages = Hashtbl.create (if enabled then 256 else 1);
    recent_lineage = Trace.Ring.create ~capacity:recent_lineage_capacity;
    frontier = 0;
    defers = 0;
    reuses = 0;
    dropped = 0;
  }

let create ~scheme ~now () = make ~enabled:true ~scheme ~now
let null = make ~enabled:false ~scheme:"null" ~now:(fun () -> 0)
let enabled t = t.enabled
let scheme t = t.scheme

(* {1 Observation entry points} *)

let note_defer t ~oid ~cookie =
  if t.enabled then begin
    let now = t.now () in
    t.defers <- t.defers + 1;
    (match Hashtbl.find_opt t.tokens cookie with
    | Some r -> r.objects <- r.objects + 1
    | None ->
        let r =
          {
            cookie;
            defer_ns = now;
            request_ns = -1;
            start_ns = -1;
            complete_ns = -1;
            first_qs_cpu = -1;
            first_qs_ns = -1;
            holdout_cpu = -1;
            holdout_ns = -1;
            objects = 1;
          }
        in
        Hashtbl.replace t.tokens cookie r;
        if cookie <= t.frontier then begin
          (* Token already ripe at defer (frontier-corrupting mutants or
             an instant scheme): complete immediately, no open window. *)
          r.complete_ns <- now;
          Trace.Ring.push t.completed_log r
        end
        else begin
          t.open_toks <- r :: t.open_toks;
          t.awaiting_request <- r :: t.awaiting_request
        end);
    Hashtbl.replace t.lineages oid
      { oid; l_cookie = cookie; l_deferred_ns = now; l_pooled_ns = -1;
        l_reused_ns = -1 }
  end

let note_request t =
  if t.enabled && t.awaiting_request <> [] then begin
    let now = t.now () in
    List.iter
      (fun r -> if r.request_ns < 0 then r.request_ns <- now)
      t.awaiting_request;
    t.awaiting_request <- []
  end

(* A detection cycle began for one specific token (RCU GP number,
   Hyaline batch seal). *)
let note_start t ~token =
  if t.enabled then
    match Hashtbl.find_opt t.tokens token with
    | Some r when r.start_ns < 0 && r.complete_ns < 0 ->
        r.start_ns <- t.now ()
    | Some _ | None -> ()

(* A detection cycle began for every open token at once (EBR: an
   advancement attempt scans on behalf of all outstanding epochs). *)
let note_start_open t =
  if t.enabled then begin
    let now = t.now () in
    List.iter
      (fun r -> if r.start_ns < 0 then r.start_ns <- now)
      t.open_toks
  end

(* [cpu] reported progress for every started open token: a QS report, a
   blocking stale announcement, or a batch-ref decrement. The last
   report standing when the token completes is its holdout. *)
let note_qs t ~cpu =
  if t.enabled then begin
    let now = t.now () in
    List.iter
      (fun r ->
        if r.start_ns >= 0 then begin
          if r.first_qs_ns < 0 then begin
            r.first_qs_cpu <- cpu;
            r.first_qs_ns <- now
          end;
          r.holdout_cpu <- cpu;
          r.holdout_ns <- now
        end)
      t.open_toks
  end

let note_complete t ~frontier =
  if t.enabled && frontier > t.frontier then begin
    t.frontier <- frontier;
    let now = t.now () in
    t.open_toks <-
      List.filter
        (fun r ->
          if r.cookie <= frontier then begin
            r.complete_ns <- now;
            Trace.Ring.push t.completed_log r;
            false
          end
          else true)
        t.open_toks;
    t.awaiting_request <-
      List.filter (fun r -> r.complete_ns < 0) t.awaiting_request
  end

(* Clamped five-edge decomposition: a missing stamp inherits the previous
   edge (zero-width phase), so the five samples sum exactly to total. *)
let record_phases t (ln : lineage) ~reused_ns =
  match Hashtbl.find_opt t.tokens ln.l_cookie with
  | None -> t.dropped <- t.dropped + 1
  | Some r ->
      let lift prev v = if v < 0 then prev else max prev v in
      let e0 = ln.l_deferred_ns in
      let e1 = lift e0 r.request_ns in
      let e2 = lift e1 r.start_ns in
      let e3 = lift e2 r.complete_ns in
      let e4 = lift e3 ln.l_pooled_ns in
      let e5 = lift e4 reused_ns in
      Trace.Hist.record t.hists.(Phase.(index Defer_to_request)) (e1 - e0);
      Trace.Hist.record t.hists.(Phase.(index Request_to_start)) (e2 - e1);
      Trace.Hist.record t.hists.(Phase.(index Qs_collection)) (e3 - e2);
      Trace.Hist.record t.hists.(Phase.(index Complete_to_harvest)) (e4 - e3);
      Trace.Hist.record t.hists.(Phase.(index Harvest_to_reuse)) (e5 - e4);
      Trace.Hist.record t.total (e5 - e0)

let note_pool t ~oid =
  if t.enabled then
    match Hashtbl.find_opt t.lineages oid with
    | Some ln when ln.l_pooled_ns < 0 -> ln.l_pooled_ns <- t.now ()
    | Some _ | None -> ()

let note_alloc t ~oid =
  if t.enabled then
    match Hashtbl.find_opt t.lineages oid with
    | None -> ()
    | Some ln ->
        let now = t.now () in
        ln.l_reused_ns <- now;
        t.reuses <- t.reuses + 1;
        record_phases t ln ~reused_ns:now;
        Hashtbl.remove t.lineages oid;
        Trace.Ring.push t.recent_lineage ln

(* The object died with its page (never reused): close the lineage
   without a reuse edge so the bundle can still show it. *)
let note_page_release t ~oid =
  if t.enabled then
    match Hashtbl.find_opt t.lineages oid with
    | None -> ()
    | Some ln ->
        Hashtbl.remove t.lineages oid;
        Trace.Ring.push t.recent_lineage ln

(* {1 Wiring} *)

(* Detection edges name their scheme: RCU grace periods run under every
   stack (epoch-backed ones still [call_rcu]), so a recorder only stamps
   tokens from [Gp_*] edges when RCU is the scheme it measures. *)
let subscribe t ~rcu probe =
  if t.enabled then
    Sim.Probe.subscribe probe
      ([
         Sim.Probe.Obj_alloc; Obj_defer; Obj_pool; Obj_page_release;
         Smr_request; Epoch_scan; Epoch_blocked; Batch_seal; Batch_unref;
       ]
      @ if rcu then [ Gp_request; Gp_start; Gp_qs ] else [])
      (fun edge ~cpu ~a ~b ->
        match edge with
        | Obj_alloc -> note_alloc t ~oid:a
        | Obj_defer -> note_defer t ~oid:a ~cookie:b
        | Obj_pool -> note_pool t ~oid:a
        | Obj_page_release -> note_page_release t ~oid:a
        | Gp_request | Smr_request -> note_request t
        | Gp_start | Batch_seal -> note_start t ~token:a
        | Epoch_scan -> note_start_open t
        | Gp_qs | Epoch_blocked | Batch_unref -> note_qs t ~cpu
        | _ -> ())

let observe_frontier t (smr : Slab.Smr.t) =
  if t.enabled then
    smr.Slab.Smr.on_ripen (fun f -> note_complete t ~frontier:f)

(* {1 Results} *)

let phase_hist t p = t.hists.(Phase.index p)
let total_hist t = t.total
let defers t = t.defers
let reuses t = t.reuses
let dropped t = t.dropped
let frontier t = t.frontier

let find_gp t cookie = Hashtbl.find_opt t.tokens cookie

let completed_gps t n = Trace.Ring.recent t.completed_log n

(* Worst completed grace period by detection-cycle span (start ->
   complete): the one whose holdout CPU cost the most. *)
let worst_gp t =
  let best = ref None in
  Trace.Ring.iter t.completed_log (fun r ->
      if r.start_ns >= 0 && r.complete_ns >= 0 then
        let span = r.complete_ns - r.start_ns in
        match !best with
        | Some (_, s) when s >= span -> ()
        | _ -> best := Some (r, span));
  Option.map fst !best

let lineage_of t ~oid =
  match Hashtbl.find_opt t.lineages oid with
  | Some ln -> Some ln
  | None ->
      let found = ref None in
      (* Newest first: the most recent incarnation of a reused oid. *)
      Trace.Ring.iter_rev t.recent_lineage (fun ln ->
          if !found = None && ln.oid = oid then found := Some ln);
      !found

let recent_lineages t n = Trace.Ring.recent t.recent_lineage n
