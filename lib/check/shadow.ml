type state = Live | Deferred of int | Ripe | Reclaimed

let pp_state ppf = function
  | Live -> Format.fprintf ppf "live"
  | Deferred c -> Format.fprintf ppf "deferred(gp %d)" c
  | Ripe -> Format.fprintf ppf "ripe"
  | Reclaimed -> Format.fprintf ppf "reclaimed"

(* Coverage tags; 5 = page released while tracked. *)
let tag = function
  | None -> 0
  | Some Live -> 1
  | Some (Deferred _) -> 2
  | Some Ripe -> 3
  | Some Reclaimed -> 4

let tag_gone = 5

type kind =
  | Early_reuse of { cookie : int; completed : int }
  | Use_after_reclaim of { cpu : int }
  | Page_reuse of { cookie : int; completed : int }
  | Bad_transition of { from : state option; event : string }

type violation = { at_ns : int; oid : int; kind : kind }

let describe v =
  let base = Printf.sprintf "[%d ns] object %d: " v.at_ns v.oid in
  base
  ^
  match v.kind with
  | Early_reuse { cookie; completed } ->
      Printf.sprintf
        "entered a free pool waiting for grace period %d, but only %d had \
         completed (early reuse)"
        cookie completed
  | Use_after_reclaim { cpu } ->
      Printf.sprintf "reader on cpu%d dereferenced it after reclaim" cpu
  | Page_reuse { cookie; completed } ->
      Printf.sprintf
        "its page returned to the buddy allocator while it still waited \
         for grace period %d (only %d completed): premature page reuse"
        cookie completed
  | Bad_transition { from; event } ->
      let from_s =
        match from with
        | None -> "never-seen"
        | Some s -> Format.asprintf "%a" pp_state s
      in
      Printf.sprintf "%s while %s (bad lifecycle transition)" event from_s

let pp_violation ppf v = Format.pp_print_string ppf (describe v)

(* Bound the log so a badly mutated run inside a long fuzz session cannot
   grow memory without bound: first K violations kept, the rest counted. *)
let max_logged_violations = 64

type t = {
  machine : Sim.Machine.t;
  smr : Slab.Smr.t;  (* the truthful reclamation view, never the mutated one *)
  prof : Prof.t;
  page_reuse : bool;
  early_reuse : bool;
  coverage : Coverage.t option;
  states : (int, state) Hashtbl.t;
  mutable violation_log : violation list; (* reversed; first K kept *)
  mutable logged : int;
  mutable dropped : int;
  mutable events : int;
}

let now t = Sim.Engine.now (Sim.Machine.engine t.machine)

let flag t ~oid kind =
  if t.logged < max_logged_violations then begin
    t.violation_log <- { at_ns = now t; oid; kind } :: t.violation_log;
    t.logged <- t.logged + 1
  end
  else t.dropped <- t.dropped + 1

let state t ~oid = Hashtbl.find_opt t.states oid

let set t oid st =
  (match t.coverage with
  | Some cov ->
      Coverage.note_transition cov
        ~from_tag:(tag (state t ~oid))
        ~to_tag:(tag (Some st))
  | None -> ());
  Hashtbl.replace t.states oid st

(* A mutator received the object. Legal from: fresh (grow carves objects
   straight onto the slab freelist, no pool probe), a free pool, or ripe
   (merge pools it first, but be tolerant of direct handoff). *)
let on_alloc t ~oid =
  t.events <- t.events + 1;
  (match state t ~oid with
  | Some (Live | Deferred _) as from ->
      flag t ~oid (Bad_transition { from; event = "allocated" })
  | Some (Ripe | Reclaimed) | None -> ());
  set t oid Live

let on_free t ~oid =
  t.events <- t.events + 1;
  match state t ~oid with
  | Some Live -> () (* pool entry (on_pool) performs the state change *)
  | (Some (Deferred _ | Ripe | Reclaimed) | None) as from ->
      flag t ~oid (Bad_transition { from; event = "freed" })

let on_defer t ~oid ~cookie =
  t.events <- t.events + 1;
  (match state t ~oid with
  | Some Live -> ()
  | (Some (Deferred _ | Ripe | Reclaimed) | None) as from ->
      flag t ~oid (Bad_transition { from; event = "defer-freed" }));
  set t oid (Deferred cookie)

(* The reuse boundary: the object is entering an object cache or slab
   freelist. If it is still waiting for a grace period, consult the live
   RCU state (not the promotion hook, whose registration order vs. other
   GP hooks must not matter): pooling before completion is THE bug class
   this oracle exists for. *)
let on_pool t ~oid =
  t.events <- t.events + 1;
  (* Pool-to-pool moves (refill: slab freelist -> object cache; flush:
     the reverse) re-enter here from [Reclaimed]; that is legal. *)
  (match state t ~oid with
  | Some (Deferred c) when t.early_reuse && not (Slab.Smr.ripe t.smr c) ->
      flag t ~oid
        (Early_reuse { cookie = c; completed = t.smr.Slab.Smr.ripe_upto () })
  | Some (Live | Deferred _ | Ripe | Reclaimed) | None -> ());
  set t oid Reclaimed

(* The page-level reuse boundary: the slab's page is going back to the
   buddy allocator. Any object on it still inside its grace period means
   the page can be re-carved and handed out while readers may still hold
   pointers into it — distinct from (and invisible to) the object-level
   early-reuse check, because the object never re-enters a free pool. *)
let on_page_release t ~oid ~cookie =
  t.events <- t.events + 1;
  (if t.page_reuse then
     match state t ~oid with
     | Some (Deferred c) when not (Slab.Smr.ripe t.smr c) ->
         flag t ~oid
           (Page_reuse { cookie = c; completed = t.smr.Slab.Smr.ripe_upto () })
     | Some (Live | Deferred _ | Ripe | Reclaimed) | None ->
         (* Deferred-and-ripe (grace period done, harvest pending) is
            safe; cross-check the frame's stamp for never-seen oids. *)
         if (not (Slab.Smr.ripe t.smr cookie)) && state t ~oid = None then
           flag t ~oid
             (Page_reuse { cookie; completed = t.smr.Slab.Smr.ripe_upto () }));
  (match t.coverage with
  | Some cov ->
      Coverage.note_transition cov ~from_tag:(tag (state t ~oid))
        ~to_tag:tag_gone
  | None -> ());
  (* The page is gone; the oid will never be seen again. *)
  Hashtbl.remove t.states oid

let on_reader_access t ~cpu ~oid =
  t.events <- t.events + 1;
  match state t ~oid with
  | Some Reclaimed -> flag t ~oid (Use_after_reclaim { cpu })
  | Some (Live | Deferred _ | Ripe) | None -> ()

let on_gp_complete t completed =
  (* Promote every deferred object whose reclamation token just ripened.
     Collect first: replacing bindings mid-iteration is unspecified. *)
  let ripe = ref [] in
  Hashtbl.iter
    (fun oid st ->
      match st with
      | Deferred c when c <= completed -> ripe := oid :: !ripe
      | _ -> ())
    t.states;
  List.iter (fun oid -> set t oid Ripe) !ripe

let install ?(page_reuse = true) ?(early_reuse = true) ?coverage
    (env : Workloads.Env.t) =
  let t =
    {
      machine = env.Workloads.Env.machine;
      smr = env.Workloads.Env.smr;
      prof = env.Workloads.Env.prof;
      page_reuse;
      early_reuse;
      coverage;
      states = Hashtbl.create 4096;
      violation_log = [];
      logged = 0;
      dropped = 0;
      events = 0;
    }
  in
  (* One handler for every watched edge, under the [check.probe] span so
     oracle overhead shows up in the prof tables next to the paths it
     rides on; on [Prof.null] each enter/exit is one load and branch. *)
  let prof = t.prof in
  Sim.Probe.subscribe
    (Sim.Engine.probe (Sim.Machine.engine t.machine))
    [ Obj_alloc; Obj_free; Obj_defer; Obj_pool; Obj_page_release; Reader_hold ]
    (fun edge ~cpu ~a ~b ->
      Prof.enter prof ~cpu:(-1) Prof.Span.Check_probe;
      (match edge with
      | Obj_alloc -> on_alloc t ~oid:a
      | Obj_free -> on_free t ~oid:a
      | Obj_defer -> on_defer t ~oid:a ~cookie:b
      | Obj_pool -> on_pool t ~oid:a
      | Obj_page_release -> on_page_release t ~oid:a ~cookie:b
      | Reader_hold -> on_reader_access t ~cpu ~oid:a
      | _ -> ());
      Prof.exit prof Prof.Span.Check_probe);
  t.smr.Slab.Smr.on_ripen (fun frontier -> on_gp_complete t frontier);
  t

let violations t = List.rev t.violation_log
let violation_count t = t.logged
let dropped_violations t = t.dropped
let tracked t = Hashtbl.length t.states
let events t = t.events

let counts t =
  let live = ref 0 and def = ref 0 and ripe = ref 0 and rec_ = ref 0 in
  Hashtbl.iter
    (fun _ st ->
      match st with
      | Live -> incr live
      | Deferred _ -> incr def
      | Ripe -> incr ripe
      | Reclaimed -> incr rec_)
    t.states;
  (!live, !def, !ripe, !rec_)
