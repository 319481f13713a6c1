type grow_retry_policy = { max_retries : int; base_backoff_ns : int }

type env = {
  machine : Sim.Machine.t;
  buddy : Mem.Buddy.t;
  pressure : Mem.Pressure.t option;
  costs : Costs.t;
  page_lock : Sim.Simlock.t;
      (* The page allocator's zone lock: every slab grow/shrink serializes
         here (with a hold that grows with the slab order, modelling page
         zeroing and higher-order assembly). This is the contention that
         makes the baseline collapse at large object sizes (Fig. 6). *)
  probe : Sim.Probe.t;
  mutable grow_retry : grow_retry_policy option;
  mutable debug_checks : bool;
  mutable unsafe_destroy_latent : bool;
  mutable next_oid : int;
  mutable next_sid : int;
}

let make_env ?pressure ?(costs = Costs.default) ?(debug_checks = true) machine
    buddy =
  let probe = Sim.Engine.probe (Sim.Machine.engine machine) in
  {
    machine;
    buddy;
    pressure;
    costs;
    page_lock =
      Sim.Simlock.create ~label:(Sim.Probe.intern probe "page-allocator");
    probe;
    grow_retry = None;
    debug_checks;
    unsafe_destroy_latent = false;
    next_oid = 0;
    next_sid = 0;
  }

type ostate =
  | Free_in_slab
  | In_object_cache
  | Allocated
  | In_latent_cache
  | In_latent_slab

let pp_ostate fmt s =
  Format.pp_print_string fmt
    (match s with
    | Free_in_slab -> "free-in-slab"
    | In_object_cache -> "in-object-cache"
    | Allocated -> "allocated"
    | In_latent_cache -> "in-latent-cache"
    | In_latent_slab -> "in-latent-slab")

type list_id = L_full | L_partial | L_free | L_unlinked

let pp_list_id fmt l =
  Format.pp_print_string fmt
    (match l with
    | L_full -> "full"
    | L_partial -> "partial"
    | L_free -> "free"
    | L_unlinked -> "unlinked")

type objekt = {
  oid : int;
  parent : slab;
  mutable ostate : ostate;
  mutable gp_cookie : int;
  mutable touched : bool;
}

and slab = {
  sid : int;
  color : int;
  node_id : int;
  cache : cache;
  block : Mem.Buddy.block;
  capacity : int;
  mutable free_objs : objekt array;
      (* Free stack: slots [0, free_n), top at [free_n - 1]. Slots above
         hold stale entries; the array has [capacity] slots. *)
  mutable free_n : int;
  mutable latent_objs : objekt Latq.t;
      (* The cache's shared, always-empty [no_latent] until the slab first
         holds a latent object; then its own, kept for reuse. *)
  mutable latent_n : int;
  mutable in_flight : int;
  mutable on_list : list_id;
  mutable link : slab Sim.Dlist.node;
      (* Made once at grow; re-linked on every node-list move. *)
  mutable latent_link : slab Sim.Dlist.node;
      (* [Sim.Dlist.none] until the slab first holds a latent object. *)
}

and node = {
  nid : int;
  lock : Sim.Simlock.t;
  full : slab Sim.Dlist.t;
  partial : slab Sim.Dlist.t;
  free_slabs : slab Sim.Dlist.t;
  latent_slabs : slab Sim.Dlist.t;
      (* Slabs currently holding latent objects, oldest first: Prudence
         harvests ripe objects from the front after grace periods. *)
}

and pcpu = {
  cpu : Sim.Machine.cpu;
  mutable ocache : objekt array;
      (* Stack: slots [0, ocache_n), top at [ocache_n - 1]; grows by
         doubling, never shrinks. *)
  mutable ocache_n : int;
  latent : objekt Latq.Fifo.t;
  mutable preflush_scheduled : bool;
  mutable idle_task : unit -> unit;
  mutable recent_allocs : int;
  mutable recent_releases : int;
}

and cache = {
  name : string;
  label : int;  (* [name] interned on the probe *)
  obj_size : int;
  order : int;
  objs_per_slab : int;
  ocache_cap : int;
  batch : int;
  latent_aware : bool;
  latent_cap : int;
  env : env;
  nodes : node array;
  pcpus : pcpu array;
  stats : Slab_stats.t;
  mutable color_next : int;
  mutable total_slabs : int;
  mutable live_objs : int;
  mutable latent_count : int;
  mutable free_target : (unit -> int) option;
  flush_nodes : int array;
      (* Scratch for [flush_to_node]: ids of the nodes it has locked. *)
  no_latent : objekt Latq.t;
      (* Never pushed: stands in for the latent list of every slab that
         has not held a latent object (all of them, under SLUB). *)
}

exception Slab_oom of string

let no_task () = ()

let create_cache env ~name ~obj_size ?(latent_aware = false) ?latent_cap () =
  if obj_size <= 0 then invalid_arg "Frame.create_cache: obj_size";
  let page_size = Mem.Buddy.page_size env.buddy in
  let order = Size_class.slab_order ~obj_size ~page_size in
  let capacity = Size_class.object_cache_capacity ~obj_size in
  let intern = Sim.Probe.intern env.probe in
  let nodes =
    Array.init (Sim.Machine.nr_nodes env.machine) (fun nid ->
        let lock_label = intern (Printf.sprintf "%s/node%d" name nid) in
        {
          nid;
          lock = Sim.Simlock.create ~label:lock_label;
          full = Sim.Dlist.create ();
          partial = Sim.Dlist.create ();
          free_slabs = Sim.Dlist.create ();
          latent_slabs = Sim.Dlist.create ();
        })
  in
  let pcpus =
    Array.map
      (fun cpu ->
        {
          cpu;
          ocache = [||];
          ocache_n = 0;
          latent = Latq.Fifo.create ();
          preflush_scheduled = false;
          idle_task = no_task;
          recent_allocs = 0;
          recent_releases = 0;
        })
      (Sim.Machine.cpus env.machine)
  in
  {
    name;
    label = intern name;
    obj_size;
    order;
    objs_per_slab = Size_class.objs_per_slab ~obj_size ~page_size ~order;
    ocache_cap = capacity;
    batch = Size_class.batch_count ~capacity;
    latent_aware;
    latent_cap = (match latent_cap with Some c -> c | None -> capacity);
    env;
    nodes;
    pcpus;
    stats = Slab_stats.create ();
    color_next = 0;
    total_slabs = 0;
    live_objs = 0;
    latent_count = 0;
    free_target = None;
    flush_nodes = Array.make (Array.length nodes) 0;
    no_latent = Latq.create ();
  }

let slab_bytes cache = Mem.Buddy.page_size cache.env.buddy lsl cache.order
let node_for cache (cpu : Sim.Machine.cpu) = cache.nodes.(cpu.node)
let pcpu_for cache (cpu : Sim.Machine.cpu) = cache.pcpus.(cpu.id)

let live_objects cache = cache.live_objs
let total_slabs cache = cache.total_slabs

let latent_total cache = cache.latent_count

let set_free_target cache fn = cache.free_target <- Some fn

(* How many free slabs a node keeps before shrinking: the policy's demand
   estimate (Prudence) or the static threshold (baseline). *)
let keep_free_target cache =
  match cache.free_target with
  | None -> Size_class.min_free_slabs
  | Some f -> max Size_class.min_free_slabs (f ())

let latent_total_slow cache =
  let in_caches =
    Array.fold_left
      (fun acc pc -> acc + Latq.Fifo.length pc.latent)
      0 cache.pcpus
  in
  let in_slabs = ref 0 in
  Array.iter
    (fun node ->
      let count s = in_slabs := !in_slabs + s.latent_n in
      Sim.Dlist.iter count node.full;
      Sim.Dlist.iter count node.partial;
      Sim.Dlist.iter count node.free_slabs)
    cache.nodes;
  in_caches + !in_slabs

let fragmentation cache =
  if cache.live_objs = 0 then nan
  else
    float_of_int (cache.total_slabs * slab_bytes cache)
    /. float_of_int (cache.live_objs * cache.obj_size)

let truly_free slab = slab.free_n = slab.capacity

let now cache = Sim.Engine.now (Sim.Machine.engine cache.env.machine)
let prof cache = Sim.Machine.prof cache.env.machine

let emit cache (cpu : Sim.Machine.cpu) edge b =
  Sim.Probe.emit cache.env.probe edge ~cpu:cpu.id ~a:cache.label ~b

(* Every simulated lock acquisition in the frame: take [l] and report it,
   plus the wait when it was busy. Returns the delay without charging it. *)
let acquire cache (cpu : Sim.Machine.cpu) l ~hold =
  let delay = Sim.Simlock.acquire l ~now:(now cache) ~hold in
  let probe = cache.env.probe and label = Sim.Simlock.label l in
  Sim.Probe.emit probe Lock_acquire ~cpu:cpu.id ~a:label ~b:0;
  let wait = delay - hold in
  if wait > 0 then
    Sim.Probe.emit probe Lock_contended ~cpu:cpu.id ~a:label ~b:wait;
  delay

let node_lock_delay cache cpu node =
  acquire cache cpu node.lock ~hold:cache.env.costs.node_lock_hold

let lock_node cache cpu node =
  Sim.Machine.consume cpu (node_lock_delay cache cpu node)

let lock_pages cache (cpu : Sim.Machine.cpu) =
  let costs = cache.env.costs in
  (* Higher-order page allocations cost superlinearly more: zeroing is
     linear in pages, but assembling/splitting large contiguous blocks
     under load (buddy traversal, compaction, reclaim) grows with the
     order as well — the reason order-3 slab churn is so punishing in the
     paper's Fig. 6. *)
  let pages = 1 lsl cache.order in
  let hold =
    costs.page_lock_hold + (costs.page_zero_per_page * pages * max 1 (pages / 2))
  in
  Sim.Machine.consume cpu (acquire cache cpu cache.env.page_lock ~hold)

let list_of cache ~node_id = cache.nodes.(node_id)

let dlist_for node = function
  | L_full -> node.full
  | L_partial -> node.partial
  | L_free -> node.free_slabs
  | L_unlinked -> invalid_arg "Frame.dlist_for: unlinked"

let unlink cache slab =
  if slab.on_list <> L_unlinked then begin
    let node = list_of cache ~node_id:slab.node_id in
    Sim.Dlist.remove (dlist_for node slab.on_list) slab.link;
    slab.on_list <- L_unlinked
  end

let link cache slab target =
  let dl = dlist_for (list_of cache ~node_id:slab.node_id) target in
  (* Selectors scan from the front: slabs with allocatable objects go to
     the front, while pre-moved all-latent slabs (free only after their
     grace period) queue at the back. *)
  if slab.free_n > 0 then Sim.Dlist.link_front dl slab.link
  else Sim.Dlist.link_back dl slab.link;
  slab.on_list <- target

let desired_list slab =
  let c = slab.cache in
  if slab.free_n = slab.capacity then L_free
  else if c.latent_aware && slab.in_flight = 0 then
    (* Every object is free or deferred: the slab is certain to become
       fully free after the grace period (pre-movement, Algorithm 1 l.56). *)
    L_free
  else if slab.free_n = 0 && c.latent_aware && slab.latent_n > 0 then
    (* Full slab with deferred objects: it will soon have free objects
       (pre-movement, Algorithm 1 l.54). *)
    L_partial
  else if slab.free_n = 0 then L_full
  else L_partial

let relocate cache slab =
  let target = desired_list slab in
  if target = slab.on_list then false
  else begin
    unlink cache slab;
    link cache slab target;
    true
  end

let take_free_obj slab =
  if slab.free_n = 0 then invalid_arg "Frame.take_free_obj: no free object";
  let n = slab.free_n - 1 in
  slab.free_n <- n;
  slab.in_flight <- slab.in_flight + 1;
  slab.free_objs.(n)

(* The two entry points to the free pool: anything the shadow-heap oracle
   must vet (a deferred object becoming reusable) passes through one of
   these, whichever allocator policy drives it. *)
let probe_pool env obj =
  Sim.Probe.emit env.probe Obj_pool ~cpu:(-1) ~a:obj.oid ~b:obj.gp_cookie

let put_free_obj slab obj =
  assert (obj.parent == slab);
  probe_pool slab.cache.env obj;
  obj.ostate <- Free_in_slab;
  slab.free_objs.(slab.free_n) <- obj;
  slab.free_n <- slab.free_n + 1;
  slab.in_flight <- slab.in_flight - 1

let iter_free_objs f slab =
  for i = 0 to slab.free_n - 1 do
    f slab.free_objs.(i)
  done

let push_ocache cache pc obj =
  probe_pool cache.env obj;
  obj.ostate <- In_object_cache;
  let cap = Array.length pc.ocache in
  if pc.ocache_n = cap then begin
    let a = Array.make (max 16 (2 * cap)) obj in
    Array.blit pc.ocache 0 a 0 cap;
    pc.ocache <- a
  end;
  pc.ocache.(pc.ocache_n) <- obj;
  pc.ocache_n <- pc.ocache_n + 1

(* Allocation-free fast path: callers check [pc.ocache_n > 0] first. *)
let pop_ocache_exn pc =
  if pc.ocache_n = 0 then invalid_arg "Frame.pop_ocache_exn: empty object cache";
  let n = pc.ocache_n - 1 in
  pc.ocache_n <- n;
  pc.ocache.(n)

let pop_ocache pc = if pc.ocache_n = 0 then None else Some (pop_ocache_exn pc)

let iter_ocache f pc =
  for i = 0 to pc.ocache_n - 1 do
    f pc.ocache.(i)
  done

(* ceil(log2(used/llc)), capped: how many times the resident footprint has
   doubled past the last-level cache. *)
let footprint_doublings cache =
  let costs = cache.env.costs in
  let used = Mem.Buddy.used_bytes cache.env.buddy in
  if used <= costs.Costs.llc_bytes then 0
  else begin
    let d = ref 0 in
    let x = ref (used / costs.Costs.llc_bytes) in
    while !x > 1 && !d < 4 do
      x := !x lsr 1;
      incr d
    done;
    !d
  end

let hand_to_user cache (cpu : Sim.Machine.cpu) obj =
  Sim.Probe.emit cache.env.probe Obj_alloc ~cpu:cpu.id ~a:obj.oid
    ~b:obj.gp_cookie;
  (* Working sets beyond the LLC make every object touch a cache/TLB miss;
     an allocator that leaks its reclamation backlog pays this on every
     allocation. *)
  let doublings = footprint_doublings cache in
  if doublings > 0 then
    Sim.Machine.consume cpu (doublings * cache.env.costs.Costs.llc_pressure);
  (* First use of this object's memory: the mutator takes cache/TLB misses
     writing it. Recycled objects are hot. *)
  if not obj.touched then begin
    obj.touched <- true;
    let costs = cache.env.costs in
    Sim.Machine.consume cpu
      (costs.Costs.cold_touch
      + (cache.obj_size / 256 * costs.Costs.cold_touch_per_256b))
  end;
  obj.ostate <- Allocated;
  cache.live_objs <- cache.live_objs + 1

(* Probes fire before the state asserts so a deliberately broken caller
   (mutation self-tests: double free, double defer) reaches the oracle
   before the simulation aborts. *)
let release_from_user cache obj =
  Sim.Probe.emit cache.env.probe Obj_free ~cpu:(-1) ~a:obj.oid
    ~b:obj.gp_cookie;
  assert (obj.ostate = Allocated);
  cache.live_objs <- cache.live_objs - 1;
  ignore obj

let stamp_deferred cache obj ~cookie =
  Sim.Probe.emit cache.env.probe Obj_defer ~cpu:(-1) ~a:obj.oid ~b:cookie;
  assert (obj.ostate = Allocated);
  obj.gp_cookie <- cookie;
  cache.live_objs <- cache.live_objs - 1

let obj_to_latent_cache cache pc obj =
  Prof.enter (prof cache) ~cpu:pc.cpu.Sim.Machine.id Prof.Span.Latq_push;
  obj.ostate <- In_latent_cache;
  cache.latent_count <- cache.latent_count + 1;
  Latq.Fifo.push_back pc.latent ~cookie:obj.gp_cookie obj;
  Prof.exit (prof cache) Prof.Span.Latq_push

let obj_to_latent_slab cache obj =
  Prof.enter (prof cache) ~cpu:(-1) Prof.Span.Latq_push;
  let slab = obj.parent in
  obj.ostate <- In_latent_slab;
  cache.latent_count <- cache.latent_count + 1;
  if slab.latent_objs == cache.no_latent then
    slab.latent_objs <- Latq.create ();
  Latq.push slab.latent_objs ~cookie:obj.gp_cookie obj;
  slab.latent_n <- slab.latent_n + 1;
  slab.in_flight <- slab.in_flight - 1;
  if not (Sim.Dlist.linked slab.latent_link) then begin
    if Sim.Dlist.is_none slab.latent_link then
      slab.latent_link <- Sim.Dlist.node slab;
    Sim.Dlist.link_back cache.nodes.(slab.node_id).latent_slabs
      slab.latent_link
  end;
  Prof.exit (prof cache) Prof.Span.Latq_push

let latent_cache_pop_ripe cache pc ~completed =
  match Latq.Fifo.pop_front_ripe pc.latent ~completed with
  | Some obj ->
      cache.latent_count <- cache.latent_count - 1;
      Some obj
  | None -> None

let merge_into_ocache pc obj = push_ocache obj.parent.cache pc obj

let latent_cache_merge_ripe cache pc ~completed ~limit =
  Prof.enter (prof cache) ~cpu:pc.cpu.Sim.Machine.id Prof.Span.Latq_harvest;
  let n =
    Latq.Fifo.merge_ripe pc.latent ~completed ~limit ~f:merge_into_ocache pc
  in
  cache.latent_count <- cache.latent_count - n;
  Prof.exit (prof cache) Prof.Span.Latq_harvest;
  n

let latent_cache_pop_newest cache pc =
  let obj = Latq.Fifo.pop_back_exn pc.latent in
  cache.latent_count <- cache.latent_count - 1;
  obj

let unlink_latent slab =
  if Sim.Dlist.linked slab.latent_link then
    Sim.Dlist.remove slab.cache.nodes.(slab.node_id).latent_slabs
      slab.latent_link

(* latent -> free stays inside the slab: in_flight is unchanged, but
   put_free_obj decrements it, so pre-compensate. *)
let unlatent o =
  let slab = o.parent in
  slab.in_flight <- slab.in_flight + 1;
  put_free_obj slab o

let slab_harvest_ripe slab ~completed =
  Prof.enter (prof slab.cache) ~cpu:(-1) Prof.Span.Latq_harvest;
  let n = Latq.harvest slab.latent_objs ~completed ~f:unlatent in
  if n > 0 then begin
    slab.latent_n <- slab.latent_n - n;
    slab.cache.latent_count <- slab.cache.latent_count - n;
    if slab.latent_n = 0 then unlink_latent slab
  end;
  Prof.exit (prof slab.cache) Prof.Span.Latq_harvest;
  n

let alloc_pages cache =
  let buddy = cache.env.buddy in
  match Mem.Buddy.alloc buddy ~order:cache.order with
  | Some b -> Some b
  | None -> (
      match cache.env.pressure with
      | Some p when Mem.Pressure.handle_alloc_failure p ->
          Mem.Buddy.alloc buddy ~order:cache.order
      | _ -> None)

let poll_pressure cache =
  match cache.env.pressure with None -> () | Some p -> Mem.Pressure.poll p

(* Retry a transiently failed page allocation with exponential virtual-time
   backoff. Only failures that [Buddy.would_satisfy] proves non-genuine
   (an injected refusal: a free block of sufficient order exists) are
   retried; real exhaustion falls through to the fatal-OOM path at once.
   Needs process context for the sleep, so it only runs when the policy is
   installed (off by default). *)
let rec grow_attempt cache (cpu : Sim.Machine.cpu) ~tries ~backoff =
  match alloc_pages cache with
  | Some block -> Some block
  | None -> (
      match cache.env.grow_retry with
      | Some p
        when tries < p.max_retries
             && Mem.Buddy.would_satisfy cache.env.buddy ~order:cache.order ->
          Slab_stats.grow_retry cache.stats;
          emit cache cpu Grow_retry (tries + 1);
          Sim.Process.sleep (Sim.Machine.engine cache.env.machine) backoff;
          grow_attempt cache cpu ~tries:(tries + 1) ~backoff:(2 * backoff)
      | _ -> None)

let grow_inner cache (cpu : Sim.Machine.cpu) =
  let backoff =
    match cache.env.grow_retry with
    | Some p -> p.base_backoff_ns
    | None -> 0
  in
  match grow_attempt cache cpu ~tries:0 ~backoff with
  | None ->
      emit cache cpu Oom 0;
      None
  | Some block ->
      let env = cache.env in
      let color = cache.color_next in
      cache.color_next <- (cache.color_next + 1) mod Size_class.max_color;
      let sid = env.next_sid in
      env.next_sid <- env.next_sid + 1;
      let slab =
        {
          sid;
          color;
          node_id = cpu.node;
          cache;
          block;
          capacity = cache.objs_per_slab;
          free_objs = [||];
          free_n = cache.objs_per_slab;
          latent_objs = cache.no_latent;
          latent_n = 0;
          in_flight = 0;
          on_list = L_unlinked;
          link = Sim.Dlist.none;
          latent_link = Sim.Dlist.none;
        }
      in
      let mk () =
        let oid = env.next_oid in
        env.next_oid <- env.next_oid + 1;
        {
          oid;
          parent = slab;
          ostate = Free_in_slab;
          gp_cookie = 0;
          touched = false;
        }
      in
      (* Objects come off the stack in oid order: the first made is on
         top. *)
      let n = cache.objs_per_slab in
      let stack = Array.make n (mk ()) in
      for i = n - 2 downto 0 do
        stack.(i) <- mk ()
      done;
      slab.free_objs <- stack;
      slab.link <- Sim.Dlist.node slab;
      link cache slab L_free;
      cache.total_slabs <- cache.total_slabs + 1;
      Slab_stats.set_current_slabs cache.stats cache.total_slabs;
      Slab_stats.grow cache.stats;
      emit cache cpu Grow cache.total_slabs;
      Sim.Machine.consume cpu env.costs.grow;
      lock_pages cache cpu;
      poll_pressure cache;
      Some slab

(* May suspend mid-span when the grow-retry policy sleeps; Prof.exit's
   unwind semantics keep the span stack consistent across that. *)
let grow cache (cpu : Sim.Machine.cpu) =
  Prof.enter (prof cache) ~cpu:cpu.id Prof.Span.Slab_grow;
  let r = grow_inner cache cpu in
  Prof.exit (prof cache) Prof.Span.Slab_grow;
  r

let destroy_slab cache slab =
  assert (truly_free slab
         || (cache.env.unsafe_destroy_latent && slab.in_flight = 0));
  (* The page-reuse boundary: report objects still deferred on this page
     before it goes back to the buddy. Empty on every non-mutated run
     (truly-free slabs have no latent objects). *)
  (let probe = cache.env.probe in
   if slab.latent_n > 0 && Sim.Probe.active probe Obj_page_release then
     (* Reverse {!Latq.iter} order: violation logs and bundles list
        page releases in it. *)
     let objs = ref [] in
     Latq.iter (fun o -> objs := o :: !objs) slab.latent_objs;
     List.iter
       (fun o ->
         Sim.Probe.emit probe Obj_page_release ~cpu:(-1) ~a:o.oid
           ~b:o.gp_cookie)
       !objs);
  (* Scrub the latent bookkeeping the mutated path orphans, so the cache
     counters stay conserved and only the page-level oracle can tell. *)
  if slab.latent_n > 0 then begin
    cache.latent_count <- cache.latent_count - slab.latent_n;
    slab.latent_n <- 0;
    unlink_latent slab
  end;
  unlink cache slab;
  Mem.Buddy.free cache.env.buddy slab.block;
  cache.total_slabs <- cache.total_slabs - 1;
  Slab_stats.set_current_slabs cache.stats cache.total_slabs;
  Slab_stats.shrink cache.stats;
  poll_pressure cache

(* Incremental shrinking, like kernel shrinkers: at most a few slabs per
   invocation, so reclaim is spread over time rather than bursty. *)
let max_shrink_per_call = 4

let shrink_node ?keep cache (cpu : Sim.Machine.cpu) node =
  let keep = match keep with Some k -> k | None -> keep_free_target cache in
  let destroyed = ref 0 in
  (* Oldest (closest to the back) first; pre-moved (not yet reclaimable)
     slabs on the free list are skipped. *)
  let c = ref (Sim.Dlist.last node.free_slabs) in
  while
    (not (Sim.Dlist.is_none !c))
    && Sim.Dlist.length node.free_slabs > keep
    && !destroyed < max_shrink_per_call
  do
    let s = Sim.Dlist.value !c in
    c := Sim.Dlist.prev !c;
    if
      truly_free s
      || (cache.env.unsafe_destroy_latent && s.in_flight = 0 && s.latent_n > 0)
    then begin
      destroy_slab cache s;
      Sim.Machine.consume cpu cache.env.costs.shrink;
      lock_pages cache cpu;
      incr destroyed
    end
  done;
  if !destroyed > 0 then emit cache cpu Shrink !destroyed;
  !destroyed

let refill_from_node cache (cpu : Sim.Machine.cpu) ~want ~select =
  if want <= 0 then 0
  else begin
    let pc = pcpu_for cache cpu in
    let node = node_for cache cpu in
    lock_node cache cpu node;
    let moved = ref 0 in
    let continue = ref true in
    while !continue && !moved < want do
      match select node with
      | None -> continue := false
      | Some slab ->
          let before = !moved in
          while !moved < want && slab.free_n > 0 do
            push_ocache cache pc (take_free_obj slab);
            incr moved
          done;
          ignore (relocate cache slab);
          (* A selector returning a slab with no free objects would loop. *)
          if !moved = before then continue := false
    done;
    if !moved > 0 then begin
      Slab_stats.refill cache.stats;
      emit cache cpu Refill !moved;
      Sim.Machine.consume cpu
        (cache.env.costs.refill + (!moved * cache.env.costs.refill_per_obj))
    end;
    !moved
  end

let flush_to_node cache (cpu : Sim.Machine.cpu) ~count =
  let pc = pcpu_for cache cpu in
  let moved = min count pc.ocache_n in
  if moved > 0 then begin
    (* Pop the top [moved] objects, then return them deepest first. *)
    let top = pc.ocache_n in
    pc.ocache_n <- top - moved;
    (* Group the lock acquisitions: one per touched node, in first-touch
       order. *)
    let touched = cache.flush_nodes in
    let nt = ref 0 in
    for i = top - moved to top - 1 do
      let obj = pc.ocache.(i) in
      let nid = obj.parent.node_id in
      let j = ref 0 in
      while !j < !nt && touched.(!j) <> nid do
        incr j
      done;
      if !j = !nt then begin
        touched.(!nt) <- nid;
        incr nt;
        lock_node cache cpu cache.nodes.(nid)
      end;
      put_free_obj obj.parent obj;
      ignore (relocate cache obj.parent)
    done;
    Slab_stats.flush cache.stats;
    emit cache cpu Flush moved;
    Sim.Machine.consume cpu
      (cache.env.costs.flush + (moved * cache.env.costs.flush_per_obj));
    for j = !nt - 1 downto 0 do
      ignore (shrink_node cache cpu cache.nodes.(touched.(j)))
    done
  end

(* The first slab with a free object among [depth] from cursor [c]. *)
let rec first_free c depth =
  if depth = 0 || Sim.Dlist.is_none c then None
  else
    let s = Sim.Dlist.value c in
    if s.free_n > 0 then Some s else first_free (Sim.Dlist.next c) (depth - 1)

let select_slub node =
  (* SLUB picks the first partial slab; with latent awareness, pre-moved
     slabs may have no free objects yet, so scan a few entries. *)
  match first_free (Sim.Dlist.first node.partial) 16 with
  | Some _ as r -> r
  | None -> first_free (Sim.Dlist.first node.free_slabs) 16

let mostly_deferred slab =
  let allocated = slab.capacity - slab.free_n in
  allocated > 0 && 2 * slab.latent_n > allocated

(* Fewer latent objects first (do not steal from slabs that are on their
   way to being entirely free), then denser refills. *)
let better a b =
  if a.latent_n <> b.latent_n then a.latent_n < b.latent_n
  else a.free_n > b.free_n

let select_prudence ~scan_depth node =
  let best = ref Sim.Dlist.none in
  let c = ref (Sim.Dlist.first node.partial) in
  let k = ref scan_depth in
  while !k > 0 && not (Sim.Dlist.is_none !c) do
    let s = Sim.Dlist.value !c in
    if
      s.free_n > 0
      && (not (mostly_deferred s))
      && (Sim.Dlist.is_none !best || better s (Sim.Dlist.value !best))
    then best := !c;
    c := Sim.Dlist.next !c;
    decr k
  done;
  if Sim.Dlist.is_none !best then
    first_free (Sim.Dlist.first node.free_slabs) scan_depth
  else Some (Sim.Dlist.value !best)

(* The O(objects) sweep below only runs with [env.debug_checks] set: the
   default for tests and check sweeps, off for the wall-clock benchmark
   harness so the measured paths are the production ones. *)
let check_invariants cache =
  if cache.env.debug_checks then begin
    let seen_slabs = ref 0 in
    Array.iter
      (fun node ->
        let check_list list_id dl =
          Sim.Dlist.iter
            (fun slab ->
              incr seen_slabs;
              assert (slab.on_list = list_id);
              assert (slab.free_n <= Array.length slab.free_objs);
              assert (slab.latent_n = Latq.length slab.latent_objs);
              assert (
                slab.free_n + slab.latent_n + slab.in_flight = slab.capacity);
              assert (
                slab.free_n >= 0 && slab.latent_n >= 0 && slab.in_flight >= 0);
              iter_free_objs
                (fun o ->
                  assert (o.parent == slab);
                  assert (o.ostate = Free_in_slab))
                slab;
              Latq.iter
                (fun o -> assert (o.ostate = In_latent_slab))
                slab.latent_objs;
              assert (desired_list slab = slab.on_list))
            dl
        in
        check_list L_full node.full;
        check_list L_partial node.partial;
        check_list L_free node.free_slabs;
        Sim.Dlist.iter
          (fun slab ->
            assert (slab.latent_n > 0);
            assert (Sim.Dlist.linked slab.latent_link))
          node.latent_slabs)
      cache.nodes;
    assert (!seen_slabs = cache.total_slabs);
    assert (cache.latent_count = latent_total_slow cache);
    Array.iter
      (fun pc ->
        assert (pc.ocache_n <= Array.length pc.ocache);
        iter_ocache (fun o -> assert (o.ostate = In_object_cache)) pc;
        Latq.Fifo.iter
          (fun o -> assert (o.ostate = In_latent_cache))
          pc.latent)
      cache.pcpus
  end

let pp_cache fmt cache =
  Format.fprintf fmt "cache %s: obj=%dB order=%d objs/slab=%d ocache=%d slabs=%d live=%d latent=%d"
    cache.name cache.obj_size cache.order cache.objs_per_slab cache.ocache_cap
    cache.total_slabs cache.live_objs (latent_total cache)

let set_preflush_scheduled pc v = pc.preflush_scheduled <- v
let set_idle_task pc fn = pc.idle_task <- fn
let note_alloc pc = pc.recent_allocs <- pc.recent_allocs + 1
let note_release pc = pc.recent_releases <- pc.recent_releases + 1

let decay_rates pc =
  (* 7/8 retention per grace period: the estimate spans the "recent few
     grace period intervals" of §4.2 and rides out transient stalls. *)
  pc.recent_allocs <- pc.recent_allocs - (pc.recent_allocs / 8);
  pc.recent_releases <- pc.recent_releases - (pc.recent_releases / 8)
