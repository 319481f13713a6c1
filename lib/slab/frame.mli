(** Shared slab-cache machinery.

    Implements the structure of Fig. 2/Fig. 4 of the paper: a slab cache is
    a set of per-CPU object caches plus per-NUMA-node lists of slabs
    (full / partial / free); each slab is [2^order] contiguous pages carved
    into equal-sized objects. Prudence extends every object cache with a
    latent cache and every slab with a latent list (Fig. 4); the frame
    carries both so the SLUB baseline ({!Slub}) and Prudence share
    accounting, and policies differ only in how they use it.

    All operations charge virtual time to the CPU performing them through
    the {!Costs} model and the node's {!Sim.Simlock}. *)

(** {1 Types} *)

type grow_retry_policy = {
  max_retries : int;  (** Backoff attempts before declaring fatal OOM. *)
  base_backoff_ns : int;  (** First retry delay; doubles per attempt. *)
}
(** Retry-with-backoff policy for transient page-allocation failures in the
    grow path (see {!grow}). Requires process context (the backoff sleeps);
    disabled by default. *)

type env = {
  machine : Sim.Machine.t;
  buddy : Mem.Buddy.t;
  pressure : Mem.Pressure.t option;
  costs : Costs.t;
  page_lock : Sim.Simlock.t;
      (** The page allocator's zone lock: slab grow/shrink serializes here
          with a hold that scales with slab order (page zeroing), the
          driver of the baseline's large-object collapse in Fig. 6. *)
  probe : Sim.Probe.t;
      (** The engine's observation bus. The frame emits the object
          edges: [Obj_alloc] ({!hand_to_user}), [Obj_free]
          ({!release_from_user}), [Obj_defer] ({!stamp_deferred}),
          [Obj_pool] (entry to an object cache or slab freelist: the
          reuse boundary a deferred object must not cross before its
          token ripens) and [Obj_page_release] ({!destroy_slab}, once per
          object still latent on the page — never on a legal destroy).
          It also emits the slab events ({!emit}) and every lock
          acquisition ({!lock_node}). *)
  mutable grow_retry : grow_retry_policy option;
      (** When set, {!grow} retries transient page-alloc failures (those
          {!Mem.Buddy.would_satisfy} proves injected, not genuine
          exhaustion) with bounded exponential virtual-time backoff. *)
  mutable debug_checks : bool;
      (** Whether {!check_invariants}' O(objects) sweep runs (default
          [true]; benchmarks turn it off so the measured hot paths are
          the production ones). *)
  mutable unsafe_destroy_latent : bool;
      (** Checker mutation knob (default [false]): lets {!shrink_node}
          destroy pre-moved slabs whose objects are all latent — returning
          a page to the buddy while objects on it may still be inside
          their grace period. The destroy path scrubs the latent counters,
          so only an [Obj_page_release] subscriber can tell. Never
          set outside [--mutate=free-latent-page] self-tests. *)
  mutable next_oid : int;
  mutable next_sid : int;
}

val make_env :
  ?pressure:Mem.Pressure.t ->
  ?costs:Costs.t ->
  ?debug_checks:bool ->
  Sim.Machine.t ->
  Mem.Buddy.t ->
  env

type ostate =
  | Free_in_slab  (** On its slab's freelist. *)
  | In_object_cache  (** In some CPU's object cache, ready to allocate. *)
  | Allocated  (** Held by a mutator (or deferred and not yet released). *)
  | In_latent_cache  (** Deferred; in a CPU's latent cache (Prudence). *)
  | In_latent_slab  (** Deferred; parked on its slab's latent list. *)

val pp_ostate : Format.formatter -> ostate -> unit

type list_id = L_full | L_partial | L_free | L_unlinked

val pp_list_id : Format.formatter -> list_id -> unit

type objekt = private {
  oid : int;  (** Unique object id (for the safety checker). *)
  parent : slab;
  mutable ostate : ostate;
  mutable gp_cookie : int;
      (** Grace period this deferred object waits for (Prudence). *)
  mutable touched : bool;
      (** Whether a mutator has ever used this object's memory (first
          touch is charged cold-miss cost). *)
}

and slab = private {
  sid : int;
  color : int;  (** Cache-colouring offset index (cycled per §4.3). *)
  node_id : int;
  cache : cache;
  block : Mem.Buddy.block;
  capacity : int;
  mutable free_objs : objekt array;
      (** Free stack: slots [0 .. free_n-1] hold the free objects, the
          top (next handed out) at [free_n - 1]; slots above are stale.
          A fresh slab hands out its objects in oid order. Walk it with
          {!iter_free_objs}. *)
  mutable free_n : int;
  mutable latent_objs : objekt Latq.t;
      (** Deferred objects parked on this slab, bucketed by grace-period
          cookie so harvests cost O(ripe). The cache's empty [no_latent]
          until the slab first holds one, so slabs that never do (all of
          them under SLUB) carry no queue of their own. *)
  mutable latent_n : int;
  mutable in_flight : int;
      (** Objects in object caches, latent caches, or held by mutators. *)
  mutable on_list : list_id;
  mutable link : slab Sim.Dlist.node;
      (** Handle on the node list [on_list] names, made once at {!grow}
          and re-linked on every move, so moves allocate nothing. *)
  mutable latent_link : slab Sim.Dlist.node;
      (** Handle on the node's latent-slab list, linked while
          [latent_n > 0]; {!Sim.Dlist.none} until first needed. *)
}

and node = private {
  nid : int;
  lock : Sim.Simlock.t;
  full : slab Sim.Dlist.t;
  partial : slab Sim.Dlist.t;
  free_slabs : slab Sim.Dlist.t;
  latent_slabs : slab Sim.Dlist.t;
      (** Slabs holding latent objects, oldest first; Prudence harvests
          ripe objects from the front after each grace period. *)
}

and pcpu = private {
  cpu : Sim.Machine.cpu;
  mutable ocache : objekt array;
      (** Object cache, a LIFO stack: slots [0 .. ocache_n-1], top at
          [ocache_n - 1]; slots above are stale. Grows by doubling and is
          reused, so pushes and pops allocate nothing. Walk it with
          {!iter_ocache}. *)
  mutable ocache_n : int;
  latent : objekt Latq.Fifo.t;
      (** Prudence's latent cache: one deque plus a run-length cookie
          index for O(distinct-cookies) ripeness queries. *)
  mutable preflush_scheduled : bool;
  mutable idle_task : unit -> unit;
      (** The policy's idle-time work for this CPU (Prudence's
          pre-flush), built once so scheduling it allocates nothing. A
          no-op until {!set_idle_task}. *)
  mutable recent_allocs : int;  (** Since the last grace period (rates). *)
  mutable recent_releases : int;
}

and cache = private {
  name : string;
  label : int;  (** [name], interned on the probe. *)
  obj_size : int;
  order : int;
  objs_per_slab : int;
  ocache_cap : int;
  batch : int;
  latent_aware : bool;
      (** Whether slab placement considers latent objects (Prudence). *)
  latent_cap : int;  (** Latent-cache bound (= [ocache_cap] per §4.1). *)
  env : env;
  nodes : node array;
  pcpus : pcpu array;
  stats : Slab_stats.t;
  mutable color_next : int;
  mutable total_slabs : int;
  mutable live_objs : int;  (** Objects currently requested by mutators. *)
  mutable latent_count : int;
      (** Deferred objects currently in latent caches + latent slabs. *)
  mutable free_target : (unit -> int) option;
      (** Policy estimate of how many free slabs a node should keep before
          shrinking (Prudence derives it from latent objects + recent
          allocation rate — a "hint about the future"). *)
  flush_nodes : int array;
      (** Scratch for {!flush_to_node}: the nodes it has locked. *)
  no_latent : objekt Latq.t;
      (** Always empty; see [latent_objs]. *)
}

exception Slab_oom of string
(** Raised when a cache cannot grow and the policy cannot wait. *)

(** {1 Cache construction} *)

val create_cache :
  env ->
  name:string ->
  obj_size:int ->
  ?latent_aware:bool ->
  ?latent_cap:int ->
  unit ->
  cache
(** Builds a cache sized by {!Size_class} heuristics over the machine's
    CPUs and NUMA nodes. [latent_aware] (default false) enables Prudence's
    latent bookkeeping in slab placement; [latent_cap] defaults to the
    object-cache capacity. *)

val slab_bytes : cache -> int
val node_for : cache -> Sim.Machine.cpu -> node
val pcpu_for : cache -> Sim.Machine.cpu -> pcpu

(** {1 Accounting queries} *)

val live_objects : cache -> int
val total_slabs : cache -> int

val latent_total : cache -> int
(** Deferred objects currently parked in latent caches and latent slabs
    (O(1) counter). *)

val set_free_target : cache -> (unit -> int) -> unit
(** Install a policy estimate of the free slabs each node keeps before
    shrinking (floored at {!Size_class.min_free_slabs}); Prudence sets it
    from latent objects + recent allocation rate ("hints about the
    future"). *)

val fragmentation : cache -> float
(** Total fragmentation [f_t = allocated bytes / requested bytes] (paper
    §4.2). Returns [nan] when no objects are live. *)

val prof : cache -> Prof.t
(** The machine's profiler ({!Prof.null} when profiling is off). The
    frame opens [slab.grow] / [slab.latq_push] / [slab.latq_harvest]
    spans; backends open the alloc/free/defer spans. *)

val emit : cache -> Sim.Machine.cpu -> Sim.Probe.edge -> int -> unit
(** [emit cache cpu edge b] reports an event of this cache on [cpu]: the
    probe edge with [a] = the cache's label and [b] as given. The frame
    itself emits refill, flush, grow, grow-retry, shrink and OOM events;
    allocator policies emit their own (hit/miss, merge, pre-flush, defer,
    allocation cost). *)

val truly_free : slab -> bool
(** All objects back on the freelist: the slab's pages may be returned. *)

(** {1 Locked node-list operations}

    Each of these charges the caller CPU the configured lock hold plus any
    queueing delay, modelling node-lock contention. *)

val lock_node : cache -> Sim.Machine.cpu -> node -> unit
(** Charge one lock acquisition (wait + hold) to [cpu]. Every frame lock
    acquisition, the page lock's included, emits [Lock_acquire] and,
    when the lock was busy, [Lock_contended] with [b] = the wait. *)

val node_lock_delay : cache -> Sim.Machine.cpu -> node -> int
(** {!lock_node} without the charge: the delay (wait + hold), for a
    caller that decides where the time goes. *)

val relocate : cache -> slab -> bool
(** Place [slab] on the node list its counters dictate. With
    [latent_aware]: a slab whose remaining objects are all free-or-latent
    pre-moves to the free list, and a full slab with latent objects
    pre-moves to the partial list (paper, "slab pre-movement"). Returns
    [true] if the slab changed lists. Does not itself charge lock time
    (callers batch it under one acquisition). *)

(** {1 Object movement} *)

val take_free_obj : slab -> objekt
(** Pop one object from the slab freelist; caller must set its state and
    relocate the slab. Raises [Invalid_argument] when [free_n = 0]. *)

val iter_free_objs : (objekt -> unit) -> slab -> unit
(** The slab's free objects, bottom of the stack first. *)

val push_ocache : cache -> pcpu -> objekt -> unit
val pop_ocache : pcpu -> objekt option

val iter_ocache : (objekt -> unit) -> pcpu -> unit
(** The object cache, bottom of the stack first. *)

val pop_ocache_exn : pcpu -> objekt
(** Allocation-free {!pop_ocache}; raises [Invalid_argument] when the
    object cache is empty — check [ocache_n] first on hot paths. *)

val hand_to_user : cache -> Sim.Machine.cpu -> objekt -> unit
(** Mark [objekt] allocated, bump live counters, charge the first-touch
    cost if its memory was never used; emits [Obj_alloc] first. *)

val release_from_user : cache -> objekt -> unit
(** Mark a mutator release (immediate free path): decrements live count. *)

val stamp_deferred : cache -> objekt -> cookie:int -> unit
(** Record the grace-period cookie and decrement the live count (the
    mutator no longer holds the object). *)

val obj_to_latent_cache : cache -> pcpu -> objekt -> unit
val obj_to_latent_slab : cache -> objekt -> unit
(** Move a deferred object onto its slab's latent list. Caller relocates. *)

val latent_cache_pop_ripe : cache -> pcpu -> completed:int -> objekt option
(** Pop the oldest latent-cache object if its grace period completed. *)

val latent_cache_merge_ripe :
  cache -> pcpu -> completed:int -> limit:int -> int
(** Algorithm 1's merge: move up to [limit] ripe latent-cache objects,
    oldest first, onto the object cache ({!push_ocache}); return the
    count. Allocation-free (the merge hot path). *)

val latent_cache_pop_newest : cache -> pcpu -> objekt
(** Pop the newest latent-cache object (pre-flush eviction order).
    Raises [Invalid_argument] when the latent cache is empty. *)

val slab_harvest_ripe : slab -> completed:int -> int
(** Move every ripe latent object of [slab] back to its freelist; returns
    the count. O(ripe): whole cookie buckets pop off the latent queue
    without touching objects waiting on later grace periods. Caller
    relocates. *)

val put_free_obj : slab -> objekt -> unit
(** Return an object (from an object cache) to its slab freelist. *)

(** {1 Slab lifecycle} *)

val grow : cache -> Sim.Machine.cpu -> slab option
(** Allocate pages for a new slab on [cpu]'s node, link it on the free
    list, charge grow cost. On buddy failure runs the pressure OOM chain
    once and retries; with [env.grow_retry] set, transient (injected)
    failures additionally retry with bounded exponential backoff, each
    attempt counted and traced as [Grow_retry]. [None] if memory is truly
    exhausted (or retries ran out). *)

val destroy_slab : cache -> slab -> unit
(** Unlink a {!truly_free} slab and return its pages. *)

val shrink_node : ?keep:int -> cache -> Sim.Machine.cpu -> node -> int
(** Destroy truly-free slabs while the node holds more than the policy's
    free target ([keep] overrides it; pass [~keep:0] for the emergency
    eager shrink under Critical pressure); returns how many were
    destroyed. At most a few slabs per call, like kernel shrinkers. *)

(** {1 Bulk cache <-> node transfers} *)

val refill_from_node :
  cache ->
  Sim.Machine.cpu ->
  want:int ->
  select:(node -> slab option) ->
  int
(** Move up to [want] free objects from node slabs into [cpu]'s object
    cache under one lock acquisition, using [select] to choose each source
    slab (this is where SLUB and Prudence differ). Returns objects moved
    and counts one refill operation if any moved. *)

val flush_to_node : cache -> Sim.Machine.cpu -> count:int -> unit
(** Move [count] objects from [cpu]'s object cache back to their slabs
    under one lock acquisition, then run the shrink check. Counts one
    flush operation if any moved. *)

(** {1 Selection policies} *)

val select_slub : node -> slab option
(** SLUB's choice: first partial slab, else first free slab. *)

val select_prudence : scan_depth:int -> node -> slab option
(** Prudence's choice (§4.2 "reduces total fragmentation"): among the
    first [scan_depth] partial slabs, prefer the one minimizing future
    fragmentation — fewest latent objects, then most free objects; skips
    slabs whose allocated objects are mostly deferred; falls back to free
    slabs, then to any scanned partial slab. *)

(** {1 Consistency} *)

val check_invariants : cache -> unit
(** Assert the full accounting story: per-slab
    [free + latent + in_flight = capacity], list membership matches
    [on_list], object states match their container, global counts add up.
    For tests. The O(objects) sweep is gated on [env.debug_checks]
    (default on; benchmarks disable it). *)

val pp_cache : Format.formatter -> cache -> unit

(** {1 Per-CPU policy state helpers}

    The pcpu record is private; Prudence mutates its policy fields through
    these. *)

val set_preflush_scheduled : pcpu -> bool -> unit

val set_idle_task : pcpu -> (unit -> unit) -> unit
(** Install the policy's per-CPU idle task (see [idle_task]). *)

val note_alloc : pcpu -> unit
(** Bump the per-CPU allocation-rate counter (pre-flush policy input). *)

val note_release : pcpu -> unit
(** Bump the per-CPU free/deferred-free rate counter. *)

val decay_rates : pcpu -> unit
(** Halve both rate counters; called once per grace period so the rates
    reflect "recent few grace period intervals" (§4.2). *)
