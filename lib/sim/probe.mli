(** The observation bus: the one typed stream through which every layer
    reports what it did, owned by the engine ({!Engine.probe}).

    Layers emit edges; observers (the shadow-heap oracle, the reader-reuse
    check, the anatomy recorder, the tracer, fuzz coverage) subscribe to
    the ones they need. Edges carry three ints, so an emit allocates
    nothing, and handlers are kept per edge, so an unwatched edge costs
    one load and a length test. Names (caches, locks, fault specs) travel
    as label ids, {!intern}ed once when the named thing is created.
    Detection edges name their source: RCU grace periods run under every
    scheme (epoch-backed stacks still [call_rcu]), and a recorder must
    not take them for its own scheme's detection. The bus is
    observation-only: handlers must not consume virtual time or schedule
    events, and hooks that drive reclamation stay with their layers. *)

(** Object edges ([Obj_*]) carry [a] = oid, [b] = the object's token.
    Event edges (from [Alloc_hit] on) carry [a] = a label id (the cache,
    lock or fault spec; 0 for none) and [b] = the event's argument. *)
type edge =
  | Obj_alloc  (** Handed to a mutator. *)
  | Obj_free  (** Immediate release; fires before the frame's state assert. *)
  | Obj_defer  (** Deferred free; fires before the frame's state assert. *)
  | Obj_pool  (** Entered a free pool (object cache or slab freelist). *)
  | Obj_page_release
      (** Its page returns to the buddy allocator while it is still latent
          (never on a legal destroy). *)
  | Reader_hold  (** A reader on [cpu] dereferenced object [a]. *)
  | Gp_request  (** RCU grace-period detection was requested. *)
  | Gp_start  (** RCU grace period [a] (completes as frontier [a]) began. *)
  | Gp_qs  (** [cpu] reported a quiescent state; [a] CPUs remain. *)
  | Smr_request  (** An EBR or Hyaline [Smr.request] was called. *)
  | Epoch_scan  (** An EBR advancement attempt with tokens outstanding. *)
  | Epoch_blocked  (** [cpu]'s stale announcement failed an EBR scan. *)
  | Batch_seal  (** Hyaline batch [a] sealed with [b] reader credits. *)
  | Batch_unref  (** The reader on [cpu] left batch [a]; [b] refs remain. *)
  | Alloc_hit  (** Served from the object cache. *)
  | Alloc_miss  (** Object cache empty after any merge. *)
  | Refill  (** [b] objects moved from slabs to the object cache. *)
  | Flush  (** [b] objects moved from the object cache to slabs. *)
  | Grow  (** A slab was added; [b] = the cache's slab count. *)
  | Shrink  (** [b] free slabs went back to the page allocator. *)
  | Defer_free  (** Deferred free under token [b]. *)
  | Latent_merge  (** [b] ripe latent objects merged into the object cache. *)
  | Premove  (** A slab changed node list ahead of its objects ripening. *)
  | Preflush  (** An idle pass moved [b] latent objects to their slabs. *)
  | Gp_end  (** RCU grace period [b] completed. *)
  | Cb_enqueue  (** [call_rcu] under cookie [b]. *)
  | Cb_invoke  (** A softirq pass invoked [b] callbacks. *)
  | Lock_acquire  (** Lock [a] acquired. *)
  | Lock_contended  (** Lock [a] was busy: the acquirer waited [b] ns. *)
  | Idle_start  (** [cpu] went idle. *)
  | Idle_end  (** [cpu] left its idle window. *)
  | Ctx_switch  (** A tick outside a read-side section on [cpu]. *)
  | Oom  (** An allocation failed for good. *)
  | Rcu_stall  (** [cpu] held out grace period [b] past the stall timeout. *)
  | Fault_inject  (** Fault spec [a] fired; [b] faults so far. *)
  | Grow_retry  (** Page refusal: grow retry number [b]. *)
  | Emergency_flush  (** Critical pressure released [b] ripe latent objects. *)
  | Alloc_cost  (** An allocation call charged its CPU [b] ns. *)

val all : edge list
(** Every edge, in declaration order. *)

type handler = edge -> cpu:int -> a:int -> b:int -> unit
(** Gets the edge it fired on, so one handler can serve several. [cpu] is
    [-1] where the emitting site has none; unused ints are [0]. *)

type t

val create : unit -> t

val subscribe : t -> edge list -> handler -> unit
(** Append a handler to each edge; within an edge, handlers run in
    subscription order. *)

val active : t -> edge -> bool
(** Whether any handler watches the edge. *)

val emit : t -> edge -> cpu:int -> a:int -> b:int -> unit
(** Call the edge's handlers in order. Allocation-free. *)

val intern : t -> string -> int
(** The label id of a name: the same id for the same string, [0] for
    [""]. Call it when the named thing is created, not per event. *)

val label : t -> int -> string
(** The name behind a label id; [""] for [0] or an unknown id. *)
