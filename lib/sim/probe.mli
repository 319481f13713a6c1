(** The observation bus: one typed stream of object-lineage and
    detection edges, owned by the engine ({!Engine.probe}).

    Layers emit edges; observers (the shadow-heap oracle, the reader-reuse
    check, the anatomy recorder) subscribe to the ones they need. Edges
    carry three ints, so an emit allocates nothing, and handlers are kept
    per edge, so an unwatched edge costs one load and a length test.
    Detection edges name their source: RCU grace periods run under every
    scheme (epoch-backed stacks still [call_rcu]), and a recorder must
    not take them for its own scheme's detection. The bus is
    observation-only: handlers must not consume virtual time or schedule
    events, and hooks that drive reclamation stay with their layers. *)

(** Object edges ([Obj_*]) carry [a] = oid, [b] = the object's token. *)
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
