(** Shadow-heap safety oracle.

    Tracks every slab object the allocator under test touches through the
    lifecycle

    {v live -> deferred(cookie) -> ripe -> reclaimed -> live -> ... v}

    by subscribing to the object edges and the [Reader_hold] edge of the
    engine's {!Sim.Probe}, and flags the failures procrastination-based
    reclamation must never exhibit:

    - {e early reuse}: a deferred object enters a free pool (object cache
      or slab freelist) before its grace period has completed — the memory
      is about to be handed to a new owner while readers may still hold
      the old incarnation;
    - {e use after reclaim}: a reader dereferences an object whose memory
      has already been returned to a free pool;
    - {e premature page reuse}: a slab page returns to the buddy allocator
      while an object on it is still inside its grace period — distinct
      from object-level early reuse because the object never re-enters a
      free pool; the whole page escapes.

    The oracle is pure observation: it never changes allocator behaviour,
    so a run with the oracle installed is byte-identical to one without.
    Violations are recorded (with virtual timestamps), never raised; the
    log keeps the first {!max_logged_violations} and counts the rest, so
    a badly mutated run cannot grow memory without bound during long fuzz
    sessions. *)

type state =
  | Live  (** Held by a mutator. *)
  | Deferred of int  (** Defer-freed, waiting for grace period [cookie]. *)
  | Ripe  (** Grace period complete; safe to reclaim, not yet pooled. *)
  | Reclaimed  (** In a free pool; memory may be reused any time. *)

val pp_state : Format.formatter -> state -> unit

type kind =
  | Early_reuse of { cookie : int; completed : int }
      (** Entered a free pool while waiting for grace period [cookie],
          but only [completed] grace periods had finished. *)
  | Use_after_reclaim of { cpu : int }
      (** A reader on [cpu] dereferenced the object after reclaim. *)
  | Page_reuse of { cookie : int; completed : int }
      (** Its page went back to the buddy allocator while the object
          still waited for grace period [cookie]. *)
  | Bad_transition of { from : state option; event : string }
      (** Lifecycle violation, e.g. double free or defer of a non-live
          object. [from] is [None] for an object never seen before. *)

type violation = { at_ns : int; oid : int; kind : kind }

val describe : violation -> string
val pp_violation : Format.formatter -> violation -> unit

type t

val install :
  ?page_reuse:bool -> ?early_reuse:bool -> ?coverage:Coverage.t ->
  Workloads.Env.t -> t
(** Wire the oracle into a built environment: subscribes one handler,
    run under the [check.probe] prof span, to the probe's object and
    reader-hold edges, and registers a frontier-advance hook (under RCU:
    grace-period completion) that promotes deferred objects to ripe.
    Ripeness is judged against the environment's {i truthful} SMR view
    ([env.smr]) — an opaque token compare, so the oracle works for any
    backend and stays honest under frontier-corrupting mutations.
    [page_reuse] (default [true]) controls the page-level check and
    [early_reuse] (default [true]) the object-pool check — the off
    switches exist so each [--mutate] self-test can prove its oracle
    necessary. When [coverage] is given, every shadow-state transition
    feeds it. Install at most one oracle per environment (each install
    subscribes its own handler). *)

val violations : t -> violation list
(** Oldest first; at most {!max_logged_violations} entries. *)

val violation_count : t -> int
(** Logged violations (bounded by {!max_logged_violations}). *)

val dropped_violations : t -> int
(** Violations recorded past the log bound and discarded. *)

val max_logged_violations : int

val state : t -> oid:int -> state option
(** Current shadow state of object [oid]; [None] if never observed. *)

val tracked : t -> int
(** Objects currently tracked. *)

val counts : t -> int * int * int * int
(** (live, deferred, ripe, reclaimed) tracked-object totals — cheap
    cross-check material for the auditors. *)

val events : t -> int
(** Probe events observed (sanity: > 0 after any workload). *)
