(** Simulated RCU readers and a reclamation-safety checker.

    Readers traverse RCU-protected structures inside read-side critical
    sections and may hold references to objects only within a section (the
    kernel rule from §2.1). This module tracks those references by object
    id, so the allocators can assert the fundamental safety property of
    procrastination-based reclamation: {e an object is never reused or
    reclaimed while some reader still references it}.

    Violations are recorded rather than raised so that fault-injection
    tests (a deliberately broken allocator that skips the grace-period
    wait) can observe them. *)

type t

val create : Gp.t -> t

val rcu : t -> Gp.t

(** {1 Read-side sections} *)

val enter : t -> Sim.Machine.cpu -> unit
(** Begin a critical section on [cpu] (wraps {!Gp.read_lock}). *)

val exit : t -> Sim.Machine.cpu -> unit
(** End the section; every reference the section still holds is dropped
    (readers cannot carry references out of a section). *)

val hold : t -> Sim.Machine.cpu -> oid:int -> unit
(** Record that the current section on [cpu] references object [oid]
    (a non-negative object id; refcounts are indexed by it). Recording
    outside a section is itself a violation. Emits [Reader_hold] on the
    engine's {!Sim.Probe} before any bookkeeping. *)

val release : t -> Sim.Machine.cpu -> oid:int -> unit
(** Drop one reference to [oid] from [cpu]'s current section. *)

val with_section : t -> Sim.Machine.cpu -> (unit -> 'a) -> 'a
(** [with_section t cpu f] runs [f] inside a critical section. *)

(** {1 Safety checking} *)

val refcount : t -> oid:int -> int
(** Readers currently referencing [oid] (across all CPUs). *)

val check_reusable : t -> oid:int -> where:string -> unit
(** Assert [refcount oid = 0]; otherwise record a violation tagged
    [where]. Allocators call this when recycling an object's memory. *)

val record_violation : t -> string -> unit
val violations : t -> string list
(** Recorded violations, oldest first. Bounded: only the first
    {!max_logged_violations} are kept; see {!dropped_violations}. *)

val dropped_violations : t -> int
(** Violations recorded past the log bound and discarded. *)

val max_logged_violations : int
(** Log bound (first-K retention). *)

val watch_reuse : t -> unit
(** Run {!check_reusable} (tagged ["alloc"]) on every object the slab
    frame hands to a mutator: subscribes to the engine probe's
    [Obj_alloc] edge. Call at most once per reader set. *)
