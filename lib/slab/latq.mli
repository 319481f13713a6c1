(** Latent-object queues bucketed by grace-period cookie.

    The epoch-bag layout: deferred objects waiting on the same grace
    period share a bucket, so a completed grace period is harvested by
    popping whole ripe buckets — O(ripe) work, never a walk over
    objects still waiting on later cookies. See the implementation
    header for the ordering contract. *)

type 'a t
(** Bucketed multiset accepting cookies in any order (slab latent
    lists). *)

val create : unit -> 'a t
val length : 'a t -> int

val push : 'a t -> cookie:int -> 'a -> unit
(** Add an element waiting on grace period [cookie]. O(1) when [cookie]
    is the newest (the monotone common case); otherwise O(buckets with a
    smaller cookie). *)

val harvest : 'a t -> completed:int -> f:('a -> unit) -> int
(** Remove every element whose cookie is [<= completed], apply [f] to
    each newest-first (the order a [List.partition] over the old
    intrusive list produced), and return their count, already
    maintained — no [List.length], no intermediate list. Costs O(ripe
    elements + ripe buckets); unripe buckets are not visited. Emptied
    buckets are kept for later pushes, so a steady push/harvest cycle
    allocates nothing. [f] must not push onto the same queue. *)

val iter : ('a -> unit) -> 'a t -> unit
(** Every element, bucket by bucket (ascending cookie, newest first
    within a bucket). For audits and invariant checks. *)

val work : 'a t -> int
(** Instrumentation: total elements + bucket headers touched by
    [harvest] so far. Lets tests prove harvesting one cookie does not
    traverse the others. *)

(** Cookie-monotone variant for per-CPU latent caches: payloads stay in
    one deque (push newest at the back, merge ripe from the front,
    pre-flush evicts from the back), and a run-length cookie index
    answers ripeness queries in O(distinct cookies). *)
module Fifo : sig
  type 'a t

  val create : unit -> 'a t
  val length : 'a t -> int

  val push_back : 'a t -> cookie:int -> 'a -> unit
  (** [cookie] must be >= every previously pushed cookie (asserted);
      grace-period snapshots are monotone per CPU. *)

  val pop_front_ripe : 'a t -> completed:int -> 'a option
  (** The oldest element, if its grace period has completed. *)

  val merge_ripe :
    'a t -> completed:int -> limit:int -> f:('b -> 'a -> unit) -> 'b -> int
  (** [merge_ripe t ~completed ~limit ~f x] pops up to [limit] ripe
      elements, oldest first, applying [f x] to each; returns how many
      moved. Equivalent to a [pop_front_ripe] loop but allocation-free (no
      per-element option, runs consumed in batch; [x] lets [f] be a
      closed function rather than a closure built per call). *)

  val pop_back_exn : 'a t -> 'a
  (** The newest element (pre-flush eviction order). Raises
      [Invalid_argument] when empty. *)

  val pop_back : 'a t -> 'a option

  val ripe_count : 'a t -> completed:int -> int
  (** How many elements are past the horizon — O(distinct cookies),
      replacing the former O(length) deque walk on the refill path. *)

  val iter : ('a -> unit) -> 'a t -> unit
  (** Front (oldest) to back. *)
end
