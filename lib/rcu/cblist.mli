(** Segmented RCU callback list (one per CPU).

    Callbacks are enqueued with the grace-period cookie they must wait for
    (cookies are non-decreasing in enqueue order, as in Linux's
    [rcu_segcblist]), sit in the waiting segment until that grace period
    completes, and are then advanced to the done segment from which the
    softirq-style invoker drains them in throttled batches. *)

type t

val create : unit -> t

val enqueue : t -> cookie:int -> ('a -> unit) -> 'a -> unit
(** [enqueue cbl ~cookie f x] appends the callback [f x], invocable once
    the grace period identified by [cookie] has completed. The cell holds
    [f] and [x], so a caller with a preallocated [f] queues no closure.
    [cookie] must be >= every previously enqueued cookie (asserted). *)

val advance : t -> completed:int -> int
(** [advance cbl ~completed] moves every waiting callback whose cookie is
    [<= completed] to the done segment; returns how many moved. *)

val drain : t -> max:int -> int
(** [drain cbl ~max] removes and invokes up to [max] invocable callbacks,
    oldest first; returns how many were drained (the count the list
    already maintains — no [List.length] walk, no intermediate list). The
    batch size is fixed before the first invocation: callbacks advanced
    to the done segment by the invoked callbacks' side effects are not
    drained until the next pass. *)

val waiting : t -> int
(** Callbacks still waiting for their grace period. *)

val ready : t -> int
(** Callbacks whose grace period completed but that have not been invoked. *)

val total : t -> int
(** [waiting + ready]. *)

val next_cookie : t -> int option
(** Cookie of the oldest waiting callback, if any: the grace period that
    must complete next for progress. *)
