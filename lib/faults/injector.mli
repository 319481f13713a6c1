(** Turns a {!Plan.t} into scheduled fault events against a built stack.

    All events are daemon events at the plan's pinned virtual times, so an
    installed plan never keeps [run_until_quiet] alive; injection is fully
    deterministic (the only randomness — alloc-fault refusal draws — comes
    from the plan's own seed). Each fault emits a [Fault_inject] probe
    edge labelled with the spec name, interned at install. *)

type t

val install :
  ?pressure:Mem.Pressure.t ->
  Plan.t ->
  machine:Sim.Machine.t ->
  buddy:Mem.Buddy.t ->
  rcu:Rcu.t ->
  t
(** Schedule every spec of the plan. Call once, right after the stack is
    built (time 0), before running the workload. [pressure] is polled when
    a pressure spike seizes or releases pages so watermark notifiers fire
    at the spike edges. *)

val plan : t -> Plan.t

type stats = {
  faults_fired : int;  (** Fault activations (window starts). *)
  readers_stalled : int;  (** Stalled-reader sections entered. *)
  stall_windows : int;  (** CPU tick-suppression windows opened. *)
  flood_cbs : int;  (** No-op callbacks enqueued by floods. *)
  peak_pages_seized : int;  (** High-water mark of spike-held pages. *)
  alloc_refusals : int;  (** = {!Mem.Buddy.injected_failures}. *)
}

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit
