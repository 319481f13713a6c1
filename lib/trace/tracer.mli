(** The tracer: a subscriber of the engine's observation bus
    ({!Sim.Probe}) that keeps per-CPU bounded rings of the trace-kind
    edges ({!Event.kinds}) plus three latency histograms of the paper's
    timing phenomena: grace-period latency ([Gp_start] to [Gp_end]), lock
    wait ([Lock_contended]'s [b]) and allocation-path cost ([Alloc_cost]'s
    [b]). Events are stamped with the engine clock. The defer->reuse
    lifetime histogram is the anatomy recorder's total
    ({!Obs.Anatomy.total_hist}).

    An environment without a tracer subscribes nothing on these edges,
    so untraced runs pay one load and a length test per emit. Recording
    never charges virtual time: tracing is pure observation and cannot
    perturb experiment results. *)

type t

val create : ?ring_capacity:int -> ncpus:int -> Sim.Engine.t -> t
(** [create ~ncpus engine] subscribes a tracer to [engine]'s probe, with
    one ring per CPU (plus one for machine-global events) of
    [ring_capacity] events each (default 65536). On overflow the oldest
    events are dropped. *)

val ncpus : t -> int

(** {1 Histograms} *)

val gp_latency : t -> Hist.t
val lock_wait : t -> Hist.t
val alloc_cost : t -> Hist.t

(** {1 Inspection} *)

val events : t -> Event.t list
(** All retained events, merged across rings, in virtual-time order. *)

val recent_events : t -> cpu:int -> int -> Event.t list
(** [recent_events t ~cpu n]: the newest [n] retained events of one CPU's
    ring ([-1] for the machine-global ring), oldest first — the bounded
    flight-recorder window; allocation is O(n) regardless of ring size. *)

val total_events : t -> int
val total_dropped : t -> int
