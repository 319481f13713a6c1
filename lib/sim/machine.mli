(** Simulated multi-CPU machine.

    Models the two scheduler facts the paper's mechanisms depend on:

    - {b context switches}: a periodic per-CPU scheduler tick; RCU registers
      a hook and treats a tick outside a read-side critical section as a
      quiescent state (exactly the Linux rule described in the paper, §2.1);
    - {b idle windows}: workloads declare think time as idle; Prudence
      schedules latent-cache pre-flush work there ("idleness is not sloth").

    CPUs also carry a pending-cost accumulator: allocator and RCU code
    charge virtual nanoseconds to the CPU they run on, and the workload
    process periodically drains the accumulator into a {!Process.sleep}, so
    allocator efficiency translates into workload throughput. *)

type cpu = {
  id : int;  (** CPU index, [0 .. nr_cpus-1]. *)
  node : int;  (** NUMA node this CPU belongs to. *)
  mutable pending_ns : int;
      (** Virtual time charged to this CPU and not yet drained. *)
  mutable rcu_nesting : int;
      (** Read-side critical-section depth; ticks in a section are not
          quiescent states. Maintained by the [rcu] library. *)
  mutable idle : bool;  (** Whether the CPU is currently in an idle window. *)
  mutable stalled : bool;
      (** Fault injection: while set, scheduler ticks on this CPU are
          suppressed, so it reports no quiescent states and pins any grace
          period that needs one from it. Off by default. *)
  mutable ctx_switches : int;  (** Context switches observed so far. *)
  mutable suppressed_ticks : int;
      (** Ticks swallowed while [stalled] was set (fault accounting). *)
  mutable idle_work : (unit -> unit) array;
      (** Pending one-shot idle work: slots [0 .. idle_n-1], in submission
          order. The array is reused, so queueing allocates nothing once
          it has grown. *)
  mutable idle_n : int;
}

type t
(** The machine: engine + CPUs + tick configuration. *)

val create :
  Engine.t -> cpus:int -> ?nodes:int -> ?tick_ns:int -> unit -> t
(** [create eng ~cpus ~nodes ~tick_ns ()] builds a machine with [cpus] CPUs
    spread round-robin-by-block over [nodes] NUMA nodes (default 1 node;
    default tick 1 ms, i.e. HZ=1000). Ticks start staggered so CPUs do not
    context-switch at the same instant. Call {!start} to begin ticking. *)

val start : t -> unit
(** Start the per-CPU scheduler ticks. Idempotent. *)

val engine : t -> Engine.t
val nr_cpus : t -> int
val nr_nodes : t -> int
val cpu : t -> int -> cpu
(** [cpu t i] is CPU [i]. *)

val cpus : t -> cpu array
val node_of_cpu : t -> int -> int
val tick_ns : t -> int

val on_context_switch : t -> (cpu -> unit) -> unit
(** Register a hook invoked at every context switch (tick outside a
    read-side critical section) with the switching CPU. *)

val prof : t -> Prof.t
(** The engine's profiler ({!Engine.prof}). Subsystems running on the
    machine (RCU, the allocators) open their spans through it. *)

val consume : cpu -> int -> unit
(** [consume c ns] charges [ns] of virtual time to [c]. *)

val drain : cpu -> int
(** [drain c] returns and clears the accumulated pending time. *)

val submit_idle : t -> cpu -> (unit -> unit) -> unit
(** [submit_idle t c fn] runs [fn] the next time [c] enters an idle window
    (immediately, if it is idle now). One-shot: resubmit for repetition. *)

val is_idle : cpu -> bool

val idle_sleep : t -> cpu -> int -> unit
(** [idle_sleep t c ns] marks [c] idle, runs queued idle work, suspends the
    calling process for [ns] virtual ns, then marks [c] busy again. Must be
    called from process context. The window is reported on the engine's
    probe as [Idle_start] / [Idle_end]; each context switch as
    [Ctx_switch]. *)
