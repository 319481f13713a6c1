(** The endurance experiment (paper §3.5 / Fig. 3 and §5.5): every CPU
    continuously performs linked-list update operations (each allocates a
    new 512-byte object and defer-frees the old version) while total used
    memory is sampled every 10 ms. On the baseline, RCU's throttled
    callback processing cannot keep up, memory climbs, processing is
    expedited under pressure, and the system finally hits OOM; Prudence
    reaches an equilibrium after the first grace periods and stays flat.
    This is also the DoS scenario of §3.4. *)

type config = {
  duration_ns : int;  (** Virtual run length (the paper ran ~200 s). *)
  update_interval_ns : int;  (** Gap between updates on each CPU. *)
  obj_size : int;  (** Paper: 512 bytes. *)
  sample_period_ns : int;  (** Paper: 10 ms. *)
  list_len : int;  (** Keys per per-CPU list. *)
}

val default_config : config

val throttled_rcu : Rcu.config
(** The RCU config the endurance runs use (Fig. 3, its [blimit]
    ablation, the [stat] view and the behaviour gate): callbacks invoked
    10 per 1 ms softirq pass (30 when expedited), no backlog-triggered
    expediting. The regime where deferred frees pile up on the
    baseline. *)

type result = {
  label : string;
  series : (int * float) array;  (** (time ns, used MiB) samples. *)
  oom_at_ns : int option;
  peak_used_mib : float;
  final_used_mib : float;
  updates : int;
  expedited_transitions : int;
  max_backlog : int;
  slab_churns : int;
  safety_violations : int;
}

val run : Env.t -> config -> result
