(* A retained trace event: one trace-kind edge of the observation bus,
   stamped with the engine clock and its label id resolved. *)
type t = {
  time : int;  (** virtual ns *)
  cpu : int;  (** -1 when not CPU-bound (e.g. grace-period bookkeeping) *)
  kind : Sim.Probe.edge;  (** a trace kind: [index kind >= 0] *)
  label : string;  (** cache, lock or fault-spec name; "" when none *)
  arg : int;
      (** the edge's [b]: object count (refill/flush/merge/preflush/
          cb_invoke/emergency_flush), grace-period sequence number
          (gp/cb events, defer_free, rcu_stall; [Gp_start] carries it in
          [a]), wait ns (lock_contended), retry ordinal (grow_retry);
          0 otherwise *)
}

(* The one map from bus edges to trace kinds: each kind's index, in the
   order fuzz coverage keys its features by, and -1 for an edge that is
   not a trace kind. *)
let index : Sim.Probe.edge -> int = function
  | Alloc_hit -> 0 | Alloc_miss -> 1 | Refill -> 2 | Flush -> 3 | Grow -> 4
  | Shrink -> 5 | Defer_free -> 6 | Latent_merge -> 7 | Premove -> 8
  | Preflush -> 9 | Gp_start -> 10 | Gp_end -> 11 | Cb_enqueue -> 12
  | Cb_invoke -> 13 | Lock_acquire -> 14 | Lock_contended -> 15
  | Idle_start -> 16 | Idle_end -> 17 | Ctx_switch -> 18 | Oom -> 19
  | Rcu_stall -> 20 | Fault_inject -> 21 | Grow_retry -> 22
  | Emergency_flush -> 23
  | _ -> -1

let names =
  [|
    "alloc-hit"; "alloc-miss"; "refill"; "flush"; "grow"; "shrink";
    "defer-free"; "latent-merge"; "premove"; "preflush"; "gp-start";
    "gp-end"; "cb-enqueue"; "cb-invoke"; "lock-acquire"; "lock-contended";
    "idle-start"; "idle-end"; "ctx-switch"; "oom"; "rcu-stall";
    "fault-inject"; "grow-retry"; "emergency-flush";
  |]

let kind_count = Array.length names
let kinds =
  List.sort
    (fun x y -> compare (index x) (index y))
    (List.filter (fun e -> index e >= 0) Sim.Probe.all)
let kind_name e = names.(index e)
