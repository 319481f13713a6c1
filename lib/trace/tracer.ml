type t = {
  engine : Sim.Engine.t;
  ncpus : int;
  rings : Event.t Ring.t array;
      (* one ring per CPU plus a final ring for machine-global events
         (cpu = -1): grace-period bookkeeping has no owning CPU. *)
  gp_latency : Hist.t;
  lock_wait : Hist.t;
  alloc_cost : Hist.t;
  mutable gp_started : int;  (* start of the open grace period; -1 none *)
}

let default_ring_capacity = 65_536

let record t kind ~cpu ~a ~b =
  let time = Sim.Engine.now t.engine in
  let label, arg =
    match kind with
    | Sim.Probe.Gp_start ->
        t.gp_started <- time;
        (0, a)
    | Gp_end ->
        if t.gp_started >= 0 then
          Hist.record t.gp_latency (time - t.gp_started);
        t.gp_started <- -1;
        (a, b)
    | Lock_contended ->
        Hist.record t.lock_wait b;
        (a, b)
    | _ -> (a, b)
  in
  let ring =
    if cpu >= 0 && cpu < t.ncpus then t.rings.(cpu) else t.rings.(t.ncpus)
  in
  let label = Sim.Probe.label (Sim.Engine.probe t.engine) label in
  Ring.push ring { Event.time; cpu; kind; label; arg }

let create ?(ring_capacity = default_ring_capacity) ~ncpus engine =
  if ncpus <= 0 then invalid_arg "Tracer.create: ncpus must be positive";
  let t =
    {
      engine;
      ncpus;
      rings =
        Array.init (ncpus + 1) (fun _ -> Ring.create ~capacity:ring_capacity);
      gp_latency = Hist.create ();
      lock_wait = Hist.create ();
      alloc_cost = Hist.create ();
      gp_started = -1;
    }
  in
  let probe = Sim.Engine.probe engine in
  Sim.Probe.subscribe probe Event.kinds (record t);
  Sim.Probe.subscribe probe [ Alloc_cost ] (fun _ ~cpu:_ ~a:_ ~b ->
      Hist.record t.alloc_cost b);
  t

let ncpus t = t.ncpus
let gp_latency t = t.gp_latency
let lock_wait t = t.lock_wait
let alloc_cost t = t.alloc_cost

let events t =
  let all =
    Array.fold_left (fun acc ring -> List.rev_append (Ring.to_list ring) acc) []
      t.rings
  in
  (* Stable by construction within a ring; merge across rings by time. *)
  List.stable_sort
    (fun (a : Event.t) (b : Event.t) -> compare a.Event.time b.Event.time)
    (List.rev all)

let recent_events t ~cpu n =
  let idx = if cpu >= 0 && cpu < t.ncpus then cpu else t.ncpus in
  Ring.recent t.rings.(idx) n

let total_events t = Array.fold_left (fun acc r -> acc + Ring.length r) 0 t.rings
let total_dropped t = Array.fold_left (fun acc r -> acc + Ring.dropped r) 0 t.rings
