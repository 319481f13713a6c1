type op =
  | Acquire of string
  | Release of string
  | Release_deferred of string
  | Release_newest of string
  | Work of int

type cache_spec = { cache_name : string; obj_size : int }

type config = {
  bench_name : string;
  caches : cache_spec list;
  standing : (string * int) list;
      (* Objects acquired per CPU at startup and held for the whole run:
         listening sockets, open connections, resident files. They make
         end-of-run "requested bytes" non-zero, as in the paper's runs. *)
  gen_txn : Sim.Rng.t -> op list;
  txns_per_cpu : int;
  think_ns_mean : float;
}

type cache_result = {
  cache_name : string;
  snap : Slab.Slab_stats.snapshot;
  fragmentation : float;
  lock_contended : int;
  lock_wait_ns : int;
}

(* Running mean of a cache's fragmentation, sampled during the run (the
   end-of-run pools can be empty, which would make the §4.2 ratio
   undefined). *)
type frag_meter = { mutable sum : float; mutable n : int }

type result = {
  label : string;
  bench_name : string;
  txns : int;
  duration_ns : int;
  throughput : float;
  deferred_pct : float;
  caches : cache_result list;
  oom : bool;
  safety_violations : int;
}

(* A cache of the run, resolved from its name once: ops find it by a
   scan over these few slots instead of a string lookup per cache and
   another per pool. *)
type slot = { name : string; cache : Slab.Frame.cache; meter : frag_meter }

let rec index_from (slots : slot array) name i =
  if i = Array.length slots then -1
  else if String.equal slots.(i).name name then i
  else index_from slots name (i + 1)

let index_of slots name = index_from slots name 0

let index_exn slots name =
  let i = index_of slots name in
  if i < 0 then invalid_arg (Printf.sprintf "Appmodel: unknown cache %s" name);
  i

let run (env : Env.t) (cfg : config) =
  let backend = env.Env.backend in
  let slots =
    Array.of_list
      (List.map
         (fun (spec : cache_spec) ->
           {
             name = spec.cache_name;
             cache =
               backend.Slab.Backend.create_cache ~name:spec.cache_name
                 ~obj_size:spec.obj_size;
             meter = { sum = 0.; n = 0 };
           })
         cfg.caches)
  in
  let ncpus = Sim.Machine.nr_cpus env.Env.machine in
  let txns = ref 0 in
  let oom = ref false in
  let finish_times = ref [] in
  Sim.Engine.every env.Env.eng ~period:1_000_000 (fun () ->
      Array.iter
        (fun slot ->
          let f = Slab.Frame.fragmentation slot.cache in
          if not (Float.is_nan f) then begin
            slot.meter.sum <- slot.meter.sum +. f;
            slot.meter.n <- slot.meter.n + 1
          end)
        slots;
      true);
  for i = 0 to ncpus - 1 do
    let cpu = Env.cpu env i in
    let rng = Sim.Rng.split env.Env.rng in
    Sim.Process.spawn env.Env.eng (fun () ->
        (* This CPU's held objects, one pool per slot: a deque so
           transactions can release oldest-first (typical kernel
           lifetimes) or newest-first (scratch buffers). *)
        let pools = Array.map (fun _ -> Sim.Deque.create ()) slots in
        (* The held object a release takes, or -1 when the pool is empty
           (or the cache unknown: nothing was ever acquired from it). *)
        let held name =
          let i = index_of slots name in
          if i >= 0 && Sim.Deque.length pools.(i) > 0 then i else -1
        in
        let exec_op = function
          | Acquire name -> (
              let i = index_exn slots name in
              match backend.Slab.Backend.alloc slots.(i).cache cpu with
              | Some obj -> Sim.Deque.push_back pools.(i) obj
              | None ->
                  oom := true;
                  raise Exit)
          | Release name ->
              let i = held name in
              if i >= 0 then
                backend.Slab.Backend.free slots.(i).cache cpu
                  (Sim.Deque.pop_front_exn pools.(i))
          | Release_newest name ->
              let i = held name in
              if i >= 0 then
                backend.Slab.Backend.free slots.(i).cache cpu
                  (Sim.Deque.pop_back_exn pools.(i))
          | Release_deferred name ->
              let i = held name in
              if i >= 0 then
                backend.Slab.Backend.free_deferred slots.(i).cache cpu
                  (Sim.Deque.pop_front_exn pools.(i))
          | Work ns -> Sim.Machine.consume cpu ns
        in
        (try
           List.iter
             (fun (name, count) ->
               let cache = slots.(index_exn slots name).cache in
               for _ = 1 to count do
                 match backend.Slab.Backend.alloc cache cpu with
                 | Some _obj -> () (* held for the whole run *)
                 | None ->
                     oom := true;
                     raise Exit
               done)
             cfg.standing;
           for _ = 1 to cfg.txns_per_cpu do
             List.iter exec_op (cfg.gen_txn rng);
             incr txns;
             (* Charge the transaction's accumulated cost, then think
                (idle: pre-flush opportunity). *)
             Sim.Process.sleep env.Env.eng (Sim.Machine.drain cpu);
             let think =
               int_of_float
                 (Sim.Rng.exponential rng ~mean:cfg.think_ns_mean)
             in
             Sim.Machine.idle_sleep env.Env.machine cpu think
           done
         with Exit -> ());
        finish_times := Sim.Engine.now env.Env.eng :: !finish_times)
  done;
  Sim.Engine.run_until_quiet env.Env.eng;
  let duration = max 1 (List.fold_left max 0 !finish_times) in
  (* Settle deferred objects before the end-of-run measurements (§5.4
     measures fragmentation "after the completion of each run"). *)
  Sim.Process.spawn env.Env.eng (fun () -> backend.Slab.Backend.settle ());
  Sim.Engine.run_until_quiet env.Env.eng;
  let total_frees, total_deferred =
    Array.fold_left
      (fun (f, d) slot ->
        let s = Slab.Slab_stats.snapshot slot.cache.Slab.Frame.stats in
        (f + s.Slab.Slab_stats.frees, d + s.Slab.Slab_stats.deferred_frees))
      (0, 0) slots
  in
  {
    label = backend.Slab.Backend.label;
    bench_name = cfg.bench_name;
    txns = !txns;
    duration_ns = duration;
    throughput = float_of_int !txns /. (float_of_int duration /. 1e9);
    deferred_pct =
      (if total_frees + total_deferred = 0 then 0.
       else
         100.
         *. float_of_int total_deferred
         /. float_of_int (total_frees + total_deferred));
    caches =
      List.map
        (fun { name; cache; meter } ->
          let contended, wait = Env.node_lock_stats env cache in
          let sampled_frag =
            if meter.n = 0 then Slab.Frame.fragmentation cache
            else meter.sum /. float_of_int meter.n
          in
          {
            cache_name = name;
            snap = Slab.Slab_stats.snapshot cache.Slab.Frame.stats;
            fragmentation = sampled_frag;
            lock_contended = contended;
            lock_wait_ns = wait;
          })
        (Array.to_list slots);
    oom = !oom;
    safety_violations = List.length (Env.safety_violations env);
  }
