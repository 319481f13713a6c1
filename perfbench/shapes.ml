(* The benchmark's three workloads, each a fixed simulated input that
   is timed to completion on every allocator/SMR stack.

   All three are closed loops in simulated time: every simulated CPU
   issues its next operation once the previous one (plus pacing or think
   time) has completed. The stack is driven only through public entry
   points: [Workloads.Env.build], the [Slab.Backend.t] record,
   [Workloads.Endurance.run], [Workloads.Appmodel.run], [Rcudata.Rcuhash]
   and [Sim.Engine]. *)

module W = Workloads

type outcome = {
  ops : int;  (** Workload operations completed. *)
  sim_ns : int;  (** Simulated time the operations span. *)
  oom : bool;  (** The run ended in simulated out-of-memory. *)
  problems : string list;  (** Failed correctness checks; [] if correct. *)
}

(* One simulated run on one stack. [prepare ~seed] generates the run's
   inputs (timed as set-up) and returns the body, which gets the built
   environment — its backend already wrapped — and the benchmark's span
   recorder. *)
type run = {
  run_name : string;
  env_config : W.Env.kind -> seed:int -> W.Env.config;
  slice_ns : int;  (** Simulated time per host-timing slice. *)
  prepare : seed:int -> W.Env.t -> Bspan.t -> outcome;
}

(* Every workload runs on all four stacks, [W.Env.all_kinds], in order. *)
type t = { name : string; runs : run list }

let check cond msg acc = if cond then acc else msg :: acc

let base kind ~seed =
  { W.Env.default_config with W.Env.kind; seed; cpus = 8; debug_checks = false }

(* ------------------------------------------------------------------ *)
(* endurance: the Fig. 3 shape                                          *)
(* ------------------------------------------------------------------ *)

(* Throttled callback invocation (blimit 10), as in the paper's §3.5
   kernel: the baseline's deferred-free backlog outgrows memory. *)
let throttled_rcu =
  {
    Rcu.default_config with
    Rcu.blimit = 10;
    expedited_blimit = 30;
    softirq_period_ns = 1_000_000;
    qhimark = max_int;
  }

let endurance_ns = Sim.Clock.ms 2_400

let endurance_run =
  {
    run_name = "endurance";
    env_config =
      (fun kind ~seed ->
        {
          (base kind ~seed) with
          W.Env.total_pages = 65_536 (* 256 MiB *);
          rcu_config = throttled_rcu;
        });
    slice_ns = Sim.Clock.ms 1;
    prepare =
      (fun ~seed:_ env _spans ->
        let r =
          W.Endurance.run env
            {
              W.Endurance.default_config with
              W.Endurance.duration_ns = endurance_ns;
              obj_size = 512;
              list_len = 64;
            }
        in
        let oom = r.W.Endurance.oom_at_ns <> None in
        {
          ops = r.W.Endurance.updates;
          sim_ns = Sim.Engine.now env.W.Env.eng;
          oom;
          problems =
            []
            |> check (r.W.Endurance.updates > 0) "endurance: no update completed"
            |> check
                 (r.W.Endurance.safety_violations = 0)
                 "endurance: reader safety violation";
        });
  }

(* The caller checks the paper's Fig. 3 outcome: SLUB runs out of
   memory and every latent-cache stack does not. *)
let endurance =
  { name = "endurance"; runs = [ endurance_run ] }

(* ------------------------------------------------------------------ *)
(* apps: the four §5.3 transaction mixes                                *)
(* ------------------------------------------------------------------ *)

(* The Figs. 7-13 environment: 250 us tick, bursty callback batches. *)
let app_env kind ~seed =
  {
    (base kind ~seed) with
    W.Env.tick_ns = 250_000;
    rcu_config =
      {
        Rcu.default_config with
        Rcu.softirq_period_ns = 250_000;
        blimit = 100;
        expedited_blimit = 400;
      };
  }

let app_run run_name (config : W.Appmodel.config) =
  {
    run_name;
    env_config = app_env;
    slice_ns = Sim.Clock.ns 2_500;
    prepare =
      (fun ~seed:_ env _spans ->
        let r = W.Appmodel.run env config in
        let cpus = Sim.Machine.nr_cpus env.W.Env.machine in
        {
          ops = r.W.Appmodel.txns;
          sim_ns = r.W.Appmodel.duration_ns;
          oom = r.W.Appmodel.oom;
          problems =
            []
            |> check (not r.W.Appmodel.oom) (run_name ^ ": out of memory")
            |> check
                 (r.W.Appmodel.txns = cpus * config.W.Appmodel.txns_per_cpu)
                 (run_name ^ ": transactions lost")
            |> check
                 (r.W.Appmodel.safety_violations = 0)
                 (run_name ^ ": reader safety violation");
        });
  }

let apps =
  {
    name = "apps";
    runs =
      [
        app_run "postmark" (W.Postmark.config ~txns_per_cpu:1_250 ());
        app_run "netperf" (W.Netperf.config ~txns_per_cpu:1_250 ());
        app_run "apache" (W.Apache.config ~txns_per_cpu:1_250 ());
        app_run "postgresql" (W.Postgresql.config ~txns_per_cpu:950 ());
      ];
  }

(* ------------------------------------------------------------------ *)
(* routing: a read-mostly RCU hash table                                *)
(* ------------------------------------------------------------------ *)

let routes = 4_096
let buckets = 1_024
let routing_ns = Sim.Clock.ms 100
let lookup_pace_ns = 1_000
let update_pace_ns = 5_000

(* Per-CPU key streams, cycled by the closed loops. *)
let stream_len = 16_384

let routing_run =
  {
    run_name = "routing";
    env_config =
      (fun kind ~seed -> { (base kind ~seed) with W.Env.track_readers = true });
    slice_ns = Sim.Clock.us 50;
    prepare =
      (fun ~seed ->
        let rng = Sim.Rng.create ~seed:(seed lxor 0x5eed) in
        let stream () = Array.init stream_len (fun _ -> Sim.Rng.int rng routes) in
        let initial = Array.init routes (fun _ -> Sim.Rng.int rng 1_000_000) in
        let upd_keys = stream () in
        let upd_vals = Array.init stream_len (fun _ -> Sim.Rng.int rng 1_000_000) in
        let read_keys = Array.init 7 (fun _ -> stream ()) in
        fun env spans ->
          let eng = env.W.Env.eng in
          let backend = env.W.Env.backend in
          let cache =
            backend.Slab.Backend.create_cache ~name:"route" ~obj_size:128
          in
          let table =
            Rcudata.Rcuhash.create ~backend ~readers:env.W.Env.readers ~cache
              ~buckets ~name:"fib"
          in
          let expected = Array.copy initial in
          let lookups = ref 0 and misses = ref 0 in
          let updates = ref 0 and failed = ref 0 and ooms = ref 0 in
          Sim.Process.spawn eng (fun () ->
              let cpu = W.Env.cpu env 0 in
              let id = cpu.Sim.Machine.id in
              for k = 0 to routes - 1 do
                Bspan.enter spans eng ~cpu:id Bspan.Hash_insert;
                let ok = Rcudata.Rcuhash.insert table cpu ~key:k ~value:initial.(k) in
                Bspan.exit spans eng ~cpu:id Bspan.Hash_insert;
                if not ok then incr ooms
              done;
              let i = ref 0 in
              while Sim.Engine.now eng < routing_ns do
                let key = upd_keys.(!i mod stream_len)
                and value = upd_vals.(!i mod stream_len) in
                incr i;
                Bspan.enter spans eng ~cpu:id Bspan.Hash_update;
                let r = Rcudata.Rcuhash.update table cpu ~key ~value in
                Bspan.exit spans eng ~cpu:id Bspan.Hash_update;
                (match r with
                | `Updated ->
                    expected.(key) <- value;
                    incr updates
                | `Absent -> incr failed
                | `Oom -> incr ooms);
                Sim.Process.sleep eng (update_pace_ns + Sim.Machine.drain cpu)
              done);
          for c = 1 to 7 do
            Sim.Process.spawn eng (fun () ->
                let cpu = W.Env.cpu env c in
                let keys = read_keys.(c - 1) in
                let i = ref 0 in
                Sim.Process.sleep eng lookup_pace_ns;
                while Sim.Engine.now eng < routing_ns do
                  let key = keys.(!i mod stream_len) in
                  incr i;
                  Bspan.enter spans eng ~cpu:c Bspan.Hash_lookup;
                  let r = Rcudata.Rcuhash.lookup table cpu ~key in
                  Bspan.exit spans eng ~cpu:c Bspan.Hash_lookup;
                  (match r with Some _ -> () | None -> incr misses);
                  incr lookups;
                  Sim.Process.sleep eng (lookup_pace_ns + Sim.Machine.drain cpu)
                done)
          done;
          Sim.Engine.run_until_quiet eng;
          (* Every route must read back as its last published value. *)
          let cpu0 = W.Env.cpu env 0 in
          let stale = ref 0 in
          Array.iteri
            (fun key v ->
              if Rcudata.Rcuhash.lookup table cpu0 ~key <> Some v then incr stale)
            expected;
          {
            ops = !lookups + !updates;
            sim_ns = routing_ns;
            oom = !ooms > 0;
            problems =
              []
              |> check (!ooms = 0) "routing: out of memory"
              |> check (!failed = 0) "routing: an update found its route absent"
              |> check (!misses = 0) "routing: a lookup missed a present route"
              |> check (!stale = 0) "routing: a route read back a stale value"
              |> check (!updates > 0 && !lookups > 0) "routing: no traffic"
              |> check
                   (Rcudata.Rcuhash.size table = routes)
                   "routing: table size changed";
          });
  }

let routing = { name = "routing"; runs = [ routing_run ] }

let all = [ endurance; apps; routing ]
let find name = List.find_opt (fun w -> w.name = name) all
