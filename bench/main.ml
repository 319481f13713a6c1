(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation, one section per registry experiment, ending with the
   behaviour gate (`gate`). Host-time measurement lives in perfbench/
   (`python3 perfbench/run.py`); the fig6 defer->reuse lifetime
   histograms are `prudence-repro trace fig6 --hist`.

   Scale via environment:
     BENCH_SCALE=0.3  -- workload scale factor (default 1.0)
     BENCH_CPUS=8     -- simulated CPUs
     BENCH_SEED=42
     BENCH_RUNS=1     -- repetitions for mean +/- stdev
     BENCH_OUT=path   -- machine-readable results file (default
                         BENCH_seed.json) that CI diffs against the
                         committed baseline with `prudence-repro regress`.
                         Its Exact and virtual-time rows are deterministic
                         in (seed, scale, cpus, runs); the gate's eight
                         allocs_per_event rows count GC words, so they are
                         replay-stable for one compiler and gate with 10%
                         slack. *)

let getenv_f name default =
  match Sys.getenv_opt name with Some v -> float_of_string v | None -> default

let getenv_i name default =
  match Sys.getenv_opt name with Some v -> int_of_string v | None -> default

let params =
  {
    Core.Experiments.scale = getenv_f "BENCH_SCALE" 1.0;
    seed = getenv_i "BENCH_SEED" 42;
    cpus = getenv_i "BENCH_CPUS" 8;
    runs = getenv_i "BENCH_RUNS" 1;
    trace = None;
  }

let write_bench_json reports =
  let module B = Core.Stats.Bench_json in
  let out = Option.value (Sys.getenv_opt "BENCH_OUT") ~default:"BENCH_seed.json" in
  let doc =
    B.make
      ~config:
        {
          B.seed = params.Core.Experiments.seed;
          scale = params.Core.Experiments.scale;
          cpus = params.Core.Experiments.cpus;
          runs = params.Core.Experiments.runs;
        }
      ~metrics:(Core.Metrics.Report.all_metrics reports)
  in
  B.write_file out doc;
  Format.printf "wrote %s (%d metrics)@." out (List.length doc.B.metrics)

let () =
  Format.printf
    "Prudence reproduction benchmark harness (scale=%.2f cpus=%d seed=%d \
     runs=%d)@.@."
    params.Core.Experiments.scale params.Core.Experiments.cpus
    params.Core.Experiments.seed params.Core.Experiments.runs;
  (* One section per experiment; every report's attached metrics become
     the machine-readable BENCH_seed.json at the end of the run. *)
  let reports =
    List.concat_map
      (fun (e : Core.Experiments.experiment) ->
        let reports = e.Core.Experiments.run params in
        Core.Metrics.Report.print_all Format.std_formatter reports;
        reports)
      Core.Experiments.all
  in
  write_bench_json reports;
  Format.printf "@.done.@."
