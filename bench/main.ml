(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (one section per artifact). Host-time measurement lives in
   perfbench/ (`python3 perfbench/run.py`); the fig6 defer->reuse
   lifetime histograms are `prudence-repro trace fig6 --hist`.

   Scale via environment:
     BENCH_SCALE=0.3  -- workload scale factor (default 1.0)
     BENCH_CPUS=8     -- simulated CPUs
     BENCH_SEED=42
     BENCH_RUNS=1     -- repetitions for mean +/- stdev
     BENCH_OUT=path   -- machine-readable results file (default
                         BENCH_seed.json); virtual-time metrics only, so
                         the file is deterministic in (seed, scale, cpus,
                         runs) and CI can diff it against a committed
                         baseline with `prudence-repro regress` *)

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

(* Every section's reports accumulate here; their attached metrics become
   the machine-readable BENCH_seed.json at the end of the run. *)
let all_reports : Core.Metrics.Report.t list ref = ref []

let section id =
  match Core.Experiments.find id with
  | None -> Format.printf "unknown experiment %s@." id
  | Some e ->
      let t0 = Unix.gettimeofday () in
      let reports = e.Core.Experiments.run params in
      all_reports := !all_reports @ reports;
      Core.Metrics.Report.print_all Format.std_formatter reports;
      Format.printf "(section %s took %.1fs of real time)@.@." id
        (Unix.gettimeofday () -. t0)

let write_bench_json () =
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
      ~metrics:(Core.Metrics.Report.all_metrics !all_reports)
  in
  B.write_file out doc;
  Format.printf "wrote %s (%d metrics)@." out (List.length doc.B.metrics)

let () =
  Format.printf
    "Prudence reproduction benchmark harness (scale=%.2f cpus=%d seed=%d \
     runs=%d)@.@."
    params.Core.Experiments.scale params.Core.Experiments.cpus
    params.Core.Experiments.seed params.Core.Experiments.runs;
  List.iter
    (fun (e : Core.Experiments.experiment) -> section e.Core.Experiments.id)
    Core.Experiments.all;
  write_bench_json ();
  Format.printf "@.done.@."
