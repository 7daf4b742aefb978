(* The repository benchmark: one workload per invocation.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Every workload runs the same phases on its own inputs — a set-up, a
   compile phase over its configurations and a table1 phase at its run
   count; traced runs add the serve phase — so each reports every
   metric. The last line of stdout is the JSON result: the end-to-end
   metrics with --trace 0, the per-layer metrics with --trace 1. See
   README.md. *)

open Uu_core
open Common

type workload = {
  configs : Pipelines.config list;  (** of the compile phase *)
  runs : int;  (** noisy runs per table1 job *)
}

let workloads =
  [
    ("compile-sweep", { configs = Pipelines.[ Baseline; Uu 2; Uu 4; Uu 8; Uu_heuristic ]; runs = 5 });
    ("table1", { configs = Pipelines.[ Baseline; Uu_heuristic ]; runs = 20 });
  ]

(* Set-up: parse and lower every app and build every app instance, about
   21 ms a pass, single-domain. *)
let setup () =
  List.iter
    (fun (a : Uu_benchmarks.App.t) ->
      ignore (Uu_frontend.Lower.compile ~name:a.name a.source);
      ignore (a.setup (Uu_support.Rng.create Table1_bench.workload_seed)))
    Uu_benchmarks.Registry.all

let run ~name w ~seed ~seconds ~trace =
  let setup_s = if trace then [] else [ m "setup_s" "s" (setup_time ~passes:5 setup) ] in
  let phases =
    [
      Compile_sweep.run ~workload:name ~configs:w.configs ~trace;
      Table1_bench.run ~workload:name ~runs:w.runs ~trace;
    ]
    @ if trace then [ Serve_mix.run ~seed ~seconds ] else []
  in
  let rss = m "peak_rss_mb" "MiB" (peak_rss_mb "self") in
  let metrics = List.concat_map (fun o -> o.metrics) phases in
  {
    correct = List.for_all (fun o -> o.correct) phases;
    attempted = List.fold_left (fun a o -> a + o.attempted) 0 phases;
    failed = List.fold_left (fun a o -> a + o.failed) 0 phases;
    metrics =
      (if trace then
         m "host.reference_ms" "ms" (Uu_support.Stats.median !readings *. 1000.0) :: metrics
       else setup_s @ metrics @ [ rss ]);
  }

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME one of the workloads");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S how long to measure");
      ("--trace", Arg.Set_int trace, "0|1 per-layer metrics instead of end-to-end");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  match List.assoc_opt !workload workloads with
  | None ->
    Printf.eprintf "unknown workload %S (known: %s)\n" !workload
      (String.concat ", " (List.map fst workloads));
    exit 2
  | Some w ->
    at_exit Serve_mix.abandon;
    List.iter
      (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 1)))
      [ Sys.sigterm; Sys.sigint ];
    let o =
      run ~name:!workload w ~seed:!seed ~seconds:(max 1 !seconds) ~trace:(!trace = 1)
    in
    let finite = List.for_all (fun x -> Float.is_finite x.value) o.metrics in
    if not finite then prerr_endline "a metric is not a finite number";
    print_result { o with correct = o.correct && finite }
