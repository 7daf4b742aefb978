open Uu_support
open Uu_core

type row = {
  name : string;
  category : string;
  cli : string;
  loops : int;
  compute_fraction : float;
  baseline_mean_ms : float;
  baseline_rsd : float;
  heuristic_mean_ms : float;
  heuristic_rsd : float;
}

(* Three jobs per application: a deterministic baseline run (for the
   compute fraction) and the two noisy 20-run protocols, which compile
   once and re-simulate with per-job-key noise seeds (SIV-B). All apps'
   jobs go to the pool as one batch. *)
let compute ?(runs = 20) ?(apps = Uu_benchmarks.Registry.all) ?jobs ?sim_jobs
    ?cache () =
  let per_app =
    List.map
      (fun (app : Uu_benchmarks.App.t) ->
        [
          Jobs.job app Pipelines.Baseline;
          Jobs.job ~protocol:(Jobs.Noisy { runs }) app Pipelines.Baseline;
          Jobs.job ~protocol:(Jobs.Noisy { runs }) app Pipelines.Uu_heuristic;
        ])
      apps
  in
  let results = Jobs.run_all ?jobs ?sim_jobs ?cache (List.concat per_app) in
  let loop_counts =
    Parallel.map ?jobs (fun app -> List.length (Runner.loop_inventory app)) apps
  in
  let kernel_times rs = List.map (fun (m : Runner.measurement) -> m.Runner.kernel_ms) rs in
  let rec rows apps loop_counts results =
    match (apps, loop_counts, results) with
    | [], [], [] -> []
    | (app : Uu_benchmarks.App.t) :: apps', loops :: counts', b :: bn :: hn :: results' ->
      let base = List.hd (Jobs.measurements_exn b) in
      let base_times = kernel_times (Jobs.measurements_exn bn) in
      let heur_times = kernel_times (Jobs.measurements_exn hn) in
      {
        name = app.Uu_benchmarks.App.name;
        category = app.Uu_benchmarks.App.category;
        cli = app.Uu_benchmarks.App.cli;
        loops;
        compute_fraction =
          base.Runner.kernel_ms /. (base.Runner.kernel_ms +. base.Runner.transfer_ms);
        baseline_mean_ms = Stats.mean base_times;
        baseline_rsd = Stats.rsd base_times;
        heuristic_mean_ms = Stats.mean heur_times;
        heuristic_rsd = Stats.rsd heur_times;
      }
      :: rows apps' counts' results'
    | _ -> assert false
  in
  rows apps loop_counts results

let csv_header =
  [
    "name"; "category"; "cli"; "loops"; "compute_pct"; "baseline_mean_ms";
    "baseline_rsd_pct"; "heuristic_mean_ms"; "heuristic_rsd_pct";
  ]

let to_csv rows =
  List.map
    (fun r ->
      [
        r.name; r.category; r.cli; string_of_int r.loops;
        Printf.sprintf "%.2f" (100.0 *. r.compute_fraction);
        Printf.sprintf "%.3f" r.baseline_mean_ms;
        Printf.sprintf "%.2f" (100.0 *. r.baseline_rsd);
        Printf.sprintf "%.3f" r.heuristic_mean_ms;
        Printf.sprintf "%.2f" (100.0 *. r.heuristic_rsd);
      ])
    rows

let render rows =
  Report.render_table
    ~header:
      [ "Name"; "Category"; "L"; "%C"; "Baseline (ms +- RSD)"; "Heuristic (ms +- RSD)" ]
    (List.map
       (fun r ->
         [
           r.name;
           r.category;
           string_of_int r.loops;
           Report.pct r.compute_fraction;
           Printf.sprintf "%s +- %s" (Report.ms r.baseline_mean_ms)
             (Report.pct r.baseline_rsd);
           Printf.sprintf "%s +- %s" (Report.ms r.heuristic_mean_ms)
             (Report.pct r.heuristic_rsd);
         ])
       rows)
