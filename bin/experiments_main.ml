(* Regenerate every table and figure of the paper's evaluation:
   `experiments all` writes text renderings to stdout and CSV data under
   results/ (the artifact's equivalent of run_all.sh + plot scripts).

   Execution goes through the Uu_harness.Jobs graph: measurements run on
   a domain pool (--jobs) and are served from the on-disk result cache
   under <out>/cache (disable with --no-cache); --stats prints the
   scheduler's cache-hit counters after the run. *)

open Cmdliner
open Uu_harness

let runs_arg =
  Arg.(value & opt int 20 & info [ "runs" ] ~docv:"N" ~doc:"Runs per config for Table I")

let out_arg =
  Arg.(value & opt string "results" & info [ "o"; "out" ] ~docv:"DIR" ~doc:"CSV output directory")

let apps_arg =
  Arg.(
    value & opt (some string) None
    & info [ "apps" ] ~docv:"NAMES" ~doc:"Comma-separated subset of applications")

let jobs_arg =
  Arg.(
    value & opt (some int) None
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Domain-pool size for experiment jobs (default: all available cores)")

let sim_jobs_arg =
  Arg.(
    value & opt (some int) None
    & info [ "sim-jobs" ] ~docv:"N"
        ~doc:
          "Block-shard width inside each simulated launch. Measurements are \
           byte-identical for any value (default: budgeted from the cores the \
           job pool leaves over — a full queue simulates serially, a lone job \
           gets every core)")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Recompute every job instead of serving repeats from DIR/cache")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"Print scheduler statistics (jobs run, cache hits/misses) after the run")

let configs_arg =
  Arg.(
    value & opt (some string) None
    & info [ "configs" ] ~docv:"NAMES"
        ~doc:
          "For $(b,sweep): comma-separated configurations to report (e.g. \
           uu-4,unroll-2,unmerge); default: all swept configurations")

type ctx = {
  runs : int;
  out : string;
  apps : Uu_benchmarks.App.t list;
  jobs : int option;
  sim_jobs : int option;
  cache : Result_cache.t option;
  stats : bool;
}

let select_apps = function
  | None -> Uu_benchmarks.Registry.all
  | Some names ->
    let wanted = String.split_on_char ',' names in
    List.filter_map
      (fun n ->
        match Uu_benchmarks.Registry.find (String.trim n) with
        | Some a -> Some a
        | None ->
          Printf.eprintf "warning: unknown app %s\n" n;
          None)
      wanted

let make_ctx runs out apps jobs sim_jobs no_cache stats =
  {
    runs;
    out;
    apps = select_apps apps;
    jobs;
    sim_jobs;
    cache =
      (if no_cache then None
       else Some (Result_cache.create ~dir:(Filename.concat out "cache")));
    stats;
  }

let ctx_term =
  Term.(
    const make_ctx $ runs_arg $ out_arg $ apps_arg $ jobs_arg $ sim_jobs_arg
    $ no_cache_arg $ stats_arg)

let print_scheduler_stats ctx extra =
  if ctx.stats then begin
    let cache_counters =
      match ctx.cache with
      | Some c ->
        [
          ("harness.cache_hits", Result_cache.hits c);
          ("harness.cache_misses", Result_cache.misses c);
        ]
      | None -> [ ("harness.cache_hits", 0) ]
    in
    print_endline "== Scheduler statistics ==";
    print_string (Report.render_stats (cache_counters @ extra))
  end

let print_failures failures =
  List.iter
    (fun (f : Jobs.failure) ->
      Printf.eprintf "FAILED %s: %s\n%!" f.Jobs.job_label f.Jobs.message)
    failures

let do_table1 ctx =
  let rows =
    Table1.compute ~runs:ctx.runs ~apps:ctx.apps ?jobs:ctx.jobs
      ?sim_jobs:ctx.sim_jobs ?cache:ctx.cache ()
  in
  print_string (Table1.render rows);
  Printf.printf "heuristic geomean speedup over %d apps: %.4fx\n" (List.length rows)
    (Uu_support.Stats.geomean
       (List.map (fun (r : Table1.row) -> r.baseline_mean_ms /. r.heuristic_mean_ms) rows));
  Report.write_csv
    ~path:(Filename.concat ctx.out "table1.csv")
    ~header:Table1.csv_header (Table1.to_csv rows)

let with_sweep ctx k =
  Printf.eprintf "running the per-loop sweep (%d apps)...\n%!" (List.length ctx.apps);
  let sweep =
    Sweep.run ~apps:ctx.apps ?jobs:ctx.jobs ?sim_jobs:ctx.sim_jobs ?cache:ctx.cache ()
  in
  print_failures sweep.Sweep.failures;
  Report.write_csv
    ~path:(Filename.concat ctx.out "fig6.csv")
    ~header:Figures.fig6_csv_header (Figures.fig6_csv sweep);
  Report.write_csv
    ~path:(Filename.concat ctx.out "fig7.csv")
    ~header:Figures.fig7_csv_header (Figures.fig7_csv sweep);
  Report.write_csv
    ~path:(Filename.concat ctx.out "fig8.csv")
    ~header:Figures.fig8_csv_header (Figures.fig8_csv sweep);
  k sweep

let do_counters () =
  print_endline "== In-depth counters (paper SV) ==";
  print_string (Counters.render (Counters.analyze ()))

let cmd name doc run = Cmd.v (Cmd.info name ~doc) Term.(const run $ ctx_term)

let table1_cmd = cmd "table1" "Regenerate Table I" do_table1

let fig_cmd name doc render =
  cmd name doc (fun ctx ->
      with_sweep ctx (fun sweep ->
          print_string (render sweep);
          print_scheduler_stats ctx
            [ ("harness.sweep_points", List.length sweep.Sweep.points) ]))

let fig6a_cmd = fig_cmd "fig6a" "Per-loop u&u speedups (Fig. 6a)" Figures.fig6a
let fig6b_cmd = fig_cmd "fig6b" "Per-loop code-size increases (Fig. 6b)" Figures.fig6b
let fig6c_cmd = fig_cmd "fig6c" "Per-loop compile-time increases (Fig. 6c)" Figures.fig6c
let fig7_cmd = fig_cmd "fig7" "u&u vs unroll vs unmerge per app (Fig. 7)" Figures.fig7
let fig8_cmd =
  fig_cmd "fig8" "Per-loop scatter data (Figs. 8a/8b)" (fun sweep ->
      "== Fig 8a (u&u vs unroll) ==\n" ^ Figures.fig8a sweep
      ^ "\n== Fig 8b (u&u vs unmerge) ==\n" ^ Figures.fig8b sweep)

(* The job-graph front door: run the measurement matrix (optionally for a
   config subset), write the figure CSVs, and report per-config geomeans —
   the smoke-test entry point the CI cache check drives. *)
let do_sweep ctx configs =
  let configs =
    match configs with
    | None -> None
    | Some names ->
      Some
        (List.filter_map
           (fun n ->
             match Uu_core.Pipelines.config_of_string (String.trim n) with
             | Ok c -> Some c
             | Error msg ->
               Printf.eprintf "warning: %s\n" msg;
               None)
           (String.split_on_char ',' names))
  in
  with_sweep ctx (fun sweep ->
      let report_configs =
        match configs with Some cs -> cs | None -> Sweep.loop_configs
      in
      print_endline "== Sweep: per-config geomean speedup over swept loops ==";
      List.iter
        (fun config ->
          let points = Sweep.points_for sweep ~config () in
          let speedups = List.map (fun (p : Sweep.point) -> p.Sweep.speedup) points in
          if speedups <> [] then
            Printf.printf "%-16s %3d points, geomean %s\n"
              (Uu_core.Pipelines.config_to_string config)
              (List.length points)
              (Report.ratio (Uu_support.Stats.geomean speedups)))
        report_configs;
      Printf.printf "%d points, %d baselines, %d failures\n"
        (List.length sweep.Sweep.points)
        (List.length sweep.Sweep.baselines)
        (List.length sweep.Sweep.failures);
      print_scheduler_stats ctx
        [ ("harness.sweep_points", List.length sweep.Sweep.points) ];
      if sweep.Sweep.failures <> [] then exit 3)

let sweep_cmd =
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Run the per-loop measurement sweep on the job graph and write the figure \
          CSVs (the machine-checkable entry point: --jobs N for parallelism, \
          --no-cache to force recomputation, --stats for cache counters)")
    Term.(const (fun ctx configs -> do_sweep ctx configs) $ ctx_term $ configs_arg)

let counters_cmd = cmd "counters" "In-depth counter analysis (SV)" (fun _ -> do_counters ())

(* One JSON document per application with the full remark stream and the
   statistic-counter deltas of its heuristic-config compilation, so the
   transform decisions behind Table I are machine-checkable. *)
let do_remarks ctx =
  List.iter
    (fun (app : Uu_benchmarks.App.t) ->
      let compiled = Runner.compile app Uu_core.Pipelines.Uu_heuristic in
      let remarks = Runner.compiled_remarks compiled in
      let stats = Runner.compiled_stats compiled in
      let path =
        Filename.concat ctx.out ("remarks_" ^ app.Uu_benchmarks.App.name ^ ".json")
      in
      Report.write_text ~path
        (Printf.sprintf "{\"app\":\"%s\",\n\"config\":\"heuristic\",\n\"remarks\":%s,\n\"stats\":%s}\n"
           app.Uu_benchmarks.App.name
           (Uu_support.Remark.list_to_json remarks)
           (Uu_support.Remark.stats_to_json stats));
      Printf.printf "%-12s %3d remarks -> %s\n" app.Uu_benchmarks.App.name
        (List.length remarks) path;
      print_string (Report.render_stats stats))
    ctx.apps

let remarks_cmd =
  cmd "remarks" "Dump per-app optimization remarks and pass statistics as JSON" do_remarks

let do_ablations ctx =
  print_endline "== Ablations (design decisions; see DESIGN.md) ==";
  print_string
    (Ablation.render
       (Ablation.run ?jobs:ctx.jobs ?sim_jobs:ctx.sim_jobs ?cache:ctx.cache ()))

let ablations_cmd =
  cmd "ablations" "Transform-design ablations (order, DBDS, selective)" do_ablations

let all_cmd =
  cmd "all" "Regenerate everything (Table I, Figs. 6-8, counters)" (fun ctx ->
      print_endline "== Table I ==";
      do_table1 ctx;
      with_sweep ctx (fun sweep ->
          print_endline "== Fig 6a: per-loop u&u speedup ==";
          print_string (Figures.fig6a sweep);
          print_endline "== Fig 6b: per-loop code size increase ==";
          print_string (Figures.fig6b sweep);
          print_endline "== Fig 6c: per-loop compile time increase ==";
          print_string (Figures.fig6c sweep);
          print_endline "== Fig 7: per-app best speedups ==";
          print_string (Figures.fig7 sweep);
          print_endline "== Fig 8a: u&u vs unroll (per loop) ==";
          print_string (Figures.fig8a sweep);
          print_endline "== Fig 8b: u&u vs unmerge (per loop) ==";
          print_string (Figures.fig8b sweep);
          print_endline (Figures.geomean_summary sweep));
      do_counters ();
      do_ablations ctx;
      print_endline "== Optimization remarks (heuristic config) ==";
      do_remarks ctx;
      print_scheduler_stats ctx [];
      Printf.printf "CSV data written under %s/\n" ctx.out)

let () =
  let info =
    Cmd.info "experiments" ~version:"1.0"
      ~doc:"Regenerate the paper's tables and figures on the SIMT simulator"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            table1_cmd; sweep_cmd; fig6a_cmd; fig6b_cmd; fig6c_cmd; fig7_cmd; fig8_cmd;
            counters_cmd; ablations_cmd; remarks_cmd; all_cmd;
          ]))
