(* The table1 phase: the paper's Table I as [experiments table1 --runs N]
   computes it — every app, baseline and u&u heuristic, N noisy runs
   each, on a pool of [nproc] domains, no result cache. The noise seeds
   derive from each job's content key, so the workload seed is unused. *)

open Uu_core
open Uu_harness
open Uu_support
open Common

let apps = Uu_benchmarks.Registry.all

(* The seed [Runner] builds every app instance from. *)
let workload_seed = 0x5EEDL

let speedup rows =
  Stats.geomean
    (List.map (fun (r : Table1.row) -> r.baseline_mean_ms /. r.heuristic_mean_ms) rows)

(* The job list [Table1.compute ~runs] hands to the job graph. *)
let job_list ~runs =
  List.concat_map
    (fun app ->
      [
        Jobs.job app Pipelines.Baseline;
        Jobs.job ~protocol:(Jobs.Noisy { runs }) app Pipelines.Baseline;
        Jobs.job ~protocol:(Jobs.Noisy { runs }) app Pipelines.Uu_heuristic;
      ])
    apps

(* One job through [Runner]'s public compile and simulate calls, timed
   separately, as the job graph runs it on a full queue (sim_jobs 1). *)
let timed_job (j : Jobs.job) =
  let c, compile_s = time (fun () -> Runner.compile j.app j.config) in
  let ms, simulate_s =
    time (fun () ->
        match j.protocol with
        | Jobs.Once -> [ Runner.simulate c ]
        | Jobs.Noisy { runs } ->
          let key = Jobs.key j in
          List.init runs (fun i -> Runner.simulate ~noise_seed:(Jobs.noise_seed ~key i) c))
  in
  (compile_s, simulate_s, ms)

let sim_counters =
  Uu_gpusim.Metrics.
    [
      ("sim.cycles", fun m -> m.cycles);
      ("sim.warp_instrs", fun m -> m.warp_instrs);
      ("sim.mem_transactions", fun m -> m.mem_transactions);
      ("sim.shared_bank_conflicts", fun m -> m.shared_bank_conflicts);
      ("sim.divergent_branches", fun m -> m.divergent_branches);
      ("sim.barrier_wait_cycles", fun m -> m.barrier_wait_cycles);
      ("sim.fetch_stall_cycles", fun m -> m.fetch_stall_cycles);
    ]

(* The simulator layer on one launch of every app under both configs:
   decode time, serial execution time and warp instructions, and the
   same launches sharded over [nproc] domains. *)
let gpusim_layer () =
  let device = Uu_gpusim.Device.v100 in
  let decode = ref 0.0 and exec1 = ref 0.0 and execn = ref 0.0 and winstrs = ref 0 in
  List.iter
    (fun (app : Uu_benchmarks.App.t) ->
      List.iter
        (fun config ->
          let m = Uu_frontend.Lower.compile ~name:app.name app.source in
          List.iter
            (fun f -> ignore (Pipelines.optimize ~options:Uu_opt.Pass.unverified config f))
            m.Uu_ir.Func.funcs;
          let cache = Uu_gpusim.Decode.create_cache () in
          List.iter
            (fun f ->
              decode :=
                !decode +. snd (time (fun () -> Uu_gpusim.Decode.decode_cached cache device f)))
            m.Uu_ir.Func.funcs;
          let launch_all ~sim_jobs =
            let inst = app.setup (Uu_support.Rng.create workload_seed) in
            let config =
              { Uu_gpusim.Kernel.default_config with decode_cache = Some cache; sim_jobs }
            in
            List.fold_left
              (fun (secs, wi) (l : Uu_benchmarks.App.launch) ->
                let f = Option.get (Uu_ir.Func.find_func m l.kernel) in
                let r, s =
                  time (fun () ->
                      Uu_gpusim.Kernel.exec ~config inst.mem f ~grid_dim:l.grid_dim
                        ~block_dim:l.block_dim ~args:l.args)
                in
                (secs +. s, wi + r.Uu_gpusim.Kernel.metrics.warp_instrs))
              (0.0, 0) inst.launches
          in
          let s1, wi = launch_all ~sim_jobs:1 in
          let sn, _ = launch_all ~sim_jobs:(nproc ()) in
          exec1 := !exec1 +. s1;
          execn := !execn +. sn;
          winstrs := !winstrs + wi)
        [ Pipelines.Baseline; Pipelines.Uu_heuristic ])
    apps;
  [
    m "gpusim.decode_ms" "ms" (!decode *. 1000.0);
    m "gpusim.exec_s" "s" !exec1;
    m "gpusim.winstr_per_s" "1/s" (float_of_int !winstrs /. !exec1);
    m "gpusim.shard_speedup" "x" (!exec1 /. !execn);
  ]

(* One [Table1.compute ~runs:20] takes about 4 s, and on a shared machine
   one spreads by 15% from the next even in reference seconds, so the
   phase runs it five times and reports the median: fixed work, which
   [--seconds] does not shorten or stretch. *)
let reps = 5

let untraced ~workload ~runs =
  let failed = ref 0 in
  let per_rep = List.length apps * 3 in
  let sp = speed ~wide:true () in
  let reps =
    List.filter_map
      (fun _ ->
        match timed sp (fun () -> time (fun () -> Table1.compute ~runs ~jobs:(nproc ()) ())) with
        | rows, secs ->
          Printf.eprintf "table1: Table1.compute took %.3f reference s\n%!" secs;
          Some (rows, secs)
        | exception Failure msg ->
          reread sp;
          failed := !failed + per_rep;
          Printf.eprintf "table1: %s\n%!" msg;
          None)
      (List.init reps Fun.id)
  in
  let attempted = (List.length reps * per_rep) + !failed in
  match reps with
  | [] -> { correct = false; attempted; failed = !failed; metrics = [] }
  | (rows, _) :: _ ->
    let digest rows =
      Digest.to_hex
        (Digest.string (String.concat "\n" (List.map (String.concat ",") (Table1.to_csv rows))))
    in
    let h = speedup rows in
    let agree = List.for_all (fun (r, _) -> digest r = digest rows) reps in
    let det = [ ("rows", digest rows); ("heuristic_speedup", Printf.sprintf "%.17g" h) ] in
    {
      correct = agree && same_as_last_run ~workload:(workload ^ "-table1") det && !failed = 0;
      attempted;
      failed = !failed;
      metrics =
        [
          m "table1_s" "s" (Stats.median (List.map snd reps));
          m "heuristic_speedup" "x" h;
        ];
    }

let traced ~workload ~runs =
  let jobs = job_list ~runs in
  let sp = speed ~wide:true () in
  let results, wall =
    time (fun () -> Uu_support.Parallel.map_result ~jobs:(nproc ()) timed_job jobs)
  in
  let k = scale sp in
  let wall = wall *. k in
  let failed = ref 0 and compile_s = ref 0.0 and simulate_s = ref 0.0 in
  let totals = Array.make (List.length sim_counters) 0 in
  List.iter2
    (fun (j : Jobs.job) r ->
      match r with
      | Error e ->
        incr failed;
        Printf.eprintf "table1: %s failed: %s\n%!" (Jobs.label j) (Printexc.to_string e)
      | Ok (c, s, ms) ->
        compile_s := !compile_s +. (c *. k);
        simulate_s := !simulate_s +. (s *. k);
        List.iter
          (fun (meas : Runner.measurement) ->
            (match meas.check with
            | Ok () -> ()
            | Error msg ->
              incr failed;
              Printf.eprintf "table1: %s: oracle check failed: %s\n%!" (Jobs.label j) msg);
            List.iteri
              (fun i (_, get) -> totals.(i) <- totals.(i) + get meas.metrics)
              sim_counters)
          ms)
    jobs results;
  let sims =
    List.mapi (fun i (name, _) -> m name "count" (float_of_int totals.(i))) sim_counters
  in
  let det = List.map (fun x -> (x.name, Printf.sprintf "%.0f" x.value)) sims in
  let busy = !compile_s +. !simulate_s in
  let _, inventory_s =
    time (fun () ->
        Uu_support.Parallel.map ~jobs:(nproc ())
          (fun app -> List.length (Runner.loop_inventory app))
          apps)
  in
  {
    correct = !failed = 0 && same_as_last_run ~workload:(workload ^ "-sim") det;
    attempted = List.length jobs;
    failed = !failed;
    metrics =
      [
        m "traced.table1_s" "s" wall;
        m "runner.compile_s" "s" !compile_s;
        m "runner.simulate_s" "s" !simulate_s;
        m "jobs.pool_utilization" "ratio" (busy /. (float_of_int (nproc ()) *. wall));
        m "runner.loop_inventory_s" "s" inventory_s;
      ]
      @ gpusim_layer () @ sims;
  }

let run ~workload ~runs ~trace =
  if trace then traced ~workload ~runs else untraced ~workload ~runs
