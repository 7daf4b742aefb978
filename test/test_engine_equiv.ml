(* Engine equivalence: the simulator ([Kernel.exec]) must be
   cycle-for-cycle metric-identical to the reference interpreter
   ([Oracle.exec]), and must leave simulated memory in an identical
   state, for every registry application under Baseline, Uu 4, and
   Uu_heuristic. The reference is the oracle; any divergence here is a
   simulator bug. *)

open Uu_support
open Uu_ir
open Uu_core
open Uu_benchmarks
open Uu_gpusim
open Uu_sim_oracle

let check = Alcotest.check
let bool = Alcotest.bool

let configs = [ Pipelines.Baseline; Pipelines.Uu 4; Pipelines.Uu_heuristic ]

(* Compile + simulate one app on one engine, mirroring the harness
   protocol ([Runner.simulate]): fresh workload from the fixed seed, all
   launches in schedule order, one decode cache per compiled module. *)
let run_engine (exec : Oracle.exec) (app : App.t) config =
  let m = Uu_frontend.Lower.compile ~name:app.App.name app.App.source in
  List.iter
    (fun f -> ignore (Pipelines.optimize ~targets:Pipelines.All_loops config f))
    m.Func.funcs;
  let instance = app.App.setup (Rng.create 0x5EEDL) in
  let total = Metrics.create () in
  let cache = Decode.create_cache () in
  List.iter
    (fun (l : App.launch) ->
      let f =
        match Func.find_func m l.App.kernel with
        | Some f -> f
        | None -> Alcotest.failf "%s: unknown kernel %s" app.App.name l.App.kernel
      in
      let r =
        exec ~config:(Kernel.config ~decode_cache:cache ()) instance.App.mem f
          ~grid_dim:l.App.grid_dim ~block_dim:l.App.block_dim ~args:l.App.args
      in
      Metrics.add total r.Kernel.metrics)
    instance.App.launches;
  (total, Memory.dump instance.App.mem, instance.App.check ())

let same_memory a b =
  List.length a = List.length b
  && List.for_all2
       (fun (i, xs) (j, ys) ->
         i = j
         && Array.length xs = Array.length ys
         && Array.for_all2 Eval.equal xs ys)
       a b

let test_app (app : App.t) () =
  List.iter
    (fun config ->
      let name = Printf.sprintf "%s/%s" app.App.name (Pipelines.config_to_string config) in
      let mr, memr, checkr = run_engine Oracle.exec app config in
      let md, memd, checkd = run_engine Kernel.exec app config in
      if mr <> md then
        Alcotest.failf "%s: metrics diverge@.ref: %s@.dec: %s" name
          (Format.asprintf "%a" Metrics.pp mr)
          (Format.asprintf "%a" Metrics.pp md);
      check bool (name ^ " memory identical") true (same_memory memr memd);
      check bool (name ^ " oracle passes on both") true
        (checkr = Ok () && checkd = Ok ()))
    configs

let suite =
  List.map
    (fun (app : App.t) ->
      Alcotest.test_case app.App.name `Slow (test_app app))
    Registry.all
