(* The compile phase: every registry app under each of a workload's
   configurations, compiled serially and never simulated. The job list
   is fixed, so the workload seed is unused. *)

open Uu_support
open Uu_ir
open Uu_core
open Common

let jobs configs =
  List.concat_map
    (fun app -> List.map (fun config -> (app, config)) configs)
    Uu_benchmarks.Registry.all

(* One job, exactly as [Runner.compile] does it (that function keeps its
   module abstract, so its two public calls are made here): lower, then
   run the verified pipeline on every kernel with a remark sink. *)
type compiled = {
  modul : Func.modul;
  lower_s : float;
  cpu_s : float;  (** lowering plus optimization *)
  reports : Uu_opt.Pass.report list;
}

(* Timed in process CPU time: the compiles run serially on one domain and
   do no I/O, so on an idle machine this equals wall time, but it leaves
   out time the processor spent on other guests of the host. *)
let compile ((app : Uu_benchmarks.App.t), config) =
  let m, lower_s = cpu_time (fun () -> Uu_frontend.Lower.compile ~name:app.name app.source) in
  let reports, opt_s =
    cpu_time (fun () ->
        let sink = Remark.create () in
        let options = { Uu_opt.Pass.default_options with remarks = Some sink } in
        List.map (Pipelines.optimize ~options config) m.Func.funcs)
  in
  { modul = m; lower_s; cpu_s = lower_s +. opt_s; reports }

(* Per-call cost of the analyses every pass recomputes, on one final
   function: (loops, dominance, post-dominance, preds_of) totals in
   seconds and the number of [preds_of] calls. *)
let probe_analyses (f : Func.t) =
  let timed g = snd (cpu_time g) in
  let loops = timed (fun () -> ignore (Uu_analysis.Loops.analyze f)) in
  let dom = timed (fun () -> ignore (Uu_analysis.Dominance.compute f)) in
  let pdom = timed (fun () -> ignore (Uu_analysis.Dominance.compute_post f)) in
  let labels = Hashtbl.fold (fun l _ acc -> l :: acc) f.Func.blocks [] in
  let preds = timed (fun () -> List.iter (fun l -> ignore (Cfg.preds_of f l)) labels) in
  (loops, dom, pdom, preds, List.length labels)

type sample = {
  ms : float;  (** CPU time of the compile *)
  lower : float;
  work : int;
  stats : (string * int) list;
  pass_times : (string * float) list;
  code_bytes : int;
  instrs : int;
  ir : string;  (** digest of the printed IR *)
}

(* The compile's CPU times, multiplied by [k], a factor from
   [Common.scale], in reference seconds. *)
let scaled k c =
  {
    c with
    lower_s = c.lower_s *. k;
    cpu_s = c.cpu_s *. k;
    reports =
      List.map
        (fun (r : Uu_opt.Pass.report) ->
          { r with pass_times = List.map (fun (p, t) -> (p, t *. k)) r.pass_times })
        c.reports;
  }

let sample_of c =
  let funcs = c.modul.Func.funcs in
  {
    ms = c.cpu_s *. 1000.0;
    lower = c.lower_s;
    work = List.fold_left (fun a r -> a + r.Uu_opt.Pass.work) 0 c.reports;
    stats =
      List.fold_left (fun a r -> Statistic.merge a r.Uu_opt.Pass.stats) [] c.reports;
    pass_times = List.concat_map (fun r -> r.Uu_opt.Pass.pass_times) c.reports;
    code_bytes =
      List.fold_left
        (fun a f -> a + Uu_gpusim.Decode.(code_bytes (decode Uu_gpusim.Device.v100 f)))
        0 funcs;
    instrs = List.fold_left (fun a f -> a + Func.instr_count f) 0 funcs;
    ir = Digest.to_hex (Digest.string (String.concat "" (List.map Printer.func_to_string funcs)));
  }

(* Pass times by pass, with the u&u transform (uu-all-xN or
   uu-heuristic, whichever the configuration runs) as one pass "uu", so
   that every workload reports the same passes. *)
let pass_name p = if String.starts_with ~prefix:"uu-" p then "uu" else p

(* One sweep, however long it takes: every app under every configuration
   is the smallest set that covers them, so [seconds] cannot shorten
   it. *)
let run ~workload ~configs ~trace =
  let failed = ref 0 and sp = speed () in
  let analysis = Array.make 4 0.0 and analysis_calls = Array.make 4 0 in
  let samples =
    List.filter_map
      (fun job ->
        (* [n] compiles of the job, read against the host's speed together. *)
        let group n =
          let cs = List.init n (fun _ -> compile job) in
          let k = scale sp in
          List.map (scaled k) cs
        in
        match List.hd (group 1) with
        | c ->
          (* Short compiles are repeated (the sample keeps the median) so
             one scheduler hiccup cannot move a percentile. A compile under
             0.1 s runs four times under one speed reading; one under 0.5 s,
             where the p90 falls, three times with a reading each. *)
          let again =
            if c.cpu_s < 0.1 then group 3
            else if c.cpu_s < 0.5 then group 1 @ group 1
            else []
          in
          let c =
            {
              c with
              cpu_s = Stats.median (List.map (fun x -> x.cpu_s) (c :: again));
              lower_s = Stats.median (List.map (fun x -> x.lower_s) (c :: again));
            }
          in
          (* The analysis probes run outside the compile timing. *)
          if trace then begin
            List.iter
              (fun f ->
                let l, d, p, pr, n = probe_analyses f in
                List.iteri
                  (fun i (t, calls) ->
                    analysis.(i) <- analysis.(i) +. t;
                    analysis_calls.(i) <- analysis_calls.(i) + calls)
                  [ (l, 1); (d, 1); (p, 1); (pr, n) ])
              c.modul.Func.funcs;
            reread sp
          end;
          Some (sample_of c)
        | exception e ->
          reread sp;
          incr failed;
          let app, config = job in
          Printf.eprintf "compile-sweep: %s under %s failed: %s\n%!"
            app.Uu_benchmarks.App.name (Pipelines.config_name config)
            (Printexc.to_string e);
          None)
      (jobs configs)
  in
  let total f = List.fold_left (fun a s -> a + f s) 0 samples in
  let code_bytes = total (fun s -> s.code_bytes) in
  let work = total (fun s -> s.work) in
  let instrs = total (fun s -> s.instrs) in
  let stats = List.fold_left (fun a s -> Statistic.merge a s.stats) [] samples in
  let stat name = Option.value (List.assoc_opt name stats) ~default:0 in
  (* Every earlier run of this build must have produced the same code. *)
  let correct =
    same_as_last_run ~workload:(workload ^ "-compile")
      [
        ("code_bytes", string_of_int code_bytes);
        ("work", string_of_int work);
        ("instrs", string_of_int instrs);
        ("stats", String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) stats));
        ("ir", Digest.to_hex (Digest.string (String.concat "" (List.map (fun s -> s.ir) samples))));
      ]
  in
  let ms = List.map (fun x -> x.ms) samples in
  let compile_s = sum ms /. 1000.0 in
  let e2e =
    [
      m "compile_s" "s" compile_s;
      m "compile_ms_p50" "ms" (Stats.percentile 0.5 ms);
      m "compile_ms_p90" "ms" (Stats.percentile 0.9 ms);
      m "code_bytes" "bytes" (float_of_int code_bytes);
    ]
  in
  let layers () =
    let pass_tbl = Hashtbl.create 32 in
    List.iter
      (fun s ->
        List.iter
          (fun (k, v) ->
            let k = pass_name k in
            Hashtbl.replace pass_tbl k (v +. Option.value (Hashtbl.find_opt pass_tbl k) ~default:0.0))
          s.pass_times)
      samples;
    let passes = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) pass_tbl []) in
    let per_call i = analysis.(i) /. float_of_int (max 1 analysis_calls.(i)) *. 1e6 in
    let attempts = stat "uu.budget_exhausted" + stat "uu.loops_transformed" in
    [
      m "traced.compile_s" "s" compile_s;
      m "frontend.lower_s" "s" (sum (List.map (fun x -> x.lower) samples));
    ]
    @ List.map (fun (k, v) -> m (Printf.sprintf "pass.%s_s" k) "s" v) passes
    @ [
        m "pass.work" "count" (float_of_int work);
        m "pass.work_wall_spearman" "rho"
          (spearman (List.map (fun x -> (float_of_int x.work, x.ms)) samples));
        m "ir.instrs_out" "count" (float_of_int instrs);
      ]
    @ List.map
        (fun (k, _) -> m ("stat." ^ k) "count" (float_of_int (stat k)))
        (Statistic.snapshot ())
    @ [
        m "core.uu_rollback_share" "ratio"
          (if attempts = 0 then 0.0
           else float_of_int (stat "uu.budget_exhausted") /. float_of_int attempts);
        m "analysis.loops_analyze_us" "us" (per_call 0);
        m "analysis.dominance_us" "us" (per_call 1);
        m "analysis.post_dominance_us" "us" (per_call 2);
        m "ir.preds_of_us" "us" (per_call 3);
      ]
  in
  {
    correct = correct && !failed = 0;
    attempted = List.length (jobs configs);
    failed = !failed;
    metrics = (if trace then layers () else e2e);
  }
