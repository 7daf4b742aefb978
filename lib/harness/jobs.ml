open Uu_support
open Uu_core

type protocol = Once | Noisy of { runs : int }

type work =
  | Pipeline
  | Custom of { name : string; compile : unit -> Runner.compiled }

type job = {
  app : Uu_benchmarks.App.t;
  config : Pipelines.config;
  target : Runner.loop_ref option;
  protocol : protocol;
  work : work;
}

let job ?target ?(protocol = Once) app config =
  { app; config; target; protocol; work = Pipeline }

let custom ~name ~compile ?(protocol = Once) app config =
  { app; config; target = None; protocol; work = Custom { name; compile } }

let target_string = function
  | None -> "-"
  | Some (t : Runner.loop_ref) ->
    Printf.sprintf "%s#%d@bb%d" t.Runner.kernel t.Runner.loop_id t.Runner.header

let protocol_string = function
  | Once -> "once"
  | Noisy { runs } -> Printf.sprintf "noisy-%d" runs

let work_string = function
  | Pipeline -> "pipeline"
  | Custom { name; _ } -> "custom:" ^ name

let label j =
  let base =
    Printf.sprintf "%s/%s" j.app.Uu_benchmarks.App.name
      (match j.work with
      | Pipeline -> Pipelines.config_to_string j.config
      | Custom { name; _ } -> name)
  in
  match j.target with None -> base | Some t -> base ^ "@" ^ target_string (Some t)

(* Two versions enter the spec: the pipeline version (what the compiler
   does to the kernels) and the simulator-semantics version (what the
   metrics of a given optimized kernel are). Keying only the former
   served stale metrics across simulator changes like the per-block L1
   switch — the cached bytes were valid for a machine that no longer
   exists. *)
let spec_v ?(sim_version = Uu_gpusim.Kernel.semantics_version) ~version j =
  Printf.sprintf "v%s;sim=%s;app=%s;config=%s;target=%s;protocol=%s;work=%s"
    version sim_version j.app.Uu_benchmarks.App.name
    (Pipelines.config_to_string j.config)
    (target_string j.target) (protocol_string j.protocol) (work_string j.work)

let spec j = spec_v ~version:Pipelines.version j

let key ?(version = Pipelines.version) ?sim_version j =
  Digest.to_hex (Digest.string (spec_v ?sim_version ~version j))

(* The canonical derivation lives in [Uu_serve.Request] so jobs and
   serve requests seed noisy runs identically from their respective
   content-hash keys. *)
let noise_seed = Uu_serve.Request.noise_seed

type failure = {
  job_label : string;
  job_key : string;
  message : string;
}

type result = {
  rjob : job;
  rkey : string;
  outcome : (Runner.measurement list, failure) Stdlib.result;
  from_cache : bool;
}

let execute_once ?sim_jobs j jkey =
  let compiled =
    match j.work with
    | Pipeline -> Runner.compile ?target:j.target j.app j.config
    | Custom { compile; _ } -> compile ()
  in
  let measurements =
    match j.protocol with
    | Once -> [ Runner.simulate ?sim_jobs compiled ]
    | Noisy { runs } ->
      List.init runs (fun i ->
          Runner.simulate ?sim_jobs ~noise_seed:(noise_seed ~key:jkey i)
            compiled)
  in
  List.iter
    (fun (m : Runner.measurement) ->
      match m.Runner.check with
      | Ok () -> ()
      | Error msg ->
        failwith
          (Printf.sprintf "%s: oracle check failed: %s" (label j) msg))
    measurements;
  measurements

(* A job is a pure function of its content key, so a failure is final:
   re-running it would only reproduce the same exception. *)
let execute ?sim_jobs j jkey =
  match execute_once ?sim_jobs j jkey with
  | measurements -> Ok measurements
  | exception e ->
    Error { job_label = label j; job_key = jkey; message = Printexc.to_string e }

let run_all ?jobs ?sim_jobs ?cache job_list =
  let arr = Array.of_list job_list in
  let keys = Array.map (fun j -> key j) arr in
  (* Cache I/O stays on the calling domain: probe everything up front,
     fan only the real work out to the pool, store new results after the
     pool has been joined. *)
  let cached =
    Array.mapi
      (fun i _ ->
        match cache with
        | None -> None
        | Some c -> Result_cache.lookup c ~key:keys.(i))
      arr
  in
  let todo =
    List.filter (fun i -> cached.(i) = None) (List.init (Array.length arr) Fun.id)
  in
  let sim_jobs =
    match sim_jobs with
    | Some n -> max 1 n
    | None ->
      (* Core-budget split: the job pool occupies min(pool, #todo)
         domains, and each job's intra-launch shard gets an equal share
         of the rest. A full queue (a cold sweep) runs jobs serially
         inside (sim_jobs = 1); a single job (an interactive Table I
         row, a warm rerun with one miss) gets every core. *)
      let avail = Parallel.available_domains () in
      let pool = match jobs with Some j -> max 1 j | None -> avail in
      let workers = max 1 (min pool (List.length todo)) in
      max 1 (avail / workers)
  in
  let executed =
    Parallel.map ?jobs
      (fun i -> (i, execute ~sim_jobs arr.(i) keys.(i)))
      todo
  in
  let outcomes = Array.make (Array.length arr) None in
  Array.iteri (fun i c ->
      match c with Some ms -> outcomes.(i) <- Some (Ok ms, true) | None -> ())
    cached;
  List.iter
    (fun (i, outcome) ->
      (match (outcome, cache) with
      | Ok measurements, Some c ->
        Result_cache.store c ~key:keys.(i) ~spec:(spec arr.(i)) measurements
      | _ -> ());
      outcomes.(i) <- Some (outcome, false))
    executed;
  List.mapi
    (fun i j ->
      match outcomes.(i) with
      | Some (outcome, from_cache) -> { rjob = j; rkey = keys.(i); outcome; from_cache }
      | None -> assert false)
    job_list

let measurements_exn r =
  match r.outcome with
  | Ok measurements -> measurements
  | Error f ->
    failwith
      (Printf.sprintf "job %s failed: %s" f.job_label f.message)
