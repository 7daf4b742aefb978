(* Simulator and serve-daemon benchmarks, one mode per argument:

   - [sim-throughput]: warp-instructions/second of the decoded simulator
     against the reference interpreter of the test oracle (exits 1 if
     the simulator is not the faster of the two);
   - [sim-parallel [PATH]]: block-shard scaling over --sim-jobs widths,
     recorded in PATH (default BENCH_sim_parallel.json);
   - [serve [PATH]]: sustained load against an in-process serve daemon,
     recorded in PATH (default BENCH_serve.json).

   End-to-end timing of the compiler and the Table I protocol lives in
   perfbench/. *)

let app name =
  match Uu_benchmarks.Registry.find name with
  | Some a -> a
  | None -> failwith ("unknown app " ^ name)

(* Simulator throughput: the pre-decoded simulator vs the tree-walking
   reference interpreter of the test oracle, and decode-cold (fresh
   decode per simulation) vs decode-warm (per-module decode cache, the
   harness's steady state). The module is compiled once outside the
   timed region so only simulation is measured. *)

let sim_module config =
  let a = app "XSBench" in
  let m = Uu_frontend.Lower.compile ~name:a.Uu_benchmarks.App.name a.Uu_benchmarks.App.source in
  List.iter
    (fun f ->
      ignore (Uu_core.Pipelines.optimize ~targets:Uu_core.Pipelines.All_loops config f))
    m.Uu_ir.Func.funcs;
  (a, m)

let simulate_module ?(exec : Uu_sim_oracle.Oracle.exec = Uu_gpusim.Kernel.exec)
    ?decode_cache ?sim_jobs ((a : Uu_benchmarks.App.t), m) =
  let instance = a.Uu_benchmarks.App.setup (Uu_support.Rng.create 0x5EEDL) in
  let total = Uu_gpusim.Metrics.create () in
  List.iter
    (fun (l : Uu_benchmarks.App.launch) ->
      let f =
        match Uu_ir.Func.find_func m l.Uu_benchmarks.App.kernel with
        | Some f -> f
        | None -> failwith ("unknown kernel " ^ l.Uu_benchmarks.App.kernel)
      in
      let r =
        exec
          ~config:
            {
              Uu_gpusim.Kernel.default_config with
              decode_cache;
              sim_jobs = Option.value sim_jobs ~default:1;
            }
          instance.Uu_benchmarks.App.mem f
          ~grid_dim:l.Uu_benchmarks.App.grid_dim
          ~block_dim:l.Uu_benchmarks.App.block_dim ~args:l.Uu_benchmarks.App.args
      in
      Uu_gpusim.Metrics.add total r.Uu_gpusim.Kernel.metrics)
    instance.Uu_benchmarks.App.launches;
  total

(* Directly measured warp-instructions/second of the simulator and of the
   reference interpreter, on XSBench under u&u-4. *)
let sim_throughput_report () =
  let cm = sim_module (Uu_core.Pipelines.Uu 4) in
  let cache = Uu_gpusim.Decode.create_cache () in
  let measure name ?exec ?decode_cache ~reps () =
    (* one untimed warm-up simulation populates the decode cache *)
    ignore (simulate_module ?exec ?decode_cache cm);
    let t0 = Unix.gettimeofday () in
    let instrs = ref 0 in
    for _ = 1 to reps do
      let m = simulate_module ?exec ?decode_cache cm in
      instrs := !instrs + m.Uu_gpusim.Metrics.warp_instrs
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let wips = float_of_int !instrs /. dt in
    Printf.printf "  %-22s %10.2f Mwinstr/s  (%.3f s / %d reps)\n" name
      (wips /. 1e6) dt reps;
    wips
  in
  print_endline "== sim-throughput: warp-instructions/second (XSBench, u&u-4) ==";
  let reference = measure "reference" ~exec:Uu_sim_oracle.Oracle.exec ~reps:3 () in
  ignore (measure "decoded-cold" ~reps:3 ());
  let warm = measure "decoded-warm" ~decode_cache:cache ~reps:3 () in
  Printf.printf "  decoded-warm / reference: %.2fx\n" (warm /. reference);
  (reference, warm)

(* Block-shard scaling: the same Table I-scale workload (XSBench under
   u&u-4, its own launch schedule and grids) simulated at increasing
   --sim-jobs widths. Three things are recorded: that metrics stay
   byte-identical at every width (the determinism contract, doubly
   witnessed by a per-width metrics digest in the JSON), the wall-clock
   speedup over the serial sweep, and the domain count that produced
   the numbers. A 1-domain container measures sharding overhead, not
   scaling, so it refuses to overwrite an existing baseline — only a
   machine with real parallelism may rebaseline the curve. *)
let sim_parallel_report path =
  let scale_n = 65536 in
  let _, m = sim_module (Uu_core.Pipelines.Uu 4) in
  let cache = Uu_gpusim.Decode.create_cache () in
  let avail = Uu_support.Parallel.available_domains () in
  let widths =
    List.sort_uniq compare (List.filter (fun j -> j <= max 4 avail) [ 1; 2; 4; avail ])
  in
  print_endline "== sim-parallel: --sim-jobs sweep (XSBench, u&u-4, decoded engine) ==";
  Printf.printf "  available domains: %d, grid %d blocks per launch\n%!" avail
    (scale_n / 128);
  let reps = 3 in
  let simulate_instance ~sim_jobs (instance : Uu_benchmarks.App.instance) =
    let total = Uu_gpusim.Metrics.create () in
    List.iter
      (fun (l : Uu_benchmarks.App.launch) ->
        let f =
          match Uu_ir.Func.find_func m l.Uu_benchmarks.App.kernel with
          | Some f -> f
          | None -> failwith ("unknown kernel " ^ l.Uu_benchmarks.App.kernel)
        in
        let r =
          Uu_gpusim.Kernel.exec
            ~config:(Uu_gpusim.Kernel.config ~decode_cache:cache ~sim_jobs ())
            instance.Uu_benchmarks.App.mem f
            ~grid_dim:l.Uu_benchmarks.App.grid_dim
            ~block_dim:l.Uu_benchmarks.App.block_dim ~args:l.Uu_benchmarks.App.args
        in
        Uu_gpusim.Metrics.add total r.Uu_gpusim.Kernel.metrics)
      instance.Uu_benchmarks.App.launches;
    total
  in
  let measure sim_jobs =
    (* Fresh scaled instance per width (setup outside the timed region);
       one untimed warm-up populates the decode cache and spawn paths. *)
    let instance =
      Uu_benchmarks.Xsbench.setup_scaled ~n:scale_n (Uu_support.Rng.create 0x5EEDL)
    in
    let m0 = simulate_instance ~sim_jobs instance in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (simulate_instance ~sim_jobs instance)
    done;
    let dt = Unix.gettimeofday () -. t0 in
    Printf.printf "  sim-jobs %-3d %8.3f s / %d reps\n%!" sim_jobs dt reps;
    (sim_jobs, dt, m0)
  in
  let rows = List.map measure widths in
  let _, serial_s, serial_m = List.hd rows in
  let mismatches =
    List.filter (fun (_, _, m) -> m <> serial_m) (List.tl rows)
  in
  List.iter
    (fun (j, _, _) ->
      Printf.eprintf "sim-parallel: sim-jobs %d metrics differ from serial\n" j)
    mismatches;
  let best_j, best_s, _ =
    List.fold_left
      (fun (bj, bs, bm) (j, s, m) -> if s < bs then (j, s, m) else (bj, bs, bm))
      (List.hd rows) (List.tl rows)
  in
  if avail = 1 && Sys.file_exists path then begin
    Printf.eprintf
      "sim-parallel: WARNING: only 1 domain available — this run measures \
       sharding overhead, not scaling.\n\
       sim-parallel: refusing to overwrite the baseline %s; rebaseline on a \
       multicore machine.\n%!"
      path;
    if mismatches <> [] then exit 1
  end
  else begin
    if avail = 1 then
      Printf.eprintf
        "sim-parallel: WARNING: only 1 domain available — writing a fresh \
         overhead-only baseline to %s; the scaling curve is meaningless until \
         a multicore machine rebaselines it.\n%!"
        path;
    (* The digest doubly witnesses the determinism contract: identical
       metrics at every width must hash identically, and a future reader
       can diff curves knowing whether the simulated work changed. *)
    let digest_of m =
      Digest.to_hex
        (Digest.string (Format.asprintf "%a" Uu_gpusim.Metrics.pp m))
    in
    let oc = open_out path in
    Printf.fprintf oc
      {|{
  "benchmark": "XSBench launch schedule under uu-4 scaled to %d blocks per launch, decoded engine, %d reps per width",
  "available_domains": %d,
  "widths": [%s],
  "seconds": [%s],
  "speedup_vs_serial": [%s],
  "metrics_digest": [%s],
  "best": { "sim_jobs": %d, "speedup": %.2f },
  "metrics_identical_across_widths": %b
}
|}
      (scale_n / 128) reps avail
      (String.concat ", " (List.map (fun (j, _, _) -> string_of_int j) rows))
      (String.concat ", "
         (List.map (fun (_, s, _) -> Printf.sprintf "%.3f" s) rows))
      (String.concat ", "
         (List.map (fun (_, s, _) -> Printf.sprintf "%.2f" (serial_s /. s)) rows))
      (String.concat ", "
         (List.map (fun (_, _, m) -> Printf.sprintf "%S" (digest_of m)) rows))
      best_j (serial_s /. best_s) (mismatches = []);
    close_out oc;
    Printf.printf "  best: sim-jobs %d at %.2fx vs serial -> %s\n" best_j
      (serial_s /. best_s) path;
    if mismatches <> [] then exit 1
  end

(* --- serve daemon load generator ------------------------------------ *)

(* Sustained load against an in-process serve daemon: client threads
   each issue the whole request mix, rotated per client so identical
   requests overlap in flight (exercising the in-flight dedupe), first
   against an empty response cache (cold) and then again (warm, which
   must be served entirely from the cache), then a warm client-count
   scaling sweep (1 -> 8 -> 32 connections against the one reactor
   thread). Asserts the core serve contract — byte-identical response
   documents for identical requests, whichever of the three paths
   served them — and records throughput, latency percentiles, and a
   per-wave response digest in BENCH_serve.json. Throughput on a
   1-domain container measures reactor overhead, not parallel serving,
   so such a run refuses to overwrite an existing baseline — the
   contract checks still run and still fail the build. *)
let serve_report path =
  let tmp = Filename.get_temp_dir_name () in
  let pid = Unix.getpid () in
  let socket = Filename.concat tmp (Printf.sprintf "uu-serve-bench-%d.sock" pid) in
  let cache_dir = Filename.concat tmp (Printf.sprintf "uu-serve-bench-%d.cache" pid) in
  let avail = Uu_support.Parallel.available_domains () in
  let server = Uu_harness.Server.create ~socket ~cache_dir () in
  let server_thread = Thread.create Uu_harness.Server.serve_forever server in
  let mix =
    Array.of_list
      (List.concat_map
         (fun app ->
           List.concat_map
             (fun config ->
               List.map
                 (fun (grid, block, elems) ->
                   Uu_serve.Request.make ~grid_dim:grid ~block_dim:block ~elems
                     (Uu_serve.Request.App app) config)
                 [ (64, 32, 2048); (128, 32, 4096) ])
             [ Uu_core.Pipelines.Baseline; Uu_core.Pipelines.Uu 4 ])
         [ "stencil1d"; "treduce"; "complex"; "bezier-surface" ])
  in
  let n_mix = Array.length mix in
  let clients = 8 in
  print_endline "== serve: daemon load generator ==";
  Printf.printf
    "  %d clients x %d distinct requests per wave, %d domains, socket %s\n%!"
    clients n_mix avail socket;
  let wave nclients =
    let latencies = Array.make (nclients * n_mix) 0.0 in
    let served = Array.make (nclients * n_mix) Uu_serve.Protocol.Executed in
    let texts = Array.make (nclients * n_mix) "" in
    let t0 = Unix.gettimeofday () in
    let worker c =
      let client = Uu_serve.Client.connect ~socket () in
      Fun.protect
        ~finally:(fun () -> Uu_serve.Client.close client)
        (fun () ->
          for k = 0 to n_mix - 1 do
            let i = (k + c) mod n_mix in
            let slot = (c * n_mix) + i in
            let t = Unix.gettimeofday () in
            let s, response = Uu_serve.Client.request client mix.(i) in
            latencies.(slot) <- (Unix.gettimeofday () -. t) *. 1000.0;
            served.(slot) <- s;
            texts.(slot) <- Uu_serve.Response.to_string response
          done)
    in
    let threads = List.init nclients (fun c -> Thread.create worker c) in
    List.iter Thread.join threads;
    (Unix.gettimeofday () -. t0, latencies, served, texts)
  in
  let percentile latencies p =
    let sorted = Array.copy latencies in
    Array.sort compare sorted;
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))
  in
  let count s served =
    Array.fold_left (fun acc x -> if x = s then acc + 1 else acc) 0 served
  in
  (* One digest per wave: the concatenated response documents in slot
     order. Two runs serving identical bytes carry identical digests,
     so baselines can be compared without shipping the documents. *)
  let digest (_, _, _, texts) =
    Digest.to_hex (Digest.string (String.concat "" (Array.to_list texts)))
  in
  let describe label nclients (seconds, latencies, served, _) =
    let total = nclients * n_mix in
    let rps = float_of_int total /. seconds in
    Printf.printf
      "  %-8s %4d requests in %6.2f s: %7.1f req/s, p50 %.2f ms, p99 %.2f ms \
       (executed %d, joined %d, cache %d)\n%!"
      label total seconds rps
      (percentile latencies 0.50)
      (percentile latencies 0.99)
      (count Uu_serve.Protocol.Executed served)
      (count Uu_serve.Protocol.Joined served)
      (count Uu_serve.Protocol.Cache served);
    rps
  in
  let cold = wave clients in
  let warm = wave clients in
  let cold_rps = describe "cold" clients cold in
  let warm_rps = describe "warm" clients warm in
  (* Every identical request must have produced identical response
     bytes — across clients, waves, and served paths. *)
  let _, _, _, cold_texts = cold in
  let _, _, _, warm_texts = warm in
  let byte_identical = ref true in
  for i = 0 to n_mix - 1 do
    let expect = cold_texts.(i) in
    for c = 0 to clients - 1 do
      let slot = (c * n_mix) + i in
      if cold_texts.(slot) <> expect || warm_texts.(slot) <> expect then begin
        byte_identical := false;
        Printf.eprintf "serve: response bytes diverge for request %d (client %d)\n" i c
      end
    done
  done;
  let _, _, warm_served, _ = warm in
  let warm_all_cached = count Uu_serve.Protocol.Cache warm_served = clients * n_mix in
  if not warm_all_cached then
    Printf.eprintf "serve: warm wave was not served entirely from the cache\n";
  (* Connection scaling: the same warm (fully cache-served) wave at
     growing client counts, all multiplexed onto the one reactor
     thread. Each wave's bytes must still match the cold wave's. *)
  let scaling =
    List.map
      (fun nclients ->
        let w = wave nclients in
        let rps = describe (Printf.sprintf "scale-%d" nclients) nclients w in
        let _, _, _, texts = w in
        for c = 0 to nclients - 1 do
          for i = 0 to n_mix - 1 do
            if texts.((c * n_mix) + i) <> cold_texts.(i) then begin
              byte_identical := false;
              Printf.eprintf
                "serve: scaling wave (%d clients) bytes diverge for request %d\n"
                nclients i
            end
          done
        done;
        (nclients, rps, w))
      [ 1; 8; 32 ]
  in
  let stats =
    let client = Uu_serve.Client.connect ~socket () in
    Fun.protect
      ~finally:(fun () -> Uu_serve.Client.close client)
      (fun () ->
        let stats = Uu_serve.Client.stats client in
        Uu_serve.Client.shutdown client;
        stats)
  in
  Thread.join server_thread;
  let ratio = warm_rps /. cold_rps in
  Printf.printf "  warm/cold throughput: %.1fx\n%!" ratio;
  let wave_json nclients ((seconds, latencies, served, _) as w) rps =
    Printf.sprintf
      {|{ "clients": %d, "seconds": %.3f, "req_per_s": %.1f, "p50_ms": %.3f, "p99_ms": %.3f, "executed": %d, "joined": %d, "cache": %d, "response_digest": "%s" }|}
      nclients seconds rps
      (percentile latencies 0.50)
      (percentile latencies 0.99)
      (count Uu_serve.Protocol.Executed served)
      (count Uu_serve.Protocol.Joined served)
      (count Uu_serve.Protocol.Cache served)
      (digest w)
  in
  let skip_write = avail = 1 && Sys.file_exists path in
  if skip_write then
    Printf.eprintf
      "serve: WARNING: only 1 domain available — this run measures reactor \
       overhead, not parallel serving.\n\
       serve: refusing to overwrite the baseline %s; rebaseline on a multicore \
       machine.\n%!"
      path
  else begin
    if avail = 1 then
      Printf.eprintf
        "serve: WARNING: only 1 domain available — writing a fresh baseline, \
         but its throughput reflects a serial pool.\n%!";
    let oc = open_out path in
    Printf.fprintf oc
      {|{
  "benchmark": "uu serve load generator: %d clients x %d distinct requests per wave (4 apps x 2 configs x 2 shapes), rotated per client, cold then warm, then a warm client-scaling sweep",
  "available_domains": %d,
  "clients": %d,
  "distinct_requests": %d,
  "requests_per_wave": %d,
  "cold": %s,
  "warm": %s,
  "warm_over_cold": %.1f,
  "scaling": [
    %s
  ],
  "byte_identical": %b,
  "warm_fully_cache_served": %b,
  "server": { %s }
}
|}
      clients n_mix avail clients n_mix (clients * n_mix)
      (wave_json clients cold cold_rps)
      (wave_json clients warm warm_rps)
      ratio
      (String.concat ",\n    "
         (List.map (fun (nclients, rps, w) -> wave_json nclients w rps) scaling))
      !byte_identical warm_all_cached
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) stats));
    close_out oc;
    Printf.printf "  wrote %s\n%!" path
  end;
  if not !byte_identical then exit 1;
  if not warm_all_cached then exit 1;
  if ratio < 5.0 then begin
    Printf.eprintf "serve: warm throughput only %.1fx cold (want >= 5x)\n" ratio;
    exit 1
  end

let () =
  match Array.to_list Sys.argv with
  | _ :: "sim-parallel" :: rest ->
    sim_parallel_report (match rest with p :: _ -> p | [] -> "BENCH_sim_parallel.json")
  | _ :: "sim-throughput" :: _ ->
    let reference, warm = sim_throughput_report () in
    if warm <= reference then begin
      Printf.eprintf
        "sim-throughput: the decoded simulator (%.0f winstr/s) is not faster \
         than the reference interpreter (%.0f winstr/s)\n"
        warm reference;
      exit 1
    end
  | _ :: "serve" :: rest ->
    serve_report (match rest with p :: _ -> p | [] -> "BENCH_serve.json")
  | _ ->
    prerr_endline
      "usage: main.exe (sim-throughput | sim-parallel [PATH] | serve [PATH])";
    exit 2
