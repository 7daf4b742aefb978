(* The `uu` compiler driver: compile a MiniCUDA kernel file under one of
   the paper's pipeline configurations, dump IR/CFGs, list loops (with the
   deterministic ids the pass exposes, §III-C), report optimization
   remarks and pass statistics, run a kernel on the SIMT simulator with
   synthetic buffers, or talk to the long-lived serve daemon.

   `run`, `compile`, and the daemon all funnel through the same
   [Uu_serve.Request]/[Uu_serve.Response] pair via
   [Uu_harness.Runner.run_request]: `uu run` is a local execution of the
   exact request `uu request` would ship over the socket, and both print
   [Uu_serve.Response.render]'s bytes. *)

open Cmdliner
open Uu_support
open Uu_ir

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* SOURCE is a path, or the name of a bundled benchmark application
   (e.g. `rainflow`), so the paper's kernels can be inspected without
   extracting their MiniCUDA sources first. *)
let read_source spec =
  if Sys.file_exists spec then (Filename.basename spec, read_file spec)
  else
    match Uu_benchmarks.Registry.find spec with
    | Some app -> (app.Uu_benchmarks.App.name, app.Uu_benchmarks.App.source)
    | None ->
      failwith
        (Printf.sprintf
           "%s is neither a file nor a bundled application (known apps: %s)" spec
           (String.concat ", "
              (List.map
                 (fun (a : Uu_benchmarks.App.t) -> a.Uu_benchmarks.App.name)
                 Uu_benchmarks.Registry.all)))

(* A file travels inline (the daemon has no reason to share our
   filesystem); a bundled app travels by name. *)
let source_of_spec spec : Uu_serve.Request.source =
  if Sys.file_exists spec then
    Inline { name = Filename.basename spec; text = read_file spec }
  else if Option.is_some (Uu_benchmarks.Registry.find spec) then App spec
  else (
    ignore (read_source spec) (* raises with the full known-apps message *);
    assert false)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"SOURCE"
        ~doc:"MiniCUDA source file, or the name of a bundled benchmark (e.g. rainflow)")

let config_arg =
  Arg.(
    value
    & opt string "heuristic"
    & info [ "c"; "config" ] ~docv:"CONFIG"
        ~doc:
          "Pipeline configuration: baseline, unroll, unmerge, uu, uu-selective, \
           heuristic (default; the paper's evaluated configuration), heuristic-div. \
           Factor-carrying names also accept an inline suffix (uu-4, unroll:8), \
           overriding $(b,--factor)")

let factor_arg =
  Arg.(value & opt int 2 & info [ "u"; "factor" ] ~docv:"N" ~doc:"Unroll factor for unroll/uu")

let loop_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "l"; "loop" ] ~docv:"ID" ~doc:"Apply the transform to this loop id only")

let dot_arg = Arg.(value & flag & info [ "dot" ] ~doc:"Emit the CFG in Graphviz dot format")

let remarks_arg =
  Arg.(
    value
    & opt ~vopt:(Some "text") (some string) None
    & info [ "remarks" ] ~docv:"FMT"
        ~doc:
          "Report optimization remarks (every transform applied or missed, with the \
           decision payloads, e.g. the u&u heuristic's computed p/s/u). $(b,text) \
           prints one line per remark to stderr; $(b,json) prints a JSON document to \
           stdout and suppresses the IR dump.")

let stats_arg =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:
          "Print the pass-statistic counters of this compilation (à la LLVM -stats): \
           gvn.loads_eliminated, unmerge.paths_duplicated, ...")

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix socket of the serve daemon (default: $(b,UU_SERVE_SOCKET) or \
           <tmpdir>/uu-serve.sock)")

let tcp_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "tcp" ] ~docv:"HOST:PORT"
        ~doc:
          "TCP endpoint of the serve daemon (e.g. $(b,127.0.0.1:7070); an empty \
           host means 127.0.0.1). Takes precedence over $(b,--socket)")

let parse_tcp_opt = function
  | None -> None
  | Some spec -> (
    match Uu_serve.Protocol.parse_tcp spec with
    | Ok endpoint -> Some endpoint
    | Error msg -> failwith msg)

let handle_errors f =
  try f () with
  | Uu_frontend.Lexer.Error (msg, pos) ->
    Printf.eprintf "lex error at %d:%d: %s\n" pos.Uu_frontend.Ast.line
      pos.Uu_frontend.Ast.col msg;
    exit 1
  | Uu_frontend.Parser.Error (msg, pos) ->
    Printf.eprintf "parse error at %d:%d: %s\n" pos.Uu_frontend.Ast.line
      pos.Uu_frontend.Ast.col msg;
    exit 1
  | Uu_frontend.Lower.Error (msg, pos) ->
    Printf.eprintf "error at %d:%d: %s\n" pos.Uu_frontend.Ast.line
      pos.Uu_frontend.Ast.col msg;
    exit 1
  | Uu_serve.Protocol.Protocol_error msg ->
    Printf.eprintf "protocol error: %s\n" msg;
    exit 1
  | Uu_serve.Client.Busy { queued; limit } ->
    Printf.eprintf "busy: daemon shed the request (%d queued, limit %d)\n" queued
      limit;
    exit 7
  | Failure msg ->
    Printf.eprintf "error: %s\n" msg;
    exit 1

let parse_config config_name factor =
  match Uu_core.Pipelines.config_of_string ~default_factor:factor config_name with
  | Error m -> failwith m
  | Ok config -> config

(* The commands that need the optimized IR values themselves (dot
   rendering, provenance analysis) rather than a response compile
   through the same request path and read its module. *)
let compiled_module source config factor loop =
  let request =
    Uu_serve.Request.make ~mode:Uu_serve.Request.Compile ?loop
      (source_of_spec source) (parse_config config factor)
  in
  match Uu_harness.Runner.compile_request request with
  | Ok c -> Uu_harness.Runner.compiled_module c
  | Error msg -> failwith msg

let remark_format = function
  | None -> None
  | Some "text" -> Some `Text
  | Some "json" -> Some `Json
  | Some other ->
    failwith (Printf.sprintf "unknown remark format %s (expected text|json)" other)

let compile_run source config factor loop dot remarks stats =
  handle_errors (fun () ->
      let fmt = remark_format remarks in
      if dot then begin
        (* Graphviz needs the in-memory CFGs; this path stays local. *)
        let m = compiled_module source config factor loop in
        List.iter
          (fun f -> print_string (Format.asprintf "%a" Printer.pp_cfg_dot f))
          m.Func.funcs
      end
      else
        let request =
          Uu_serve.Request.make ~mode:Uu_serve.Request.Compile ?loop
            (source_of_spec source)
            (parse_config config factor)
        in
        match Uu_harness.Runner.run_request request with
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
        | Ok
            {
              Uu_serve.Response.body = Measured _;
              _;
            } ->
          assert false (* a Compile request never measures *)
        | Ok
            {
              Uu_serve.Response.config = cfg;
              body = Compiled { ir; instr_count };
              compile_seconds;
              remarks = collected;
              stats = stat_counters;
            } -> (
          match fmt with
          | Some `Json ->
            (* stdout carries one well-formed JSON document and nothing else. *)
            if stats then
              print_string
                (Printf.sprintf "{\"remarks\":%s,\n\"stats\":%s}\n"
                   (Remark.list_to_json collected)
                   (Remark.stats_to_json stat_counters))
            else print_string (Remark.list_to_json collected ^ "\n")
          | Some `Text | None ->
            print_string ir;
            (match fmt with
            | Some `Text ->
              List.iter (fun r -> Printf.eprintf "%s\n" (Remark.to_text r)) collected
            | _ -> ());
            if stats then begin
              print_string "; pass statistics:\n";
              print_string (Statistic.render stat_counters)
            end;
            Printf.eprintf "; config %s: %d instructions, compiled in %.1f ms (modeled)\n"
              (Uu_core.Pipelines.config_name cfg)
              instr_count
              (1000.0 *. compile_seconds)))

let compile_term =
  Term.(
    const compile_run $ file_arg $ config_arg $ factor_arg $ loop_arg $ dot_arg
    $ remarks_arg $ stats_arg)

let compile_cmd =
  Cmd.v
    (Cmd.info "compile"
       ~doc:
         "Compile and print the optimized IR (default command). --remarks and --stats \
          expose every optimization decision")
    compile_term

let loops_cmd =
  let run source =
    handle_errors (fun () ->
        let name, text = read_source source in
        let m = Uu_frontend.Lower.compile ~name text in
        List.iter
          (fun f ->
            ignore
              (Uu_opt.Pass.exec ~options:Uu_opt.Pass.unverified
                 Uu_core.Pipelines.early_passes f);
            let forest = Uu_analysis.Loops.analyze f in
            List.iter
              (fun (l : Uu_analysis.Loops.loop) ->
                let s = Uu_analysis.Cost_model.loop_size f l in
                let p = Uu_analysis.Cost_model.path_count f l in
                Printf.printf
                  "@%s loop %d: header bb%d, depth %d, %d blocks, size %d, paths %d, \
                   convergent %b\n"
                  f.Func.name l.id l.header l.depth
                  (Value.Label_set.cardinal l.blocks)
                  s p
                  (Uu_analysis.Loops.contains_convergent f l))
              (Uu_analysis.Loops.loops forest))
          m.Func.funcs)
  in
  Cmd.v
    (Cmd.info "loops" ~doc:"List loops with their deterministic ids and cost-model stats")
    Term.(const run $ file_arg)

let provenance_cmd =
  let run source config factor loop =
    handle_errors (fun () ->
        let m = compiled_module source config factor loop in
        List.iter
          (fun f ->
            Printf.printf "@%s\n" f.Func.name;
            print_string (Uu_core.Provenance.render f (Uu_core.Provenance.analyze f)))
          m.Func.funcs)
  in
  Cmd.v
    (Cmd.info "provenance"
       ~doc:
         "Print each block's condition-provenance labels (the paper's Figure 5 T/F/X \
          annotations) after compiling under the chosen configuration")
    Term.(const run $ file_arg $ config_arg $ factor_arg $ loop_arg)

(* --- the simulate commands ------------------------------------------ *)

let grid_arg = Arg.(value & opt int 4 & info [ "grid" ] ~docv:"N" ~doc:"Grid dimension")

let block_arg =
  Arg.(value & opt int 128 & info [ "block" ] ~docv:"N" ~doc:"Block dimension")

let elems_arg =
  Arg.(
    value & opt int 1024
    & info [ "elems" ] ~docv:"N" ~doc:"Elements in synthetic buffer arguments")

let sim_jobs_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "sim-jobs" ] ~docv:"N"
        ~doc:
          "Shard each launch's thread blocks over $(docv) domains. Metrics are \
           byte-identical for any value; `uu run` defaults to all available cores \
           (an interactive run has the machine to itself), the daemon to 1 (it \
           parallelizes across requests instead)")

let races_arg =
  Arg.(
    value & flag
    & info [ "check-races" ]
        ~doc:
          "Record every block's global write set and report cells written by more \
           than one block (violations of the disjoint-writes contract the parallel \
           shard relies on). Collected per shard and merged in block order, so the \
           report is byte-identical at any $(b,--sim-jobs) width.")

let trace_arg =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Record and print the SIMT schedule of every launch, one line per \
           executed basic block with its active mask. Buffered per shard and \
           spliced in block order, so the stream is byte-identical at any \
           $(b,--sim-jobs) width.")

let build_run_request source config factor loop grid block elems sim_jobs
    check_races trace =
  Uu_serve.Request.make ?loop ~grid_dim:grid ~block_dim:block ~elems ~check_races
    ~trace ?sim_jobs
    (source_of_spec source)
    (parse_config config factor)

let run_cmd =
  let run source config factor loop grid block elems sim_jobs check_races trace =
    handle_errors (fun () ->
        let sim_jobs =
          (* An interactive run has the machine to itself. *)
          Some
            (match sim_jobs with
            | Some n -> max 1 n
            | None -> Uu_support.Parallel.available_domains ())
        in
        let request =
          build_run_request source config factor loop grid block elems sim_jobs
            check_races trace
        in
        match Uu_harness.Runner.run_request request with
        | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          exit 1
        | response -> print_string (Uu_serve.Response.render response))
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Compile and execute every kernel on the SIMT simulator with synthetic buffers \
          (last int parameter receives the element count)")
    Term.(
      const run $ file_arg $ config_arg $ factor_arg $ loop_arg $ grid_arg $ block_arg
      $ elems_arg $ sim_jobs_arg $ races_arg $ trace_arg)

(* --- the daemon and its clients ------------------------------------- *)

let serve_cmd =
  let domains_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:"Worker domains in the execution pool (default: all available cores)")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string (Filename.concat "results" "cache")
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"Response cache directory, shared with the experiment job graph")
  in
  let max_running_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-running" ] ~docv:"N"
          ~doc:
            "Admission control: requests executing at once (default: the pool \
             width)")
  in
  let max_queued_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-queued" ] ~docv:"N"
          ~doc:
            "Admission control: requests waiting for a slot before new ones are \
             shed with a busy frame (default 256; 0 sheds anything that cannot \
             start immediately)")
  in
  let run socket tcp domains cache_dir max_running max_queued =
    handle_errors (fun () ->
        let tcp = parse_tcp_opt tcp in
        let server =
          Uu_harness.Server.create ?socket ?tcp ?domains ~cache_dir ?max_running
            ?max_queued ()
        in
        Printf.eprintf "uu serve: listening on %s%s (cache %s)\n%!"
          (Uu_harness.Server.socket server)
          (match Uu_harness.Server.tcp server with
          | Some (host, port) -> Printf.sprintf " and %s:%d" host port
          | None -> "")
          cache_dir;
        Uu_harness.Server.serve_forever server)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile-and-simulate daemon: an event-loop server (unix socket, \
          plus TCP with $(b,--tcp)) that keeps compiled modules and decode caches \
          warm across requests, dedupes identical in-flight requests, serves \
          repeated requests from the on-disk response cache, and sheds overload \
          deterministically once its admission queue is full. Several daemons may \
          share one $(b,--cache-dir). Stop it with $(b,uu serve-ctl shutdown)")
    Term.(
      const run $ socket_arg $ tcp_arg $ domains_arg $ cache_dir_arg
      $ max_running_arg $ max_queued_arg)

let request_cmd =
  let compile_flag =
    Arg.(
      value & flag
      & info [ "compile" ]
          ~doc:"Request the optimized IR instead of running the simulator")
  in
  let run source config factor loop grid block elems sim_jobs check_races trace
      socket tcp compile_only =
    handle_errors (fun () ->
        let request =
          let r =
            build_run_request source config factor loop grid block elems sim_jobs
              check_races trace
          in
          if compile_only then { r with Uu_serve.Request.mode = Compile } else r
        in
        let client = Uu_serve.Client.connect ?socket ?tcp:(parse_tcp_opt tcp) () in
        Fun.protect
          ~finally:(fun () -> Uu_serve.Client.close client)
          (fun () ->
            let served, response = Uu_serve.Client.request client request in
            Printf.eprintf "; served: %s\n" (Uu_serve.Protocol.served_string served);
            match response with
            | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              exit 1
            | response -> print_string (Uu_serve.Response.render response)))
  in
  Cmd.v
    (Cmd.info "request"
       ~doc:
         "Ship one compile-or-run request to the serve daemon and print the response \
          — the same bytes the equivalent $(b,uu run) or $(b,uu compile) prints \
          locally (the served-status goes to stderr). Exits 7 when the daemon \
          sheds the request under overload")
    Term.(
      const run $ file_arg $ config_arg $ factor_arg $ loop_arg $ grid_arg $ block_arg
      $ elems_arg $ sim_jobs_arg $ races_arg $ trace_arg $ socket_arg
      $ tcp_arg $ compile_flag)

let serve_ctl_cmd =
  let op_arg =
    Arg.(
      required
      & pos 0 (some (enum [ ("stats", `Stats); ("ping", `Ping); ("shutdown", `Shutdown) ])) None
      & info [] ~docv:"OP" ~doc:"One of $(b,stats), $(b,ping), $(b,shutdown)")
  in
  let run op socket tcp =
    handle_errors (fun () ->
        let client = Uu_serve.Client.connect ?socket ?tcp:(parse_tcp_opt tcp) () in
        Fun.protect
          ~finally:(fun () -> Uu_serve.Client.close client)
          (fun () ->
            match op with
            | `Ping ->
              Uu_serve.Client.ping client;
              print_endline "pong"
            | `Shutdown ->
              Uu_serve.Client.shutdown client;
              print_endline "bye"
            | `Stats ->
              List.iter
                (fun (name, value) -> Printf.printf "%s %d\n" name value)
                (Uu_serve.Client.stats client)))
  in
  Cmd.v
    (Cmd.info "serve-ctl" ~doc:"Query or stop a running serve daemon")
    Term.(const run $ op_arg $ socket_arg $ tcp_arg)

let () =
  let info =
    Cmd.info "uu" ~version:"1.0"
      ~doc:"Unroll-and-unmerge compiler driver (CGO 2024 reproduction)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default:compile_term info
          [
            compile_cmd;
            loops_cmd;
            provenance_cmd;
            run_cmd;
            serve_cmd;
            request_cmd;
            serve_ctl_cmd;
          ]))
