open Uu_support
open Uu_core

type source = App of string | Inline of { name : string; text : string }
type mode = Compile | Run

type t = {
  mode : mode;
  source : source;
  config : Pipelines.config;
  loop : int option;
  grid_dim : int;
  block_dim : int;
  elems : int;
  check_races : bool;
  trace : bool;
  noise_seed : int64 option;
  sim_jobs : int option;
}

let make ?(mode = Run) ?loop ?(grid_dim = 4) ?(block_dim = 128) ?(elems = 1024)
    ?(check_races = false) ?(trace = false) ?noise_seed ?sim_jobs source config =
  {
    mode;
    source;
    config;
    loop;
    grid_dim;
    block_dim;
    elems;
    check_races;
    trace;
    noise_seed;
    sim_jobs;
  }

(* An inline source enters the spec by content hash, not by text: the
   spec stays one readable line, and two requests with the same kernel
   text share a cache entry no matter what the client named the file. *)
let source_spec = function
  | App name -> "app:" ^ name
  | Inline { name; text } ->
    Printf.sprintf "inline:%s:%s" name (Digest.to_hex (Digest.string text))

let mode_string = function Compile -> "compile" | Run -> "run"

(* A loop id names the loop with that id in each kernel. The "kernel:"
   spelling gives every loop-restricted request a key no entry cached
   before that rule (when one id pooled the headers of all kernels)
   can answer. *)
let loop_string = function None -> "-" | Some id -> "kernel:" ^ string_of_int id

(* Everything a response depends on enters the spec; what cannot change
   a response byte (sim_jobs — metric-identical by the determinism
   contract) stays out, so a request answered at one shard width is a
   cache hit at any other. Both versions are folded in for
   the same reason they are in [Uu_harness.Jobs.spec]: a compiler change
   and a simulator-semantics change each invalidate old entries. *)
let spec r =
  Printf.sprintf "serve;v%s;sim=%s;mode=%s;source=%s;config=%s;loop=%s;shape=%dx%dx%d;races=%b;trace=%b;noise=%s"
    Pipelines.version Uu_gpusim.Kernel.semantics_version (mode_string r.mode)
    (source_spec r.source)
    (Pipelines.config_to_string r.config)
    (loop_string r.loop) r.grid_dim r.block_dim r.elems r.check_races r.trace
    (match r.noise_seed with None -> "-" | Some s -> Int64.to_string s)

let key r = Digest.to_hex (Digest.string (spec r))

(* The compiled-module identity: what [Runner.compile] consumes. No
   simulator version, shape, or race flag — those only affect the
   simulation of an already-compiled module, and the daemon's warm
   decode caches hang off this key. *)
let compile_spec r =
  Printf.sprintf "serve-compile;v%s;source=%s;config=%s;loop=%s" Pipelines.version
    (source_spec r.source)
    (Pipelines.config_to_string r.config)
    (loop_string r.loop)

let compile_key r = Digest.to_hex (Digest.string (compile_spec r))

let noise_seed ~key i =
  (* Fold the first 8 digest bytes of "key#run<i>" into an int64: a pure
     function of the request identity and the run index, so repeated
     noisy runs are reproducible no matter which domain executes them or
     in what order. (Canonical derivation; [Uu_harness.Jobs.noise_seed]
     delegates here.) *)
  let d = Digest.string (Printf.sprintf "%s#run%d" key i) in
  let v = ref 0L in
  for j = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code d.[j]))
  done;
  !v

(* --- JSON codec ----------------------------------------------------- *)

let to_json r =
  let source =
    match r.source with
    | App name -> Json.Obj [ ("app", Json.Str name) ]
    | Inline { name; text } ->
      Json.Obj [ ("name", Json.Str name); ("text", Json.Str text) ]
  in
  Json.Obj
    [
      ("mode", Json.Str (mode_string r.mode));
      ("source", source);
      ("config", Json.Str (Pipelines.config_to_string r.config));
      ("loop", match r.loop with None -> Json.Null | Some id -> Json.Int id);
      ("grid", Json.Int r.grid_dim);
      ("block", Json.Int r.block_dim);
      ("elems", Json.Int r.elems);
      ("check_races", Json.Bool r.check_races);
      ("trace", Json.Bool r.trace);
      ( "noise_seed",
        match r.noise_seed with
        | None -> Json.Null
        | Some s -> Json.Str (Int64.to_string s) );
      ( "sim_jobs",
        match r.sim_jobs with None -> Json.Null | Some n -> Json.Int n );
    ]

let ( let* ) = Result.bind

let field name conv j =
  match Option.bind (Json.member name j) conv with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "request: bad or missing field %S" name)

let opt_field name conv j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some v -> (
    match conv v with
    | Some v -> Ok (Some v)
    | None -> Error (Printf.sprintf "request: bad field %S" name))

let of_json j =
  let* mode =
    let* s = field "mode" Json.to_str j in
    match s with
    | "compile" -> Ok Compile
    | "run" -> Ok Run
    | other -> Error (Printf.sprintf "request: unknown mode %S" other)
  in
  let* source =
    match Json.member "source" j with
    | None -> Error "request: missing field \"source\""
    | Some s -> (
      match Option.bind (Json.member "app" s) Json.to_str with
      | Some name -> Ok (App name)
      | None ->
        let* name = field "name" Json.to_str s in
        let* text = field "text" Json.to_str s in
        Ok (Inline { name; text }))
  in
  let* config =
    let* s = field "config" Json.to_str j in
    Pipelines.config_of_string s
  in
  let* loop = opt_field "loop" Json.to_int j in
  let* grid_dim = field "grid" Json.to_int j in
  let* block_dim = field "block" Json.to_int j in
  let* elems = field "elems" Json.to_int j in
  let* check_races = field "check_races" Json.to_bool j in
  (* Absent means false: clients speaking the pre-trace protocol keep
     round-tripping. *)
  let* trace =
    match Json.member "trace" j with
    | None | Some Json.Null -> Ok false
    | Some v -> (
      match Json.to_bool v with
      | Some b -> Ok b
      | None -> Error "request: bad field \"trace\"")
  in
  let* noise_seed =
    let* s = opt_field "noise_seed" Json.to_str j in
    match s with
    | None -> Ok None
    | Some s -> (
      match Int64.of_string_opt s with
      | Some v -> Ok (Some v)
      | None -> Error (Printf.sprintf "request: bad noise_seed %S" s))
  in
  let* sim_jobs = opt_field "sim_jobs" Json.to_int j in
  Ok
    {
      mode;
      source;
      config;
      loop;
      grid_dim;
      block_dim;
      elems;
      check_races;
      trace;
      noise_seed;
      sim_jobs;
    }
