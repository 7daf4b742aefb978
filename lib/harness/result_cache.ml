open Uu_support
open Uu_core
open Uu_gpusim

type t = { cache_dir : string; mutable hit_count : int; mutable miss_count : int }

let create ~dir = { cache_dir = dir; hit_count = 0; miss_count = 0 }
let dir t = t.cache_dir
let hits t = t.hit_count
let misses t = t.miss_count

(* --- serialization ------------------------------------------------- *)

let ( let* ) = Result.bind

let field name conv v =
  match Option.bind (Json.member name v) conv with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "cache entry: bad or missing field %s" name)

let target_to_json = function
  | None -> Json.Null
  | Some (t : Runner.loop_ref) ->
    Json.Obj
      [
        ("kernel", Json.Str t.Runner.kernel);
        ("loop_id", Json.Int t.Runner.loop_id);
        ("header", Json.Int t.Runner.header);
      ]

let target_of_json = function
  | Json.Null -> Ok None
  | v ->
    let* kernel = field "kernel" Json.to_str v in
    let* loop_id = field "loop_id" Json.to_int v in
    let* header = field "header" Json.to_int v in
    Ok (Some { Runner.kernel; loop_id; header })

let measurement_to_json (m : Runner.measurement) =
  Json.Obj
    [
      ("config", Json.Str (Pipelines.config_to_string m.Runner.config));
      ("target", target_to_json m.Runner.target);
      ("kernel_ms", Json.Float m.Runner.kernel_ms);
      ("transfer_ms", Json.Float m.Runner.transfer_ms);
      ("code_bytes", Json.Int m.Runner.code_bytes);
      ("compile_seconds", Json.Float m.Runner.compile_seconds);
      ("metrics", Metrics.to_json m.Runner.metrics);
      ( "check",
        match m.Runner.check with Ok () -> Json.Null | Error e -> Json.Str e );
      ("remarks", Json.Arr (List.map Remark.to_json_value m.Runner.remarks));
      ("stats", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) m.Runner.stats));
    ]

let rec collect f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = collect f rest in
    Ok (y :: ys)

let measurement_of_json v =
  let* config_s = field "config" Json.to_str v in
  let* config = Pipelines.config_of_string config_s in
  let* target =
    match Json.member "target" v with
    | Some tv -> target_of_json tv
    | None -> Error "cache entry: missing target"
  in
  let* kernel_ms = field "kernel_ms" Json.to_float v in
  let* transfer_ms = field "transfer_ms" Json.to_float v in
  let* code_bytes = field "code_bytes" Json.to_int v in
  let* compile_seconds = field "compile_seconds" Json.to_float v in
  let* metrics =
    match Json.member "metrics" v with
    | Some mv -> Metrics.of_json mv
    | None -> Error "cache entry: missing metrics"
  in
  let* check =
    match Json.member "check" v with
    | Some Json.Null -> Ok (Ok ())
    | Some (Json.Str e) -> Ok (Error e)
    | _ -> Error "cache entry: bad check field"
  in
  let* remarks =
    match Json.member "remarks" v with
    | Some (Json.Arr items) -> collect Remark.of_json_value items
    | _ -> Error "cache entry: bad remarks field"
  in
  let* stats =
    match Json.member "stats" v with
    | Some (Json.Obj fields) ->
      collect
        (fun (k, jv) ->
          match Json.to_int jv with
          | Some n -> Ok ((k, n))
          | None -> Error "cache entry: non-integer stat")
        fields
    | _ -> Error "cache entry: bad stats field"
  in
  Ok
    {
      Runner.config;
      target;
      kernel_ms;
      transfer_ms;
      code_bytes;
      compile_seconds;
      metrics;
      check;
      remarks;
      stats;
    }

let encode ~spec measurements =
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Str Pipelines.version);
         (* Informational: the key already hashes both versions via the
            spec, so entries from older simulator semantics are simply
            never looked up — this field just makes a cache file
            self-describing. *)
         ("sim_version", Json.Str Kernel.semantics_version);
         ("spec", Json.Str spec);
         ("measurements", Json.Arr (List.map measurement_to_json measurements));
       ])
  ^ "\n"

let decode text =
  let* v = Json.of_string (String.trim text) in
  match Json.member "measurements" v with
  | Some (Json.Arr items) -> collect measurement_of_json items
  | _ -> Error "cache entry: missing measurements array"

(* --- the store ----------------------------------------------------- *)

(* Entries fan out over 256 shard directories keyed by the first two hex
   digits of the key — [<dir>/ab/<key>.json] — so the store stays a
   small-directory workload at millions of entries. Keys are content
   hashes (hex digests), so the fan-out is uniform by construction. *)
let shard_of key = if String.length key >= 2 then String.sub key 0 2 else key

let path_of t ~key =
  Filename.concat (Filename.concat t.cache_dir (shard_of key)) (key ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let locate t ~key =
  let path = path_of t ~key in
  if Sys.file_exists path then Some path else None

let lookup t ~key =
  match locate t ~key with
  | None ->
    t.miss_count <- t.miss_count + 1;
    None
  | Some path -> (
    match decode (read_file path) with
    | Ok measurements ->
      t.hit_count <- t.hit_count + 1;
      Some measurements
    | Error msg ->
      Printf.eprintf "warning: dropping corrupt cache entry %s: %s\n%!" path msg;
      (try Sys.remove path with Sys_error _ -> ());
      t.miss_count <- t.miss_count + 1;
      None
    | exception Sys_error msg ->
      Printf.eprintf "warning: unreadable cache entry %s: %s\n%!" path msg;
      t.miss_count <- t.miss_count + 1;
      None)

(* Atomic store: write to a process-unique temporary in the shard
   directory, then rename. Several daemons may share one cache
   directory; identical keys hold identical bytes (keys are content
   hashes of the request identity and responses are deterministic), so
   a lost rename race still installs the right content. *)
let write_atomic t ~key text =
  let path = path_of t ~key in
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  Report.write_text ~path:tmp text;
  Sys.rename tmp path

let store t ~key ~spec measurements = write_atomic t ~key (encode ~spec measurements)

(* Raw entries: the serve daemon persists whole response documents under
   its own content-hash keys. Same directory, same atomic
   write-to-temp-and-rename discipline, same hit/miss counters; the key
   namespaces never collide because a serve key hashes a spec prefixed
   "serve;" while a job key hashes a "v<version>;..." spec. *)

let lookup_raw t ~key =
  match locate t ~key with
  | None ->
    t.miss_count <- t.miss_count + 1;
    None
  | Some path -> (
    match read_file path with
    | text ->
      t.hit_count <- t.hit_count + 1;
      Some text
    | exception Sys_error msg ->
      Printf.eprintf "warning: unreadable cache entry %s: %s\n%!" path msg;
      t.miss_count <- t.miss_count + 1;
      None)

let store_raw = write_atomic
