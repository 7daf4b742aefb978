(* The serve phase of the traced runs: the built `uu serve` daemon in its
   own process, driven in a closed loop over one connection by this
   process. The traffic is
   mostly cache hits on a hot set, some misses (a warm module with a new
   noise seed, so it simulates and stores), and a few requests an app
   deterministically rejects (never cached, so each one reaches the
   pool). The request order, the misses' noise seeds and the reject
   interleaving all derive from the workload seed. *)

open Uu_core
open Uu_serve
open Uu_support
open Common

let daemon_exe = "_build/default/bin/uu_main.exe"

let request ?noise_seed app config (grid_dim, block_dim, elems) =
  Request.make ~grid_dim ~block_dim ~elems ?noise_seed (Request.App app) config

(* The hot set is the 16-request mix of [bench serve] (bench/main.ml),
   the repository's existing serve load generator: four apps under
   baseline and u&u-4 at two shapes. *)
let hot =
  Array.of_list
    (List.concat_map
       (fun app ->
         List.concat_map
           (fun config -> List.map (request app config) [ (64, 32, 2048); (128, 32, 4096) ])
           [ Pipelines.Baseline; Pipelines.Uu 4 ])
       [ "stencil1d"; "treduce"; "complex"; "bezier-surface" ])

(* Misses re-run the hot requests of the three cheap apps with a fresh
   noise seed (1-17 ms each). A bezier-surface miss simulates for
   0.5-2 s, as long as thousands of hits on one connection, so it is
   left out of the misses. *)
let heavy r = r.Request.source = Request.App "bezier-surface"
let miss_kinds = List.filter (fun r -> not (heavy r)) (Array.to_list hot)

(* Every one of these fails with a simulated out-of-bounds access at
   this shape. *)
let rejects =
  Array.of_list
    (List.map
       (fun app -> request app Pipelines.Baseline (64, 32, 2048))
       [ "rainflow"; "contract"; "stencil2d" ])

type cls = Hit | Miss | Reject

(* The traffic comes in decks, each shuffled by the workload seed: every
   hot request ten times, one miss of each kind and every reject once.
   No recorded serve traffic exists to copy, so these proportions are an
   assumption: mostly hits, with enough misses and rejects in every
   round for the percentiles reported of them. Fixed proportions keep
   the run-to-run spread down to the daemon's own. *)
let deck rng =
  let misses =
    List.map
      (fun r -> (Miss, { r with Request.noise_seed = Some (Random.State.int64 rng Int64.max_int) }))
      miss_kinds
  in
  let hits = List.concat (List.init 10 (fun _ -> List.map (fun r -> (Hit, r)) (Array.to_list hot))) in
  let d = Array.of_list (hits @ misses @ List.map (fun r -> (Reject, r)) (Array.to_list rejects)) in
  for i = Array.length d - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = d.(i) in
    d.(i) <- d.(j);
    d.(j) <- t
  done;
  d

(* --- the daemon -------------------------------------------------------- *)

type daemon = { pid : int; dir : string; socket : string; ctl : Client.t }

(* The daemon currently running, if any, so that an interrupted run can
   still stop it. *)
let live : (int * string) option ref = ref None

(* Leave no daemon, socket or cache behind after a failure. *)
let kill ~pid ~dir =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  remove_tree dir;
  live := None

let abandon () = Option.iter (fun (pid, dir) -> kill ~pid ~dir) !live

let guard d f = try f () with e -> kill ~pid:d.pid ~dir:d.dir; raise e

(* Send every hot request and every reject once, over one connection per
   pool domain. Each connection takes the next request as it frees up,
   largest first, so the bezier-surface ones (0.5-2 s each) spread over
   the pool. *)
let fill ~socket =
  let todo =
    Array.of_list
      (List.stable_sort
         (fun a b -> compare (heavy b, b.Request.elems) (heavy a, a.Request.elems))
         (Array.to_list (Array.append hot rejects)))
  in
  let next = Atomic.make 0 in
  let worker _ =
    let c = Client.connect ~socket () in
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < Array.length todo then begin
            ignore (Client.request c todo.(i));
            go ()
          end
        in
        go ())
  in
  let n = nproc () in
  ignore (Parallel.map ~jobs:n worker (List.init n Fun.id))

(* Start a daemon on a private socket and cache directory, wait for it
   through the client's connect retries, and compile every module of the
   mix and fill the hot set through it. *)
let start_daemon ~dir =
  ensure_dir work_dir;
  remove_tree dir;
  Sys.mkdir dir 0o755;
  let socket = Filename.concat dir "uu.sock" in
  let argv =
    [|
      daemon_exe; "serve"; "--socket"; socket; "--domains"; string_of_int (nproc ());
      "--cache-dir"; Filename.concat dir "cache";
    |]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process daemon_exe argv devnull Unix.stderr Unix.stderr in
  Unix.close devnull;
  live := Some (pid, dir);
  match Client.connect ~socket ~retries:100 () with
  | exception e ->
    kill ~pid ~dir;
    raise e
  | ctl ->
    let d = { pid; dir; socket; ctl } in
    guard d (fun () -> fill ~socket);
    d

let stop d =
  let rss = peak_rss_mb (string_of_int d.pid) in
  let stats = Client.stats d.ctl in
  Client.shutdown d.ctl;
  Client.close d.ctl;
  ignore (Unix.waitpid [] d.pid);
  remove_tree d.dir;
  live := None;
  (rss, stats)

(* --- the generator ----------------------------------------------------- *)

type conn_result = {
  samples : (cls * float) list;  (** latency in ms *)
  busy : int;
  wall : float;  (** seconds of timed traffic *)
  seen : (string, cls * Request.t * (Digest.t * int) list) Hashtbl.t;
      (** request key -> class, request, and how often each response
          digest came back *)
}

let bump digests d =
  (d, 1 + Option.value (List.assoc_opt d digests) ~default:0) :: List.remove_assoc d digests

let drive ~socket ~seed ~deadline round =
  let rng = Random.State.make [| seed; round |] in
  let current = ref [||] and pos = ref 0 in
  let next () =
    if !pos = Array.length !current then begin
      current := deck rng;
      pos := 0
    end;
    incr pos;
    !current.(!pos - 1)
  in
  let client = Client.connect ~socket () in
  let samples = ref [] and busy = ref 0 and replies = ref [] in
  let start = now () in
  while now () < deadline do
    let cls, r = next () in
    let t0 = now () in
    match Client.request client r with
    | exception Client.Busy _ -> incr busy
    | _, response ->
      samples := (cls, (now () -. t0) *. 1000.0) :: !samples;
      replies := (cls, r, response) :: !replies
  done;
  let wall = now () -. start in
  Client.close client;
  (* The replies are keyed and digested after the deadline, so the timed
     loop holds nothing but the round trips. *)
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun (cls, r, response) ->
      let key = Request.key r and d = Digest.string (Response.to_string response) in
      let digests = match Hashtbl.find_opt seen key with Some (_, _, ds) -> ds | None -> [] in
      Hashtbl.replace seen key (cls, r, bump digests d))
    !replies;
  { samples = !samples; busy = !busy; wall; seen }

(* --- the output check -------------------------------------------------- *)

(* The in-process answer to every distinct request the daemon served:
   [Runner.run_request]'s two halves, with one compilation per module
   (per checking domain). Returns the number of answers whose bytes
   differ (or that were rejected when they should not have been, or
   vice versa), the per-call compile and respond times, and the
   expected documents. *)
let check_responses distinct =
  let n = nproc () in
  let shards = Array.make n [] in
  List.iteri (fun i x -> shards.(i mod n) <- x :: shards.(i mod n)) distinct;
  let check shard =
    let modules = Hashtbl.create 16 in
    let compile_ms = ref [] and respond_ms = ref [] and bad = ref 0 and texts = ref [] in
    List.iter
      (fun (key, (cls, r, digests)) ->
        let ck = Request.compile_key r in
        let compiled =
          match Hashtbl.find_opt modules ck with
          | Some c -> c
          | None ->
            let c, s = time (fun () -> Uu_harness.Runner.compile_request r) in
            compile_ms := (s *. 1000.0) :: !compile_ms;
            Hashtbl.replace modules ck c;
            c
        in
        let expected, s =
          time (fun () ->
              match compiled with
              | Error msg -> Error msg
              | Ok c -> Uu_harness.Runner.respond r c)
        in
        if cls = Miss then respond_ms := (s *. 1000.0) :: !respond_ms;
        let text = Response.to_string expected in
        texts := (key, cls, text) :: !texts;
        let right = Result.is_error expected = (cls = Reject) in
        List.iter
          (fun (d, n) -> if d <> Digest.string text || not right then bad := !bad + n)
          digests)
      shard;
    (!bad, !compile_ms, !respond_ms, !texts)
  in
  let parts =
    Uu_support.Parallel.map ~jobs:n check (Array.to_list shards)
  in
  let cat f = List.concat_map f parts in
  ( List.fold_left (fun a (b, _, _, _) -> a + b) 0 parts,
    cat (fun (_, c, _, _) -> c),
    cat (fun (_, _, r, _) -> r),
    cat (fun (_, _, _, t) -> t) )

(* --- per-layer probes -------------------------------------------------- *)

let per_call_us n f =
  let _, s = time (fun () -> for i = 0 to n - 1 do f i done) in
  s /. float_of_int n *. 1e6

(* The daemon's reply to a hit, as [Server.result_frame] (which the
   library does not export) builds it: parse the cached text, print the
   frame. *)
let result_frame ~id text =
  Protocol.encode_frame
    (Json.Obj
       [
         ("frame", Json.Str "result");
         ("id", Json.Int id);
         ("served", Json.Str (Protocol.served_string Protocol.Cache));
         ("response", Json.of_string_exn text);
       ])

(* The stages of the request path, called in-process on the mix's own
   requests and documents. A hit runs, in order: the client's
   [encode_frame], the reactor's [Codec] decode, [client_of_json] and
   [Request.key], [lookup_raw], [result_frame], and the client's
   [read_server]. [Response.to_string] and [store_raw] run on the miss
   path only.

   Each hit-path stage is timed on every hot request alone and reported
   as the median over the hot set. Hits spread evenly over the hot set,
   so the median hot request's stage sum is the work of the median hit;
   a mean would be dominated by bezier-surface, whose documents are
   7-49 KB against under 2 KB for the others. *)
let stage_costs ~texts =
  let n = 1_000 in
  let text_of = Hashtbl.create 64 in
  List.iter (fun (k, _, t) -> Hashtbl.replace text_of k t) texts;
  let hot_texts =
    Array.map
      (fun r ->
        match Hashtbl.find_opt text_of (Request.key r) with
        | Some t -> t
        | None -> Response.to_string (Uu_harness.Runner.run_request r))
      hot
  in
  let dir = Filename.concat work_dir (Printf.sprintf "probe-%d" (Unix.getpid ())) in
  remove_tree dir;
  Sys.mkdir dir 0o755;
  let cache = Uu_harness.Result_cache.create ~dir in
  Array.iteri
    (fun i r -> Uu_harness.Result_cache.store_raw cache ~key:(Request.key r) hot_texts.(i))
    hot;
  (* [read_server] reads from a channel: a file of [copies] of the reply
     frame, read back a pass at a time. *)
  let copies = 20 in
  let read_server_us i =
    let file = Filename.concat dir "replies" in
    Out_channel.with_open_bin file (fun oc ->
        for id = 1 to copies do
          output_string oc (result_frame ~id hot_texts.(i))
        done);
    per_call_us (n / copies) (fun _ ->
        In_channel.with_open_bin file (fun ic ->
            for _ = 1 to copies do
              ignore (Protocol.read_server ic)
            done))
    /. float_of_int copies
  in
  let stages i =
    let r = hot.(i) in
    let json = Protocol.client_to_json (Protocol.Request { id = 0; request = r }) in
    let frame = Protocol.encode_frame json in
    let key = Request.key r in
    [
      ( "protocol.encode_frame_us",
        per_call_us n (fun id ->
            ignore
              (Protocol.encode_frame (Protocol.client_to_json (Protocol.Request { id; request = r }))))
      );
      ( "protocol.codec_decode_us",
        per_call_us n (fun _ ->
            let c = Protocol.Codec.create () in
            Protocol.Codec.feed c frame ~off:0 ~len:(String.length frame);
            ignore (Protocol.Codec.next c)) );
      ("protocol.client_of_json_us", per_call_us n (fun _ -> ignore (Protocol.client_of_json json)));
      ("request.key_us", per_call_us n (fun _ -> ignore (Request.key r)));
      ( "cache.lookup_raw_us",
        per_call_us n (fun _ -> ignore (Uu_harness.Result_cache.lookup_raw cache ~key)) );
      ("server.result_frame_us", per_call_us n (fun id -> ignore (result_frame ~id hot_texts.(i))));
      ("protocol.read_server_us", read_server_us i);
    ]
  in
  let per_request = List.init (Array.length hot) stages in
  let median_of name = Stats.median (List.map (List.assoc name) per_request) in
  let hit_sum_us = Stats.median (List.map (fun st -> sum (List.map snd st)) per_request) in
  let responses = Array.map (fun t -> Result.get_ok (Response.of_string t)) hot_texts in
  let to_string =
    per_call_us n (fun i -> ignore (Response.to_string responses.(i mod Array.length responses)))
  in
  let stored =
    Array.of_list (List.filter_map (fun (k, c, t) -> if c = Miss then Some (k, t) else None) texts)
  in
  let store =
    per_call_us (Array.length stored) (fun i ->
        let key, text = stored.(i) in
        Uu_harness.Result_cache.store_raw cache ~key text)
  in
  remove_tree dir;
  ( List.map (fun (name, _) -> m name "us" (median_of name)) (List.hd per_request)
    @ [ m "response.to_string_us" "us" to_string; m "cache.store_raw_us" "us" store ],
    hit_sum_us )

(* --- the workload ------------------------------------------------------ *)

(* One round: a fresh daemon (its set-up timed), then traffic until the
   deadline, then shutdown. *)
type round = {
  setup_s : float;
  traffic : conn_result;
  rss : float;
  stats : (string * int) list;
}

let round ~seed ~seconds i =
  let dir = Filename.concat work_dir (Printf.sprintf "serve-%d-%d" (Unix.getpid ()) i) in
  let sp = speed ~wide:true () in
  let d, setup_s = timed sp (fun () -> time (fun () -> start_daemon ~dir)) in
  let traffic =
    guard d (fun () -> drive ~socket:d.socket ~seed ~deadline:(now () +. seconds) i)
  in
  let rss, stats = guard d (fun () -> stop d) in
  { setup_s; traffic; rss; stats }

(* The run is split into rounds, each against its own daemon process, and
   every figure is the median over rounds. On a shared two-core machine
   the processors slow down for stretches of several seconds, moving
   every latency of a round together; the median keeps one such stretch
   from moving the run's figures. *)
let rounds = 3

let run ~seed ~seconds =
  let rs =
    List.init rounds (fun i ->
        round ~seed ~seconds:(float_of_int seconds /. float_of_int rounds) i)
  in
  let per_round f = Stats.median (List.map f rs) in
  let lat c r = List.filter_map (fun (k, ms) -> if k = c then Some ms else None) r.traffic.samples in
  let pct c p = per_round (fun r -> Stats.percentile p (lat c r)) in
  let count c = List.fold_left (fun a r -> a + List.length (lat c r)) 0 rs in
  let distinct = Hashtbl.create 4096 in
  List.iter
    (fun r ->
      Hashtbl.iter
        (fun key (c, req, ds) ->
          let known = match Hashtbl.find_opt distinct key with Some (_, _, k) -> k | None -> [] in
          Hashtbl.replace distinct key (c, req, ds @ known))
        r.traffic.seen)
    rs;
  let bad, compile_ms, respond_ms, texts =
    check_responses (Hashtbl.fold (fun k v acc -> (k, v) :: acc) distinct [])
  in
  let busy = List.fold_left (fun a r -> a + r.traffic.busy) 0 rs in
  let answered = List.fold_left (fun a r -> a + List.length r.traffic.samples) 0 rs in
  let failed = busy + bad in
  let rps = per_round (fun r -> float_of_int (List.length r.traffic.samples) /. r.traffic.wall) in
  let hit50 = pct Hit 0.5 and miss50 = pct Miss 0.5 in
  (* The latency and throughput figures are not gated: on a shared
     two-core machine they swing by up to 2x between runs (README.md), so
     they are per-layer metrics of the traced runs only. *)
  let layers =
    let stages, hit_stages = stage_costs ~texts in
    let respond50 = Stats.percentile 0.5 respond_ms in
    (* Daemon counters summed over the rounds' daemons. *)
    let stat k =
      float_of_int
        (List.fold_left
           (fun a r -> a + Option.value (List.assoc_opt k r.stats) ~default:0)
           0 rs)
    in
    let lookups = stat "serve.cache_hits" +. stat "serve.cache_misses" in
    [
      m "serve.setup_s" "s" (per_round (fun r -> r.setup_s));
      m "serve.peak_rss_mb" "MiB" (per_round (fun r -> r.rss));
      m "serve_rps" "1/s" rps;
      m "serve_hit_ms_p50" "ms" hit50;
      m "serve_hit_ms_p99" "ms" (pct Hit 0.99);
      m "serve_miss_ms_p50" "ms" miss50;
      m "serve_miss_ms_p90" "ms" (pct Miss 0.9);
      m "serve_reject_ms_p50" "ms" (pct Reject 0.5);
    ]
    @ stages
    @ [
        m "runner.compile_request_ms" "ms" (Stats.mean compile_ms);
        m "runner.respond_ms" "ms" respond50;
        m "serve.hit_gap_ms" "ms" (hit50 -. (hit_stages /. 1000.0));
        m "serve.miss_gap_ms" "ms" (miss50 -. respond50);
      ]
    @ List.map
        (fun k -> m k "count" (stat k))
        [
          "serve.cache_hits"; "serve.cache_misses"; "serve.executed"; "serve.joined";
          "serve.shed"; "serve.errors"; "serve.compiled_modules";
        ]
    @ [ m "serve.hit_ratio" "ratio" (if lookups = 0.0 then 0.0 else stat "serve.cache_hits" /. lookups) ]
  in
  {
    correct = failed = 0 && List.for_all (fun c -> count c > 0) [ Hit; Miss; Reject ];
    attempted = answered + busy;
    failed;
    metrics = layers;
  }
