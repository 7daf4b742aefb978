(* Tests for the parallel job graph: the domain pool (deterministic
   ordering, actual multi-domain execution, fault capture), the job
   abstraction (content-hash keys, failure records), the
   on-disk result cache (byte-identical hits, key invalidation), and the
   parallel-equals-serial guarantee of the sweep. *)

open Uu_core
open Uu_harness

let check = Alcotest.check
let bool = Alcotest.bool
let int = Alcotest.int

let bezier =
  match Uu_benchmarks.Registry.find "bezier-surface" with
  | Some a -> a
  | None -> assert false

let fresh_cache_dir () =
  let path = Filename.temp_file "uu_cache" "" in
  Sys.remove path;
  path

let test_map_order () =
  let items = List.init 100 Fun.id in
  check (Alcotest.list int) "input order preserved" (List.map (fun i -> i * i) items)
    (Uu_support.Parallel.map ~jobs:4 (fun i -> i * i) items);
  check (Alcotest.list int) "jobs:1 runs inline" (List.map (fun i -> i + 1) items)
    (Uu_support.Parallel.map ~jobs:1 (fun i -> i + 1) items)

let test_map_uses_domains () =
  if Uu_support.Parallel.available_domains () < 2 then ()
  else begin
    (* Workers rendezvous before returning their domain id, so at least
       two distinct domains must participate (with a deadline so a
       pathological scheduler degrades to a test failure, not a hang). *)
    let started = Atomic.make 0 in
    let ids =
      Uu_support.Parallel.map ~jobs:2
        (fun _ ->
          Atomic.incr started;
          let deadline = Unix.gettimeofday () +. 5.0 in
          while Atomic.get started < 2 && Unix.gettimeofday () < deadline do
            Domain.cpu_relax ()
          done;
          (Domain.self () :> int))
        [ 0; 1 ]
    in
    check bool "two distinct domains" true
      (match ids with [ a; b ] -> a <> b | _ -> false)
  end

let test_map_result_captures () =
  let results =
    Uu_support.Parallel.map_result ~jobs:3
      (fun i -> if i mod 2 = 0 then i else failwith ("odd " ^ string_of_int i))
      [ 0; 1; 2; 3 ]
  in
  check bool "evens succeed, odds fail, order kept" true
    (match results with
    | [ Ok 0; Error (Failure a); Ok 2; Error (Failure b) ] ->
      a = "odd 1" && b = "odd 3"
    | _ -> false)

let test_job_keys () =
  let j = Jobs.job bezier Pipelines.Baseline in
  check Alcotest.string "key is stable" (Jobs.key j) (Jobs.key j);
  let differs j' = Jobs.key j <> Jobs.key j' in
  check bool "config changes key" true (differs (Jobs.job bezier (Pipelines.Uu 2)));
  check bool "factor changes key" true
    (Jobs.key (Jobs.job bezier (Pipelines.Uu 2))
    <> Jobs.key (Jobs.job bezier (Pipelines.Uu 4)));
  let loop = List.hd (Runner.loop_inventory bezier) in
  check bool "target changes key" true
    (differs (Jobs.job ~target:loop bezier Pipelines.Baseline));
  check bool "protocol changes key" true
    (differs (Jobs.job ~protocol:(Jobs.Noisy { runs = 3 }) bezier Pipelines.Baseline));
  check bool "pipeline version changes key" true
    (Jobs.key ~version:"test-bump" j <> Jobs.key j);
  (* Noise seeds are pure functions of (key, run index). *)
  let k = Jobs.key j in
  check bool "noise seed deterministic" true
    (Jobs.noise_seed ~key:k 0 = Jobs.noise_seed ~key:k 0
    && Jobs.noise_seed ~key:k 0 <> Jobs.noise_seed ~key:k 1)

let test_failure_record () =
  let calls = Atomic.make 0 in
  let boom =
    Jobs.custom ~name:"boom"
      ~compile:(fun () ->
        Atomic.incr calls;
        failwith "boom")
      bezier Pipelines.Baseline
  in
  let good = Jobs.job bezier Pipelines.Baseline in
  match Jobs.run_all ~jobs:2 [ boom; good ] with
  | [ bad_r; good_r ] ->
    (match bad_r.Jobs.outcome with
    | Error f ->
      (* A job is a pure function of its key: a failure is final, never
         re-attempted. *)
      check int "compiled exactly once" 1 (Atomic.get calls);
      check bool "message preserved" true
        (Astring.String.is_infix ~affix:"boom" f.Jobs.message);
      check bool "label names the job" true
        (Astring.String.is_infix ~affix:"bezier-surface" f.Jobs.job_label)
    | Ok _ -> Alcotest.fail "raising job did not fail");
    check bool "sibling job unaffected" true
      (match good_r.Jobs.outcome with Ok (_ :: _) -> true | _ -> false);
    (match
       Jobs.run_all [ boom ] |> List.map (fun r -> Jobs.measurements_exn r)
     with
    | exception Failure _ -> ()
    | _ -> Alcotest.fail "measurements_exn did not raise")
  | _ -> Alcotest.fail "expected two results"

let test_cache_round_trip () =
  let cache = Result_cache.create ~dir:(fresh_cache_dir ()) in
  let j = Jobs.job ~protocol:(Jobs.Noisy { runs = 2 }) bezier (Pipelines.Uu 2) in
  let cold = Jobs.run_all ~cache [ j ] in
  let warm = Jobs.run_all ~cache [ j ] in
  (match (cold, warm) with
  | [ c ], [ w ] ->
    check bool "cold run executed" false c.Jobs.from_cache;
    check bool "warm run served from cache" true w.Jobs.from_cache;
    let spec = Jobs.spec j in
    (* Byte-identical: re-encoding the decoded measurements reproduces
       the cold run's encoding exactly. *)
    check Alcotest.string "cache round-trip is byte-identical"
      (Result_cache.encode ~spec (Jobs.measurements_exn c))
      (Result_cache.encode ~spec (Jobs.measurements_exn w));
    check bool "measurements equal" true
      (Jobs.measurements_exn c = Jobs.measurements_exn w)
  | _ -> Alcotest.fail "expected one result each");
  check int "one hit" 1 (Result_cache.hits cache);
  check int "one miss" 1 (Result_cache.misses cache);
  (* decode . encode is the identity on the wire format too. *)
  let ms = Jobs.measurements_exn (List.hd warm) in
  (match Result_cache.decode (Result_cache.encode ~spec:(Jobs.spec j) ms) with
  | Ok ms' ->
    check Alcotest.string "decode(encode) round-trips"
      (Result_cache.encode ~spec:"x" ms)
      (Result_cache.encode ~spec:"x" ms')
  | Error e -> Alcotest.fail ("decode failed: " ^ e));
  (* A corrupt entry is a miss, not a crash. Entries live sharded under
     the first two hex digits of their key. *)
  let key = Jobs.key j in
  let shard = Filename.concat (Result_cache.dir cache) (String.sub key 0 2) in
  let path = Filename.concat shard (key ^ ".json") in
  check bool "entry stored in its shard" true (Sys.file_exists path);
  let oc = open_out path in
  output_string oc "{not json";
  close_out oc;
  check bool "corrupt entry ignored" true (Result_cache.lookup cache ~key = None)

let test_sweep_parallel_equals_serial () =
  let serial = Sweep.run ~apps:[ bezier ] ~jobs:1 () in
  let parallel = Sweep.run ~apps:[ bezier ] ~jobs:4 () in
  check int "same point count" (List.length serial.Sweep.points)
    (List.length parallel.Sweep.points);
  check bool "point-for-point identical" true (serial.Sweep.points = parallel.Sweep.points);
  check bool "same baselines" true (serial.Sweep.baselines = parallel.Sweep.baselines);
  check int "no failures" 0 (List.length parallel.Sweep.failures)

let test_config_round_trip () =
  List.iter
    (fun c ->
      check bool
        ("round-trips " ^ Pipelines.config_to_string c)
        true
        (Pipelines.config_of_string (Pipelines.config_to_string c) = Ok c))
    (Pipelines.all_standard
    @ [ Pipelines.Uu_heuristic_divergence; Pipelines.Uu_selective 4 ]);
  (* CLI aliases and inline factors. *)
  check bool "uu-4" true (Pipelines.config_of_string "uu-4" = Ok (Pipelines.Uu 4));
  check bool "unroll:8" true
    (Pipelines.config_of_string "unroll:8" = Ok (Pipelines.Unroll 8));
  check bool "heuristic" true
    (Pipelines.config_of_string "heuristic" = Ok Pipelines.Uu_heuristic);
  check bool "heuristic-div" true
    (Pipelines.config_of_string "heuristic-div" = Ok Pipelines.Uu_heuristic_divergence);
  check bool "uu-selective-4" true
    (Pipelines.config_of_string "uu-selective-4" = Ok (Pipelines.Uu_selective 4));
  check bool "default factor" true
    (Pipelines.config_of_string ~default_factor:8 "uu" = Ok (Pipelines.Uu 8));
  check bool "unknown rejected" true
    (match Pipelines.config_of_string "warp-speed" with Error _ -> true | Ok _ -> false)

let test_points_for_parsed_config () =
  let sweep = Sweep.run ~apps:[ bezier ] () in
  match Pipelines.config_of_string "uu-2" with
  | Ok config ->
    let via_parsed = Sweep.points_for sweep ~config () in
    let via_value = Sweep.points_for sweep ~config:(Pipelines.Uu 2) () in
    check bool "parsed config selects points" true (via_parsed <> []);
    check bool "same selection as the constructor" true (via_parsed = via_value)
  | Error e -> Alcotest.fail e

let suite =
  [
    ("map preserves order", `Quick, test_map_order);
    ("map uses multiple domains", `Quick, test_map_uses_domains);
    ("map_result captures exceptions", `Quick, test_map_result_captures);
    ("job keys", `Quick, test_job_keys);
    ("failure record with retry", `Quick, test_failure_record);
    ("cache round-trip", `Quick, test_cache_round_trip);
    ("parallel sweep = serial sweep", `Slow, test_sweep_parallel_equals_serial);
    ("config round-trip", `Quick, test_config_round_trip);
    ("points_for parsed config", `Slow, test_points_for_parsed_config);
  ]
