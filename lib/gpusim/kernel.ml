open Uu_ir
open Uu_support

(* Bump whenever a change alters the metrics or final memory a launch
   produces for the same inputs (the per-block L1 switch, a cost-model
   change, barrier scheduling, ...). The harness folds this into its
   result-cache keys, so stale entries from the previous semantics are
   never served. "5": deferred block-ordered atomic commits and
   bank-resident alloca arenas (global Atomic_add old values and
   alloca traffic costing both changed). *)
let semantics_version = "5"

type arg =
  | Buf of Memory.buffer
  | Int_arg of int64
  | Float_arg of float

type result = {
  metrics : Metrics.t;
  kernel_cycles : float;
  code_bytes : int;
}

let bind_args fn args =
  let params = fn.Func.params in
  if List.length params <> List.length args then
    invalid_arg
      (Printf.sprintf "launch @%s: %d arguments for %d parameters" fn.Func.name
         (List.length args) (List.length params));
  List.map2
    (fun (p : Func.param) arg ->
      match arg, p.pty with
      | Buf b, Types.Ptr elt when Types.equal (Memory.buffer_elt b) elt ->
        (p.pvar, Eval.Ptr { buffer = Memory.buffer_id b; offset = 0 })
      | Buf b, Types.Ptr elt ->
        invalid_arg
          (Printf.sprintf "launch @%s: parameter %s is %s* but buffer is %s"
             fn.Func.name p.pname (Types.to_string elt)
             (Types.to_string (Memory.buffer_elt b)))
      | Buf _, ty ->
        invalid_arg
          (Printf.sprintf "launch @%s: parameter %s is %s, got a buffer"
             fn.Func.name p.pname (Types.to_string ty))
      | Int_arg n, (Types.I64 | Types.I32 | Types.I1) -> (p.pvar, Eval.Int n)
      | Float_arg x, Types.F64 -> (p.pvar, Eval.Float x)
      | (Int_arg _ | Float_arg _), ty ->
        invalid_arg
          (Printf.sprintf "launch @%s: scalar argument mismatch for %s (%s)"
             fn.Func.name p.pname (Types.to_string ty)))
    params args
  (* Shared declarations bind like extra pointer params: slot [k] points
     at shared buffer [-2 - k], constant for the whole launch (the bank
     itself is per-shard and zero-reset at block entry). *)
  @ List.mapi
      (fun k (s : Func.shared) ->
        (s.Func.s_var, Eval.Ptr { buffer = -2 - k; offset = 0 }))
      fn.Func.shared

let shared_bank fn =
  Memory.shared_create
    (List.map (fun (s : Func.shared) -> (s.Func.s_elt, s.Func.s_size)) fn.Func.shared)

(* The per-launch noise draw keeps [Runner]'s cross-launch rng sequencing
   (one [next] per launch), and each block derives a private stream from
   it — warp jitter is a function of (launch, block, warp), never of
   which domain simulated the block or in what order. *)
let block_noise launch_seed block_id =
  match launch_seed with
  | None -> None
  | Some seed -> Some (Rng.stream seed block_id)

let warps_per_block ~device ~block_dim =
  (block_dim + device.Device.warp_size - 1) / device.Device.warp_size

type launch_config = {
  device : Device.t;
  noise : Rng.t option;
  max_warp_cycles : int;
  tracer : Trace.t option;
  races : Racecheck.t option;
  decode_cache : Decode.cache option;
  sim_jobs : int;
}

let default_config =
  {
    device = Device.v100;
    noise = None;
    max_warp_cycles = 200_000_000;
    tracer = None;
    races = None;
    decode_cache = None;
    sim_jobs = 1;
  }

let config ?(device = Device.v100) ?noise ?(max_warp_cycles = 200_000_000)
    ?tracer ?races ?decode_cache ?(sim_jobs = 1) () =
  { device; noise; max_warp_cycles; tracer; races; decode_cache; sim_jobs }

type sinks = {
  s_atomics : Atomics.t;
  s_races : Racecheck.t option;
  s_tracer : Trace.t option;
}

type make_warp =
  smem:Memory.shared_bank ->
  dcache:int Cache.t ->
  icache:Layout.icache ->
  noise:Rng.t option ->
  block_id:int ->
  warp_id:int ->
  lanes:int ->
  Scheduler.warp

(* Fresh private sinks for one shard. The per-shard trace copies the
   destination's limit so sharded truncation matches serial truncation
   (see [Trace.append]). *)
let shard_sinks (config : launch_config) mem =
  {
    s_atomics = Atomics.create mem;
    s_races = Option.map (fun _ -> Racecheck.create ()) config.races;
    s_tracer =
      Option.map (fun t -> Trace.create ~limit:(Trace.limit t) ()) config.tracer;
  }

(* Reduce the shards in ascending block order: sum metrics, commit the
   deferred atomic deltas, merge the race collectors, splice the trace
   buffers. [Parallel.map_range] returns chunks in ascending range
   order, so reducing the shard list front to back IS ascending block
   order. Each reduction is order-deterministic, so metrics, final
   memory, race reports, and traces are byte-identical for any
   [sim_jobs]/chunking. *)
let reduce_shards (config : launch_config) shards =
  let total = Metrics.create () in
  List.iter
    (fun (m, s) ->
      Metrics.add total m;
      Atomics.commit s.s_atomics;
      (match config.races, s.s_races with
      | Some into, Some src -> Racecheck.merge ~into src
      | _ -> ());
      match config.tracer, s.s_tracer with
      | Some into, Some src -> Trace.append ~into src
      | _ -> ())
    shards;
  total

let grid_walk (config : launch_config) mem fn ~grid_dim ~block_dim ~code_bytes
    shard_warps =
  let device = config.device in
  (* No serial gates: tracing, race checking, atomics, and allocas are
     all deterministic under sharding (per-shard sinks reduced in block
     order at the join), so every launch shards freely. *)
  let sim_jobs =
    if config.sim_jobs <= 1 || grid_dim <= 1 then 1 else min config.sim_jobs grid_dim
  in
  let wpb = warps_per_block ~device ~block_dim in
  let launch_seed = Option.map Rng.next config.noise in
  (* One shard: worker-private sinks and per-block caches, [reset] per
     block — every block starts cold, the per-SM L1 model. *)
  let run_shard ~lo ~hi =
    let sinks = shard_sinks config mem in
    let make_warp : make_warp = shard_warps sinks in
    let smem = shared_bank fn in
    let icache = Layout.icache_create device in
    let dcache = Cache.create ~capacity:device.Device.l1_lines in
    let acc = Metrics.create () in
    for block_id = lo to hi - 1 do
      Cache.reset icache;
      Cache.reset dcache;
      Memory.shared_reset smem;
      let noise = block_noise launch_seed block_id in
      (* Ascending warp order: creation draws the per-warp noise, so the
         RNG sequence stays a function of (block, warp). *)
      let warps = ref [] in
      for warp_id = 0 to wpb - 1 do
        let base = warp_id * device.Device.warp_size in
        let lanes = min device.Device.warp_size (block_dim - base) in
        if lanes > 0 then
          warps :=
            make_warp ~smem ~dcache ~icache ~noise ~block_id ~warp_id ~lanes :: !warps
      done;
      Metrics.add acc
        (Scheduler.run_block ~fn_name:fn.Func.name ~block_id
           (Array.of_list (List.rev !warps)))
    done;
    (acc, sinks)
  in
  let shards =
    if sim_jobs <= 1 then [ run_shard ~lo:0 ~hi:grid_dim ]
    else Parallel.map_range ~jobs:sim_jobs ~n:grid_dim run_shard
  in
  let total = reduce_shards config shards in
  { metrics = total; kernel_cycles = Metrics.kernel_time total ~device; code_bytes }

let exec ?(config = default_config) mem fn ~grid_dim ~block_dim ~args =
  let bound = bind_args fn args in
  let device = config.device in
  let prog =
    match config.decode_cache with
    | Some cache -> Decode.decode_cached cache device fn
    | None -> Decode.decode device fn
  in
  let wpb = warps_per_block ~device ~block_dim in
  grid_walk config mem fn ~grid_dim ~block_dim ~code_bytes:(Decode.code_bytes prog)
    (fun sinks ->
      let env =
        {
          Warp.device;
          prog;
          mem;
          args = bound;
          block_dim;
          grid_dim;
          max_warp_cycles = config.max_warp_cycles;
          tracer = sinks.s_tracer;
          races = sinks.s_races;
          atomics = sinks.s_atomics;
        }
      in
      (* One scratch state per warp slot: the warps of a block are live
         concurrently under barrier scheduling, and each state is reused
         across every block of the shard. *)
      let states = Array.init wpb (fun _ -> Warp.state env) in
      fun ~smem ~dcache ~icache ~noise ~block_id ~warp_id ~lanes ->
        Warp.make env states.(warp_id) ~smem ~dcache ~icache ~noise ~block_id
          ~warp_id ~lanes)
