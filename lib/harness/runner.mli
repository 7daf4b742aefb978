(** The experiment runner: compiles an application under a configuration
    (optionally restricted to one loop, as the paper does per-loop,
    §IV-B), simulates its launch schedule, validates results against the
    host oracle, and reports the measurements every table and figure is
    built from. *)

open Uu_core

type loop_ref = {
  kernel : string;
  loop_id : int;       (** deterministic id within the kernel *)
  header : Uu_ir.Value.label;
}

val loop_inventory : Uu_benchmarks.App.t -> loop_ref list
(** All loops of all kernels, after the pipeline's early phase (so headers
    match what the transform sees). Order: kernels in source order, loops
    by id. *)

type measurement = {
  config : Pipelines.config;
  target : loop_ref option;        (** [None] = whole-application run *)
  kernel_ms : float;               (** simulated kernel time *)
  transfer_ms : float;             (** modeled host-transfer time *)
  code_bytes : int;                (** kernel code plus the app's rest-of-binary *)
  compile_seconds : float;
  metrics : Uu_gpusim.Metrics.t;
  check : (unit, string) result;
  remarks : Uu_support.Remark.t list;
      (** optimization remarks emitted while compiling, all kernels *)
  stats : (string * int) list;
      (** statistic-counter deltas of the compilation, summed over kernels *)
}

val cycles_per_ms : float
(** Conversion between simulated cycles and reported milliseconds. *)

type compiled
(** An optimized module with its compile report (deterministic work,
    remarks, statistic deltas) and a warm decode cache, reusable across
    simulation runs and across every request sharing one
    [Uu_serve.Request.compile_key]. {!compile} and {!compile_request}
    are two front ends over one compile core: lower the source, pick
    each kernel's loop targets from that kernel alone, optimize. The
    decode cache inside is single-domain: callers sharing a [compiled]
    across domains must serialize their simulations (the serve daemon
    holds a per-entry lock). *)

val compile :
  ?target:loop_ref ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  compiled
(** Compile every kernel of [app] under [config]; with [target], the
    transform applies to that one loop only. *)

val make_compiled :
  ?stats:(string * int) list ->
  app:Uu_benchmarks.App.t ->
  config:Pipelines.config ->
  Uu_ir.Func.modul ->
  compiled
(** Wrap an already-optimized module as a {!compiled} application so
    hand-rolled transforms (the ablation variants) go through the same
    simulation, measurement, and caching path as stock pipeline
    configurations. [config] is recorded in the resulting measurements;
    extra [stats] entries ride along in [measurement.stats]. *)

val compiled_module : compiled -> Uu_ir.Func.modul
val compiled_remarks : compiled -> Uu_support.Remark.t list
val compiled_stats : compiled -> (string * int) list
(** The optimized module / remark stream / statistic deltas of a
    compilation, without simulating (used by [uu --dot], [uu provenance]
    and the [experiments remarks] subcommand). *)

val simulate :
  ?noise_seed:int64 ->
  ?sim_jobs:int ->
  compiled ->
  measurement
(** Simulate a previously compiled application under its launch
    schedule; used by Table I's 20-run protocol to avoid recompiling per
    run. Each {!compiled} carries its own decode cache, so repeated
    simulations decode every kernel exactly once. [sim_jobs] (default 1)
    shards each launch's blocks over that many domains — measurements
    are byte-identical for any value (see [Kernel.exec]).
    @raise Invalid_argument if [c] was compiled from inline source text,
    which has no launch schedule. *)

val race_audit :
  compiled ->
  (string * Uu_gpusim.Racecheck.t) list
(** Replay the app's launch schedule with a write-set collector attached
    to each launch — one [(kernel, collector)] pair per launch, in
    schedule order. Empty [Racecheck.overlaps] on every collector means
    block-order independence of final memory holds for this workload
    (the assumption the parallel shard rests on). Always serial. *)

val run :
  ?noise_seed:int64 ->
  ?sim_jobs:int ->
  ?target:loop_ref ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  measurement
(** Compile + simulate one configuration. [noise_seed] enables the memory
    jitter model (used for Table I's 20-run statistics); without it the
    simulation is deterministic. When [target] is set, the transform is
    applied to that single loop only. *)

val run_exn :
  ?noise_seed:int64 ->
  ?sim_jobs:int ->
  ?target:loop_ref ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  measurement
(** Like {!run} but raises [Failure] if the oracle check fails. *)

(** {1 The request funnel}

    Every compile-and-simulate entry point — [uu run], [uu compile],
    [uu request], and the serve daemon — builds a
    [Uu_serve.Request.t] and comes through here. The split mirrors
    {!compile}/{!simulate}: a request is compiled once (expensive,
    cacheable by [Request.compile_key]) and responded to per request
    identity (shape, races, noise). *)

val compile_request : Uu_serve.Request.t -> (compiled, string) result
(** Resolve the source (registry app or inline text), lower, and
    optimize under the request's config. A request's loop id names, in
    each kernel, the loop with that id in the freshly lowered kernel.
    All frontend and pipeline failures come back as [Error] text, never
    exceptions. *)

val synthetic_args :
  elems:int ->
  Uu_support.Rng.t ->
  Uu_gpusim.Memory.t ->
  Uu_ir.Func.t ->
  Uu_gpusim.Kernel.arg list
(** The synthetic-buffer arguments {!respond} launches a [Run] request's
    kernels with: [elems]-element buffers (f64 filled with uniform
    draws from the shared [rng], seeded 7 per request; i64 zeroed), f64
    scalars 1.0, int scalars [elems]. *)

val respond :
  ?default_sim_jobs:int ->
  Uu_serve.Request.t ->
  compiled ->
  Uu_serve.Response.t
(** Answer one request from its compiled module: print IR for [Compile]
    mode, simulate every kernel with the synthetic-buffer protocol for
    [Run] mode. A [Run] request's launch shape must satisfy
    [1 <= grid_dim <= 65535], [1 <= block_dim <= 1024] (CUDA's per-block
    limit), and [0 <= elems <= 2{^20}]; any other shape is an [Error]
    before anything is allocated. [default_sim_jobs] (default 1) applies
    only when the request leaves [sim_jobs] unset; it cannot change a
    response byte. *)

val run_request :
  ?default_sim_jobs:int -> Uu_serve.Request.t -> Uu_serve.Response.t
(** [compile_request] + {!respond} — the single funnel. *)
