(** The experiment job graph.

    Every measurement the harness produces — sweep points, Table I rows,
    ablation variants — is one {e job}: an application compiled under a
    configuration (optionally restricted to one loop) and simulated under
    a run protocol. [Sweep], [Table1], and [Ablation] all describe their
    work as job lists and hand them to {!run_all}, which executes them on
    a [Uu_support.Parallel] domain pool, serves repeats from the on-disk
    [Result_cache], isolates faults, and returns results in input order.

    {b Determinism.} Results are ordered by job, never by completion;
    compilation and noise-free simulation are pure functions of the job;
    and noisy protocols derive their per-run seeds from the job's
    content-hash {!key} (see {!noise_seed}), not from scheduling order.
    Running with 1 domain, N domains, or a warm cache therefore yields
    identical measurements.

    {b Fault isolation.} A job that raises (a pass bug, a failed oracle
    check) becomes a structured {!failure} record in that job's result,
    and the remaining jobs are unaffected. It is not retried: a job is a
    pure function of its key, so a retry would only reproduce the same
    failure. *)

open Uu_core

type protocol =
  | Once  (** one deterministic simulation, no latency jitter *)
  | Noisy of { runs : int }
      (** compile once, simulate [runs] times with per-run noise seeds —
          the paper's 20-run Table I protocol (§IV-B) *)

type work =
  | Pipeline
      (** compile with [Runner.compile] under the job's configuration *)
  | Custom of { name : string; compile : unit -> Runner.compiled }
      (** a hand-rolled transform (the ablation variants). [name] must
          uniquely and stably identify the transform — it substitutes for
          the configuration in the cache {!key}. *)

type job = {
  app : Uu_benchmarks.App.t;
  config : Pipelines.config;
  target : Runner.loop_ref option;
  protocol : protocol;
  work : work;
}

val job :
  ?target:Runner.loop_ref ->
  ?protocol:protocol ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  job
(** A standard pipeline job; [protocol] defaults to {!Once}. *)

val custom :
  name:string ->
  compile:(unit -> Runner.compiled) ->
  ?protocol:protocol ->
  Uu_benchmarks.App.t ->
  Pipelines.config ->
  job
(** A custom-transform job; [config] is what the resulting measurements
    report (typically [Baseline] for ablations). *)

val label : job -> string
(** Human-readable identifier, e.g. ["rainflow/u&u-4@kernel#2"]. *)

val spec : job -> string
(** The canonical content string the cache key is hashed from: pipeline
    version, simulator-semantics version
    ([Uu_gpusim.Kernel.semantics_version]), app name, config string,
    target, protocol, and work kind. *)

val key : ?version:string -> ?sim_version:string -> job -> string
(** Stable content-hash key (hex digest of {!spec}). [version] defaults
    to [Uu_core.Pipelines.version] and [sim_version] to
    [Uu_gpusim.Kernel.semantics_version]; both are exposed so tests can
    assert that bumping either invalidates keys — a simulator-semantics
    change must never serve metrics cached under the old machine. *)

val noise_seed : key:string -> int -> int64
(** The noise seed of run [i] of the job with the given key — a pure
    function of [(key, i)], which is what makes noisy protocols immune
    to scheduling order. *)

type failure = {
  job_label : string;
  job_key : string;
  message : string;  (** the job's exception *)
}

type result = {
  rjob : job;
  rkey : string;
  outcome : (Runner.measurement list, failure) Stdlib.result;
      (** one measurement per protocol run *)
  from_cache : bool;
}

val run_all :
  ?jobs:int ->
  ?sim_jobs:int ->
  ?cache:Result_cache.t ->
  job list ->
  result list
(** Execute a job list. [jobs] is the domain-pool size (default
    [Parallel.available_domains ()]); [sim_jobs] is each job's
    intra-launch block-shard width. When [sim_jobs] is omitted it is
    budgeted from the cores the pool leaves over: a full queue runs its
    jobs with [sim_jobs = 1] (job-level parallelism already saturates
    the machine), while a queue that fans out fewer uncached jobs than
    there are cores splits the remainder evenly — the two levels compose
    instead of oversubscribing. Neither [jobs] nor [sim_jobs] can change
    any measurement byte. Cache lookups and stores happen on the calling
    domain only. Results are in input order. *)

val measurements_exn : result -> Runner.measurement list
(** The job's measurements. @raise Failure with the failure message when
    the job failed — for callers (Table I, ablations) that keep the old
    fail-fast behaviour. *)
