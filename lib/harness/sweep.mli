(** The per-loop measurement sweep feeding Figures 6, 7, and 8: every
    loop of every application, compiled under unroll (factors 2/4/8),
    unmerge, and u&u (factors 2/4/8), applied to that loop alone (§IV-B),
    plus the per-app baseline and heuristic runs. Deterministic (no
    latency jitter) regardless of parallelism: the sweep is described as
    a [Jobs] list and executed on the domain pool, and points are
    assembled in job order, so [run ~jobs:n] is point-for-point identical
    to the serial run for every [n]. *)

open Uu_core

type point = {
  app : string;
  loop : Runner.loop_ref option;  (** [None] for whole-app (heuristic) rows *)
  config : Pipelines.config;
  speedup : float;                (** baseline kernel time / this kernel time *)
  code_ratio : float;             (** code bytes / baseline code bytes *)
  compile_ratio : float;          (** compile seconds / baseline compile seconds *)
}

type t = {
  points : point list;
  baselines : (string * Runner.measurement) list;  (** per app *)
  failures : Jobs.failure list;
      (** jobs that failed; their points are absent. A failed baseline
          additionally drops the app's dependent points. *)
}

val loop_configs : Pipelines.config list
(** unroll 2/4/8, unmerge, u&u 2/4/8. *)

val run :
  ?apps:Uu_benchmarks.App.t list ->
  ?jobs:int ->
  ?sim_jobs:int ->
  ?cache:Result_cache.t ->
  unit ->
  t
(** Runs the full sweep (oracle-checked). [jobs] sizes the domain pool
    (default: all available cores); [sim_jobs] shards each launch's
    blocks (default: budgeted from leftover cores, see [Jobs.run_all]);
    [cache] serves previously measured jobs from disk. *)

val points_for :
  t -> ?config:Pipelines.config -> ?app:string -> unit -> point list
(** Filter points. Configurations are compared by their canonical string
    ([Pipelines.config_to_string]), so values built directly and values
    parsed via [config_of_string] select the same points. *)
