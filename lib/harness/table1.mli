(** Table I: per-application overview — category, command line, loop
    count, compute fraction, and baseline/heuristic kernel times as
    mean ± relative standard deviation over repeated noisy runs (the
    paper's 20-run protocol, §IV-B). *)

type row = {
  name : string;
  category : string;
  cli : string;
  loops : int;
  compute_fraction : float;   (** kernel time / (kernel + transfer) *)
  baseline_mean_ms : float;
  baseline_rsd : float;
  heuristic_mean_ms : float;
  heuristic_rsd : float;
}

val compute :
  ?runs:int ->
  ?apps:Uu_benchmarks.App.t list ->
  ?jobs:int ->
  ?sim_jobs:int ->
  ?cache:Result_cache.t ->
  unit ->
  row list
(** Default 20 runs per configuration, executed as [Jobs] on the domain
    pool ([jobs] domains, default all cores) with optional result
    caching. [sim_jobs] shards each launch's blocks (see
    [Jobs.run_all]); rows are byte-identical for any value. Noise seeds derive from each job's content key, so rows are
    independent of scheduling.
    @raise Failure if a job fails (oracle mismatch or a pass error). *)

val render : row list -> string
val to_csv : row list -> string list list
val csv_header : string list
