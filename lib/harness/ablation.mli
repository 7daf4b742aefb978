(** Ablation experiments for the design decisions DESIGN.md calls out:

    - {b order}: unroll-then-unmerge (the paper's §III-A order) against
      unmerge-then-unroll;
    - {b depth}: whole-path duplication against one-level DBDS-style
      duplication (§II-d);
    - {b selectivity}: full unmerging against the §VI future-work
      selective variant (phi-carrying merges only).

    Each variant is applied to the hot loop of a few representative
    applications and compared on kernel time and code size. *)

type row = {
  app : string;
  variant : string;
  speedup : float;      (** vs. the app's baseline *)
  code_ratio : float;
  duplicated_blocks : int;
}

val run :
  ?apps:string list ->
  ?jobs:int ->
  ?sim_jobs:int ->
  ?cache:Result_cache.t ->
  unit ->
  row list
(** Default apps: bezier-surface, rainflow, XSBench. Variants execute as
    [Jobs.Custom] work on the domain pool ([jobs] domains) and are cached
    under their stable variant names like any other job; the
    duplicated-block count travels in the measurement's stats.
    @raise Failure if a variant fails. *)

val render : row list -> string
