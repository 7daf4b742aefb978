(** Unroll-and-unmerge — the paper's contribution (§III).

    [uu_loop] unrolls a loop with the given factor (whole-body cloning,
    Fig. 3), then unmerges the enlarged body (Fig. 4): every merge block
    except the original loop header is tail-duplicated, so each of the
    [p^u]-ish paths through the unrolled iterations becomes straight-line
    code in which all branch outcomes are known. Subsequent standard
    passes (condition propagation, GVN, SCCP, instcombine, DCE) perform
    the actual eliminations.

    Loops containing convergent operations ([syncthreads]) are never
    transformed (§III-C); transformed loops are tagged [Pragma_nounroll]
    so the baseline full-unroller leaves them alone (the [coordinates]
    interaction, §IV-C).

    [heuristic_pass] implements §III-C: visit loops innermost-first, skip
    pragma-annotated and convergent loops, pick the largest unroll factor
    [2 ≤ u ≤ u_max] with [f(p,s,u) < c], and only consider an outer loop
    when none of its inner loops was transformed. *)

open Uu_ir

type outcome = {
  applied : bool;
  factor : int;               (** unroll factor used; 1 = unmerge only *)
  duplicated_blocks : int;
  budget_exhausted : bool;
}

val default_block_budget : int
(** Cap on blocks created by one unmerge (stands in for the paper's
    5-minute compile timeout). *)

val uu_loop :
  ?budget:int ->
  ?selective:bool ->
  Func.t ->
  header:Value.label ->
  factor:int ->
  outcome
(** Apply u&u to one loop. [factor = 1] performs unmerging only; the loop
    is still tagged no-unroll, matching the paper's [unmerge]
    configuration (their pass with unroll factor 1). Nested loops are
    only unmerged, not unrolled (SIII-C). *)

type heuristic_params = {
  c : int;        (** size bound on [f(p,s,u)]; paper default 1024 *)
  u_max : int;    (** maximum unroll factor; paper default 8 *)
  avoid_divergent : bool;
      (** extension (§V, future work): skip loops whose branches depend on
          the thread id, as in [complex] *)
}

val default_params : heuristic_params
(** [c = 1024], [u_max = 8], [avoid_divergent = false] — the paper's
    evaluated configuration. *)

val uu_pass : ?budget:int -> headers:(Value.label * int) list -> unit -> Uu_opt.Pass.t
(** Fixed-assignment u&u: apply the given (header, factor) pairs. *)

val heuristic_pass : ?budget:int -> heuristic_params -> Uu_opt.Pass.t

val plan_heuristic : Func.t -> heuristic_params -> (Value.label * int) list
(** The (header, factor) choices the heuristic would make, without
    transforming — used by tests and by the harness for reporting. *)
