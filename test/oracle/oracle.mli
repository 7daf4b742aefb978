(** The reference engine: the tree-walking SIMT interpreter over the IR
    ({!Ref_warp}) launched through the simulator's own grid walk
    ([Kernel.grid_walk]). It is the oracle the decoded simulator is
    checked against, cycle for cycle, and it never ships in the
    product. *)

open Uu_gpusim

type exec =
  ?config:Kernel.launch_config ->
  Memory.t ->
  Uu_ir.Func.t ->
  grid_dim:int ->
  block_dim:int ->
  args:Kernel.arg list ->
  Kernel.result
(** [Kernel.exec]'s type. *)

val exec : exec
(** [Kernel.exec] on the reference interpreter: the same launch config
    (its [decode_cache] is unused), the same sharding, per-block resets,
    and block-ordered reduction, and — by contract — the same metrics,
    final memory, race reports, traces, and failure messages for every
    program both can run. *)

val engines : (string * exec) list
(** [[("reference", exec); ("decoded", Kernel.exec)]] — what every
    cross-engine test loops over. *)
