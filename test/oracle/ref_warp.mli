(** The reference SIMT warp: a tree walk over the kernel IR.

    A warp executes the kernel IR in lockstep over up to 32 lanes using a
    stack of (block, active-mask, reconvergence-point) entries, with
    boxed [Eval] registers per lane. Every charge, cache touch, RNG
    draw, and failure message is specified here independently of the
    decoded executor ([Uu_gpusim.Warp]), which must reproduce them
    exactly. *)

open Uu_ir
open Uu_gpusim

type layout
(** Blocks laid out linearly in reverse postorder, then unreachable
    blocks, [instr_bytes] per instruction (phis and the terminator
    included). *)

val layout : Device.t -> Func.t -> layout

val code_bytes : layout -> int

type launch_env = {
  device : Device.t;
  fn : Func.t;
  mem : Memory.t;
  layout : layout;
  ipdom : Value.label -> Value.label option;  (** immediate post-dominators *)
  args : (Value.var * Eval.rvalue) list;      (** parameter bindings *)
  block_dim : int;
  grid_dim : int;
  max_warp_cycles : int;  (** runaway-loop guard *)
  tracer : Trace.t option;       (** shard-private execution trace *)
  races : Racecheck.t option;    (** shard-private write-overlap collector *)
  atomics : Atomics.t;           (** shard-private deferred atomics view *)
}
(** Launch-wide state plus one shard's sinks. *)

val make : launch_env -> Kernel.make_warp
(** One resumable warp, with [Uu_gpusim.Warp.make]'s contract: [dcache]
    keys are [(buffer lsl 32) lor segment], the noise draw happens at
    creation, and [step] raises [Failure] on interpreter errors or when
    [max_warp_cycles] is exceeded. *)
