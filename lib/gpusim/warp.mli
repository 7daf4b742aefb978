(** The SIMT warp executor.

    A warp executes a pre-decoded kernel ({!Decode}) in lockstep over up
    to 32 lanes using a stack of (block, active-mask, reconvergence-point)
    entries. A divergent branch pushes a reconvergence entry at the
    branch block's immediate post-dominator plus one entry per taken
    path; path groups run serialized until they reach their
    reconvergence point — the standard stack-based reconvergence model,
    which is what makes the unmerged longer paths of u&u cost
    warp-execution efficiency exactly as the paper reports (§V).
    Per-lane registers (unboxed, one file per value class), per-lane
    predecessor tracking for phi resolution, per-transaction memory
    coalescing, and icache fetch accounting are all handled here.

    Warps are {e resumable}: {!make} returns a {!Scheduler.warp} whose
    [step] runs the warp until it arrives at a [__syncthreads()] barrier
    or exits, keeping the live register, mask, and program-counter state
    alive across suspensions so the {!Scheduler} can interleave the warps
    of a block at barriers. A barrier executed with a partial lane mask
    (divergence or early returns within the warp) raises the
    divergent-[__syncthreads()] error directly from the executor.

    The test suite checks this executor cycle for cycle against a
    tree-walking reference interpreter over the IR (the test-only
    [Uu_sim_oracle] library). *)

open Uu_ir
open Uu_support

type env = {
  device : Device.t;
  prog : Decode.t;
  mem : Memory.t;
  args : (Value.var * Eval.rvalue) list;  (** parameter bindings *)
  block_dim : int;
  grid_dim : int;
  max_warp_cycles : int;  (** runaway-loop guard *)
  tracer : Trace.t option;  (** shard-private execution trace *)
  races : Racecheck.t option;  (** shard-private write-overlap collector *)
  atomics : Atomics.t;  (** shard-private deferred atomics view *)
}
(** Launch-wide state plus shard-private sinks: the plain fields are
    immutable during the grid walk (or, for [mem], written at
    block-disjoint cells), and {!Kernel} gives every shard its own env
    with fresh [tracer]/[races]/[atomics], so no field is ever mutated by
    two domains. The mutable per-block state — data cache, icache
    residency, noise stream — is passed to {!make} per block, matching
    the per-SM L1 of real devices. *)

type state
(** Per-warp scratch (flat register files, reconvergence stack,
    coalescing staging), re-initialised by {!make} — allocate one per
    warp slot of a block (they stay live across barrier suspensions
    while sibling warps run) and reuse each across the whole block range
    of a shard. *)

val state : env -> state

val make :
  env ->
  state ->
  smem:Memory.shared_bank ->
  dcache:int Cache.t ->
  icache:Layout.icache ->
  noise:Rng.t option ->
  block_id:int ->
  warp_id:int ->
  lanes:int ->
  Scheduler.warp
(** Create one resumable warp ([lanes] ≤ warp size active threads, lane 0
    is thread [warp_id * warp_size] of the block). [smem] is the block's
    shared-memory bank (zero-reset by the launcher at block entry),
    [dcache] the block's L1 model over [(buffer lsl 32) lor segment]
    keys, [icache] its instruction-cache residency, [noise] its private
    jitter stream (one gaussian draw per warp, taken here at creation —
    create a block's warps in ascending warp order) — all owned by the
    block so warp metrics are a function of (launch, block) alone.
    Suspension at a barrier stores only an instruction index — the flat
    register files in the state stay alive across suspensions, so
    nothing on the hot path boxes. The returned warp's [step] raises
    [Failure] on execution errors (out-of-bounds access, type confusion,
    a barrier under a partial lane mask) or when [max_warp_cycles] is
    exceeded. *)
