(** The block-level barrier scheduler.

    Owns the warps-within-a-block execution loop (for {!Warp} and for
    the test oracle's reference warps): warps
    are resumable computations that run until they arrive at a
    [__syncthreads()] barrier or exit, and the scheduler drives them in
    warp-order rounds, verifies barrier convergence, advances the
    block-global race-check epoch once per released barrier, and settles
    the clock (slower warps set the release time; faster warps are
    charged the difference as {!Metrics.t.barrier_wait_cycles}).

    This is what makes multi-warp blocks faithful to CUDA block
    semantics: shared-memory dataflow crosses a barrier in {e both}
    directions (warp 0 reads what warp 3 wrote before the barrier),
    where the pre-scheduler engines ran warps sequentially to
    completion. *)

type status =
  | Arrived  (** suspended at a [__syncthreads()] barrier *)
  | Exited  (** ran to completion; metrics are final *)

type warp = {
  step : epoch:int -> status;
      (** resume the warp until its next suspension. [epoch] is the
          current barrier interval (number of barriers released so far in
          this block), threaded to shared-memory race recording. *)
  metrics : Metrics.t;
      (** the warp's live counters — read (and, at barrier release,
          adjusted) by the scheduler between steps *)
}

val run_block : fn_name:string -> block_id:int -> warp array -> Metrics.t
(** Run one block's warps to completion under barrier scheduling and
    return the summed metrics (warp order). Within each barrier interval
    warps run in ascending warp order, each until it arrives at the
    barrier or exits.

    @raise Failure on a divergent [__syncthreads()]: a barrier some
    warps of the block arrive at while at least one other warp has
    exited without executing it (a deadlock on real pre-Volta hardware,
    invalid CUDA everywhere). The intra-warp form — a barrier executed
    with a partial lane mask — is trapped by the warp executors
    themselves. *)
