(** A fixed-size domain pool for embarrassingly parallel work.

    The experiment harness fans hundreds of independent compile+simulate
    jobs over the cores of the machine (OCaml 5 domains). The pool model
    is deliberately simple: one shared atomic cursor over an array of
    work items, [jobs - 1] spawned worker domains plus the calling
    domain, each pulling the next unclaimed index until the array is
    drained. Results land in a slot per item, so the output order is the
    input order regardless of which domain ran what — determinism by
    construction, not by scheduling.

    Workers inherit nothing dynamically scoped from the caller: the
    remark sink and the statistic registry are domain-local (see
    [Remark] and [Statistic]), so work items observe only their own
    emissions. *)

val available_domains : unit -> int
(** The runtime's recommended domain count for this machine (at least 1). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f items] applies [f] to every item on a pool of [jobs]
    domains (default {!available_domains}; clamped to the item count;
    [jobs <= 1] runs inline without spawning). Results are returned in
    input order. If any application raised, the first exception in input
    order is re-raised after all items finish. *)

val map_result : ?jobs:int -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** Like {!map} but captures each item's exception instead of re-raising,
    preserving input order — the building block for fault-isolated job
    execution. *)

val map_range :
  ?jobs:int -> ?chunk:int -> n:int -> (lo:int -> hi:int -> 'a) -> 'a list
(** [map_range ~jobs ~chunk ~n f] partitions the dense range [0, n) into
    contiguous chunks of [chunk] indices ([f ~lo ~hi] covers
    [lo, hi)) and runs the chunks on the pool with {e one} atomic claim
    per chunk — the right shape for sharding a 10k-block grid, where
    claiming per index would contend on the cursor. Chunk results are
    returned in ascending range order regardless of which domain ran
    what. [chunk] defaults to [max 1 (n / (jobs * 8))]; the first
    exception in range order is re-raised after all chunks finish.
    @raise Invalid_argument if [n < 0] or [chunk <= 0]. *)

(** {1 The persistent pool}

    The one-shot {!map} family spins a pool up and down per call — the
    right shape for a batch of known size. A long-lived daemon instead
    keeps one {!Pool.t} for its whole life and {!Pool.submit}s work as
    requests arrive; each task reports its own result. *)

module Pool : sig
  type t

  val create : ?domains:int -> unit -> t
  (** Spawn [domains] worker domains (default {!available_domains})
      that sleep on a shared queue until {!shutdown}. *)

  val size : t -> int

  val submit : t -> (unit -> unit) -> unit
  (** Enqueue a task; any worker picks it up in FIFO order. An exception
      the task raises is discarded and the worker keeps serving, so a
      task that must report failure catches it itself.
      @raise Invalid_argument after {!shutdown}. *)

  val shutdown : t -> unit
  (** Close the queue and join every worker. Already-queued tasks are
      abandoned unexecuted, so drain or stop submitting first. *)
end
