(** Simulated global memory: typed element buffers addressed by
    (buffer id, element offset) pointers. The host side creates buffers,
    passes them as kernel arguments, and reads results back. *)

open Uu_ir

type buffer

type t
(** A device memory space. *)

val create : unit -> t

val alloc_f64 : t -> float array -> buffer
(** Copy a host array into a fresh f64 buffer. *)

val alloc_i64 : t -> int64 array -> buffer
(** Integers are stored unboxed as native [int]s.
    @raise Failure if a value does not fit in 63 bits. *)

val zeros_f64 : t -> int -> buffer
val zeros_i64 : t -> int -> buffer

val buffer_id : buffer -> int
val buffer_len : buffer -> int
val buffer_elt : buffer -> Types.t

val read_f64 : buffer -> float array
(** Copy a buffer back to the host. @raise Invalid_argument on non-f64. *)

val read_i64 : buffer -> int64 array

val bytes_moved : t -> int
(** Total bytes copied between host and device (both directions) —
    the memory-transfer side of Table I's compute fraction. *)

(** {1 Boxed device-side access}

    These exist for the test-only reference interpreter ([Uu_sim_oracle]):
    they read the private buffer representation, so the reference fails
    with exactly the simulator's messages. The simulator itself uses the
    unboxed accessors below. *)

val load : t -> buffer_id:int -> offset:int -> Eval.rvalue
(** @raise Failure on out-of-bounds or unknown buffer. *)

val store : t -> buffer_id:int -> offset:int -> Eval.rvalue -> unit

val atomic_add : t -> buffer_id:int -> offset:int -> Eval.rvalue -> Eval.rvalue
(** Adds and returns the previous value. *)

val elt_size : t -> buffer_id:int -> int
(** Element size in bytes, for coalescing computations. *)

(** {1 Unboxed access (used by the simulator)}

    Allocation-free counterparts of {!load}/{!store}. Integer values are
    native [int]s — the simulator's integer domain is 63-bit (storing a
    value outside it raises, see {!alloc_i64}).
    @raise Failure on out-of-bounds, unknown buffer, or element-type
    mismatch. *)

val loadi : t -> buffer_id:int -> offset:int -> int
val loadp : t -> buffer_id:int -> offset:int -> int * int
(** A pointer element as [(buffer, offset)]. *)

val fdata : t -> buffer_id:int -> float array
(** The live float payload of an f64 buffer (no copy) — float loads and
    stores read and write it directly so no box is allocated per lane.
    Callers bounds-check offsets against its length themselves.
    @raise Failure on unknown buffer or non-float buffer. *)

val storei : t -> buffer_id:int -> offset:int -> int -> unit
val storep : t -> buffer_id:int -> offset:int -> pbuffer:int -> poffset:int -> unit

val atomic_addi : t -> buffer_id:int -> offset:int -> int -> int
val atomic_addf : t -> buffer_id:int -> offset:int -> float -> float
(** Add and return the previous value. *)

val atomic_readi : t -> buffer_id:int -> offset:int -> int
val atomic_readf : t -> buffer_id:int -> offset:int -> float
(** Read an atomic target without mutating it, with the exact bounds and
    type checks of {!atomic_addi}/{!atomic_addf} — the deferred-commit
    collector ({!Atomics}) snapshots a cell's pristine value with these
    and commits accumulated deltas only after the shard join. *)

val fit : int64 -> int
(** Narrow to the simulator's 63-bit storage.
    @raise Failure when the value does not fit. *)

val dump : t -> (int * Eval.rvalue array) list
(** Snapshot of every buffer (id, copied contents) in allocation order —
    used by the engine-equivalence tests to compare whole memory spaces. *)

(** {1 Block-scoped shared memory}

    Shared arrays live in a separate bank addressed by negative buffer
    ids: bank slot [k] is buffer [-2 - k] (id [-1] remains the
    null/undef pointer). The first slots are the kernel's [__shared__]
    declarations; slots appended after them are per-block [Alloca]
    arenas ({!bank_alloca}). A bank is created once per simulation
    shard, and at every block entry the declaration slots are zeroed and
    the arenas dropped, so results are independent of how blocks are
    sharded across domains. Shared transfers never count toward
    {!bytes_moved}. *)

type shared_bank

val is_shared : int -> bool
(** [is_shared id] is true iff [id] addresses the shared bank
    (i.e. [id < -1]). *)

val shared_create : (Types.t * int) list -> shared_bank
(** One array per kernel [shared] declaration, in declaration order:
    slot [k] gets buffer id [-2 - k].
    @raise Invalid_argument on a non-positive size or an element type
    other than f64/i64. *)

val shared_reset : shared_bank -> unit
(** Zero-fill every declaration array and drop the [Alloca] arenas — run
    at each block entry so blocks observe a freshly initialized bank
    regardless of execution order. *)

val bank_alloca : shared_bank -> Types.t -> int -> int
(** Append a zero-initialized per-block arena of [size] elements after
    the declaration slots and return its (negative) buffer id. Arena ids
    count up from [-2 - decls] in allocation order, and {!shared_reset}
    reclaims them — so within a block, an arena's id is a pure function
    of the block's own deterministic execution order. Backs [Alloca]
    (each warp-level [Alloca] allocates one arena with a private cell
    per lane). *)

val shared_load : shared_bank -> buffer_id:int -> offset:int -> Eval.rvalue
(** Boxed, for the reference interpreter like {!load}.
    @raise Failure on out-of-bounds or unknown shared buffer. *)

val shared_store : shared_bank -> buffer_id:int -> offset:int -> Eval.rvalue -> unit

val shared_atomic_add :
  shared_bank -> buffer_id:int -> offset:int -> Eval.rvalue -> Eval.rvalue
(** Adds and returns the previous value. *)

val shared_elt_size : shared_bank -> buffer_id:int -> int
(** Element size in bytes, for bank-conflict accounting. *)

val shared_fdata : shared_bank -> buffer_id:int -> float array
(** Live float payload of a shared f64 array (no copy); callers
    bounds-check offsets against its length themselves. *)

val shared_loadi : shared_bank -> buffer_id:int -> offset:int -> int
val shared_storei : shared_bank -> buffer_id:int -> offset:int -> int -> unit

val shared_loadp : shared_bank -> buffer_id:int -> offset:int -> int * int
val shared_storep :
  shared_bank -> buffer_id:int -> offset:int -> pbuffer:int -> poffset:int -> unit
(** Pointer elements of an [Alloca] arena as [(buffer, offset)] pairs —
    declaration slots are f64/i64 only, so these raise the usual
    type-confusion failure on them. *)

val shared_atomic_addi : shared_bank -> buffer_id:int -> offset:int -> int -> int
val shared_atomic_addf : shared_bank -> buffer_id:int -> offset:int -> float -> float
(** Add and return the previous value. *)
