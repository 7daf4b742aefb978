(** On-disk cache of experiment measurements.

    Layout: one file per job under [<dir>/<ab>/<key>.json] (canonically
    [results/cache/]), where [key] is the job's content hash (see
    [Uu_harness.Jobs.key]) and [ab] its first two hex digits — a 256-way
    directory fan-out, so the store stays a small-directory workload at
    millions of entries. Each file holds the job's serialized
    [Runner.measurement] list — every field, including metrics, remarks,
    and statistic deltas — so a warm re-run reproduces the cold run's
    results byte for byte without compiling or simulating anything.

    Entries never expire: the key already encodes everything a
    measurement depends on (app, config, target, protocol,
    [Uu_core.Pipelines.version], and the simulator-semantics version
    [Uu_gpusim.Kernel.semantics_version]), so a stale entry is simply an
    entry nobody looks up anymore. The two versions cover the two ways a
    measurement can go stale: the compiler producing different code, and
    the simulator charging the same code differently.

    Lookups and stores are performed by the job scheduler on the
    coordinating domain only, never inside pool workers, so the mutable
    hit/miss counters need no synchronization. Stores write to a
    process-unique temporary file in the shard directory and rename, so
    a crash mid-write never leaves a truncated entry behind and several
    daemons can share one cache directory (identical keys always carry
    identical bytes, so a lost rename race still installs the right
    content). *)

type t

val create : dir:string -> t
(** Cache rooted at [dir]; the directory is created on first store. *)

val dir : t -> string

val lookup : t -> key:string -> Runner.measurement list option
(** [Some measurements] on a hit; [None] (counted as a miss) when the
    entry is absent or unreadable. A corrupt entry is deleted so the
    next store can replace it. *)

val store : t -> key:string -> spec:string -> Runner.measurement list -> unit
(** Persist a job's measurements. [spec] is the human-readable job
    description the key was hashed from; it is stored alongside the data
    for debuggability and has no effect on lookups. *)

val hits : t -> int
val misses : t -> int
(** Counters since [create], maintained across {!lookup} and
    {!lookup_raw} calls. *)

(** {1 Raw entries}

    The serve daemon stores whole response documents (already-serialized
    JSON) under its own content-hash keys, through the same directory,
    counters, and atomic write-to-temp-then-rename discipline. The two
    key namespaces cannot collide: serve keys hash a ["serve;"]-prefixed
    spec, job keys a ["v<version>;"]-prefixed one. *)

val lookup_raw : t -> key:string -> string option
(** The entry's verbatim contents on a hit; [None] (counted as a miss)
    when absent or unreadable. No validation — the caller owns the
    format. *)

val store_raw : t -> key:string -> string -> unit

(** {1 Serialization}

    Exposed for tests, which assert that a cache round-trip is
    byte-identical. *)

val encode : spec:string -> Runner.measurement list -> string
val decode : string -> (Runner.measurement list, string) result
