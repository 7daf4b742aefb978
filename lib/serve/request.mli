(** The one request type every compile-and-simulate entry point consumes.

    [uu run], [uu compile], [uu request], and the serve daemon all build
    a {!t} and hand it to [Uu_harness.Runner.run_request]; the daemon
    additionally ships it over the wire (see {!Protocol}). A request
    fully describes one unit of work: a MiniCUDA source (bundled app by
    name, or inline text), a pipeline configuration, an optional target
    loop, the synthetic launch shape, and the simulation knobs.

    Identity: {!spec} is the human-readable one-line description of
    everything the response depends on — the pipeline version, the
    simulator-semantics version, mode, source (inline text by content
    hash), config, loop, shape, race checking, tracing, and noise seed.
    {!key}
    is its content hash, under which the daemon caches serialized
    responses in [Uu_harness.Result_cache] (raw-entry namespace).
    [sim_jobs] is deliberately absent from the spec: it is
    metric-identical by the simulator's determinism contract, so it can
    never change a response byte. *)

open Uu_core

type source =
  | App of string  (** a bundled benchmark, by registry name *)
  | Inline of { name : string; text : string }
      (** MiniCUDA source shipped with the request *)

type mode =
  | Compile  (** optimize and return the IR *)
  | Run  (** optimize, then simulate every kernel with synthetic buffers *)

type t = {
  mode : mode;
  source : source;
  config : Pipelines.config;
  loop : int option;  (** restrict the transform to this loop id *)
  grid_dim : int;
  block_dim : int;
  elems : int;  (** elements in synthetic buffer arguments *)
  check_races : bool;
  trace : bool;
      (** record and return the SIMT schedule of every launch *)
  noise_seed : int64 option;
      (** enable the memory-jitter model with this seed *)
  sim_jobs : int option;  (** not part of the request identity *)
}

val make :
  ?mode:mode ->
  ?loop:int ->
  ?grid_dim:int ->
  ?block_dim:int ->
  ?elems:int ->
  ?check_races:bool ->
  ?trace:bool ->
  ?noise_seed:int64 ->
  ?sim_jobs:int ->
  source ->
  Pipelines.config ->
  t
(** Defaults mirror [uu run]: mode [Run], grid 4, block 128, elems 1024,
    no race check, no trace, no noise, server-chosen [sim_jobs]. *)

val spec : t -> string
(** One line, ["serve;"]-prefixed so its hashes can never collide with
    the job graph's ["v<version>;"] specs in the shared cache directory. *)

val key : t -> string
(** [Digest.to_hex (Digest.string (spec t))] — the response-cache key. *)

val compile_spec : t -> string

val compile_key : t -> string
(** Identity of the compiled module only (source, config, loop, pipeline
    version) — what two requests must share to reuse one compilation and
    its warm decode cache. Mode, shape, races, noise, and the simulator
    version are deliberately absent. *)

val noise_seed : key:string -> int -> int64
(** The canonical seed derivation for run [i] of a noisy protocol: the
    first 8 digest bytes of ["<key>#run<i>"] folded into an int64.
    [Uu_harness.Jobs.noise_seed] delegates here. *)

val to_json : t -> Uu_support.Json.t

val of_json : Uu_support.Json.t -> (t, string) result
(** Total inverse of {!to_json}: every malformed shape is an [Error],
    never an exception — the daemon feeds it untrusted bytes. Unknown
    members (such as the [engine] member older clients send) are
    ignored. *)
