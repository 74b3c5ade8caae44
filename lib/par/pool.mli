(** Fixed-size [Domain] worker pool for embarrassingly parallel
    experiment cells (day/seed/protocol/load points).

    The contract every user relies on: {!map} (and {!map_pool}) is
    observationally identical to [List.map] — results come back in input
    order, the lowest-index exception is the one re-raised, and worker
    domains fold their {!Rapid_obs} counter/timer cells into the shared
    totals before completion is signalled, so parallelism changes wall
    time and nothing else. Simulation cells must derive their randomness
    from explicit seeds (they do: every runner seeds per day/run), and
    must not share mutable state across cells (the engine and protocols
    allocate per run; the obs registries are the one shared structure and
    are domain-safe).

    A [map] issued from inside a worker runs sequentially inline: the
    domain count stays bounded by the configured job count, nested
    fan-outs cannot deadlock the queue, and results are unchanged. *)

type t
(** A pool with a fixed set of worker domains and a bounded task queue
    (submitters block while the queue is full). *)

val max_jobs : int
(** 127, the widest pool a process can hold: OCaml 5.1 caps a 64-bit
    process at 128 domains, the main one included. The CLIs reject a
    wider [--jobs] before any domain starts. *)

val create : jobs:int -> t
(** Spawn [jobs] worker domains ([jobs <= 1] spawns none: every map on
    such a pool is sequential). *)

val jobs : t -> int

val map_pool : t -> ('a -> 'b) -> 'a list -> 'b list
(** Deterministic parallel map over the pool (see the module contract). *)

val shutdown : t -> unit
(** Stop and join the workers; subsequent maps run sequentially. *)

val inside_worker : unit -> bool
(** True when called from a pool worker domain. *)

(** {1 The process-global pool}

    Configured once by the CLI ([--jobs N], default sequential) and
    shared by every runner; created lazily on first parallel {!map},
    joined on reconfiguration and at process exit. *)

val set_jobs : int -> unit
(** Set the global parallelism width; [n <= 1] means sequential. Shuts
    down any previously created global pool. *)

val configured : unit -> int
(** The configured width (not necessarily instantiated yet). *)

val map : ('a -> 'b) -> 'a list -> 'b list
(** [List.map] through the global pool; sequential when the configured
    width is 1 or when already inside a worker. *)

val init : int -> (int -> 'a) -> 'a list
(** [List.init] through the global pool (same guarantees as {!map}). *)
