(** Incremental cache for the Eq. 9 believed delivery rate.

    RAPID's utility scoring re-folds over every believed holder of every
    candidate packet on every contact. The fold's value depends only on
    (a) the packet's holder set in the observer's {!Replica_db} and
    (b) the meeting-matrix h-hop row of the packet's destination — both
    of which carry cheap monotone versions. This cache stamps each
    computed rate with that version pair and serves it back until either
    input moves.

    Contract (who bumps, who reads — DESIGN §3a): {!Replica_db.version}
    bumps on every holder-set write; {!Meeting_matrix.row_version} bumps
    when a lazy row rebuild actually changes a cell. {!find} compares
    both stamps; any mismatch is a miss and the caller re-folds and
    {!store}s. A reboot replaces a node's replica DB (restarting its
    version sequence), so the owner must {!drop_observer} that node.

    Rates cross this interface in slot 0 of a caller-owned float array,
    never as a float argument or result: the dev build compiles every
    library module [-opaque], and a float passed to or returned from
    another module's function is then boxed on each call. *)

type t

val create : num_nodes:int -> t

val find :
  t ->
  observer:int ->
  packet_id:int ->
  pkt_ver:int ->
  row_ver:int ->
  rate:float array ->
  bool
(** When both stamps match, writes the cached rate into [rate.(0)] and
    returns [true]; otherwise returns [false] and leaves [rate] alone.
    Counts a hit or a miss when counters are registered. *)

val store :
  t ->
  observer:int ->
  packet_id:int ->
  pkt_ver:int ->
  row_ver:int ->
  rate:float array ->
  unit
(** Caches [rate.(0)] under the two stamps. *)

val drop_observer : t -> int -> unit
(** Invalidate every entry cached for this observer (reboot path). *)

val register_counters : unit -> unit
(** Create the [rapid.rate_cache_hits]/[rapid.rate_cache_misses] obs
    counters. Registration is lazy and opt-in: harnesses that snapshot
    counters into pinned, byte-compared artifacts (the CLI) never call
    this, so clean goldens stand; the bench calls it at startup so
    BENCH.json always carries both keys. *)
