(** A node's buffer positions in delivery order (Algorithm 2 step 1).

    RAPID prices a replica by n_j(i) = ⌈b_j(i)/B_j⌉, where b_j(i) is the
    bytes of same-destination packets queued ahead of packet i at holder j
    (oldest creation first, ties on id). The index holds the buffer's
    packets sorted by (destination, created, id) with each slot's bytes
    ahead, so any packet's position — buffered or not — is a binary
    search. Whenever the buffer's {!Rapid_sim.Buffer.epoch} has moved
    since the last sync, the previous order's survivors are merged with
    the packets that arrived since, sorted alone: under a total order
    that is the full sort, so the index stays a pure function of the
    buffer's contents. *)

type scratch
(** Sync scratch shared by all of one owner's indexes (syncs must not
    run concurrently): an id-indexed stamp array, one word per packet id
    whatever the number of indexes. *)

val scratch : unit -> scratch

type t

val create : scratch -> t
(** An empty index that has never been synced: the first {!sync}
    always rebuilds. *)

val sync : t -> Rapid_sim.Buffer.t -> bool
(** Merge in the buffer's changes if its epoch moved since the last sync
    (always against the same buffer); returns whether it did. *)

val bytes_before : t -> Rapid_sim.Packet.t -> int
(** Bytes of same-destination packets strictly ahead of the packet in
    delivery order, as of the last {!sync}. The packet's own copy never
    counts, so this is the position it holds or would take. *)

val iter : t -> (Rapid_sim.Packet.t -> ahead:int -> unit) -> unit
(** Every indexed packet with its {!bytes_before}, in (destination,
    created, id) order. *)
