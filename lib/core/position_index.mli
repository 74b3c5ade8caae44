(** A node's buffer positions in delivery order (Algorithm 2 step 1).

    RAPID prices a replica by n_j(i) = ⌈b_j(i)/B_j⌉, where b_j(i) is the
    bytes of same-destination packets queued ahead of packet i at holder j
    (oldest creation first, ties on id). The index holds the buffer's
    packets sorted by (destination, created, id) with each slot's bytes
    ahead, so any packet's position — buffered or not — is a binary
    search. It is rebuilt whole, into reused storage, whenever the
    buffer's {!Rapid_sim.Buffer.epoch} has moved since the last sync. *)

type t

val create : unit -> t
(** An empty index that has never been synced: the first {!sync}
    always rebuilds. *)

val sync : t -> Rapid_sim.Buffer.t -> bool
(** Rebuild from the buffer's contents if its epoch moved since the last
    sync; returns whether it rebuilt. *)

val bytes_before : t -> Rapid_sim.Packet.t -> int
(** Bytes of same-destination packets strictly ahead of the packet in
    delivery order, as of the last {!sync}. The packet's own copy never
    counts, so this is the position it holds or would take. *)

val iter : t -> (Rapid_sim.Packet.t -> ahead:int -> unit) -> unit
(** Every indexed packet with its {!bytes_before}, in (destination,
    created, id) order. *)
