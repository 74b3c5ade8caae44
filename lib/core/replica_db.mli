(** A node's view of where packet replicas live (§4.2).

    "For each encountered packet i, rapid maintains a list of nodes that
    carry the replica of i, and for each replica, an estimated time for
    direct delivery" — here represented by the holder's meeting count
    n_j(i) (its buffer position over its expected transfer size), which
    combined with the meeting matrix yields the direct-delivery estimate.

    Entries are timestamped so that a receiver merges only strictly
    fresher information (stale gossip never overwrites newer
    observations), and logged so that {!Gossip} can ship only what changed
    since the last exchange with a given peer ({!iter_ids_since}). *)

type holder = { n_meet : int; updated_at : float }

type entry = {
  packet : Rapid_sim.Packet.t;
  holder_id : int;
  holder : holder;
}

type t

val create : unit -> t

val set_holder :
  t -> packet:Rapid_sim.Packet.t -> holder_id:int -> n_meet:int -> now:float -> unit
(** First-hand knowledge: records/overwrites unconditionally. *)

val merge :
  t -> packet:Rapid_sim.Packet.t -> holder_id:int -> holder:holder -> bool
(** Gossip: applied only if strictly fresher than what is known; returns
    whether it was applied. *)

val remove_holder : t -> packet_id:int -> holder_id:int -> unit
(** Local knowledge of a drop; removals are not gossiped (the resulting
    staleness at other nodes is the imprecision §4.2 accepts). *)

val remove_packet : t -> packet_id:int -> unit
(** Forget the packet entirely (ack received: "metadata for delivered
    packets is deleted when an ack is received"). *)

val holders : t -> packet_id:int -> (int * holder) list
(** Sorted by holder id. *)

val find_holder : t -> packet_id:int -> holder_id:int -> holder option

val fold_holders :
  t -> packet_id:int -> init:'a -> f:('a -> int -> holder -> 'a) -> 'a
(** Fold over a packet's holders without sorting (hot path; iteration
    order is deterministic for a given update sequence). *)

val holder_count : t -> packet_id:int -> int
(** Number of believed holders; 0 when the packet is unknown. *)

val version : t -> packet_id:int -> int
(** Per-packet mutation version: strictly increases on every write that
    can change the packet's holder set — {!set_holder}, an applied
    {!merge}, {!remove_holder} of a present holder, {!remove_packet} of a
    known packet. A rejected (stale) merge or a removal of something not
    stored leaves it untouched. Versions survive {!remove_packet}, so a
    packet forgotten and later re-learned from gossip continues the same
    sequence — a cache stamped with an old version can never be revived
    by coincidence. Unknown packets read as 0; any stored state implies a
    version >= 1. *)

val iter_ids_since :
  t -> float -> (packet_id:int -> holder_id:int -> unit) -> unit
(** Visit the (packet id, holder id) pairs of the update-log suffix newer
    than the threshold (a binary search finds the boundary): duplicates
    and superseded entries included, nothing allocated or looked up.
    Callers dedup and then {!entry_since} each distinct pair, so the
    per-occurrence cost of a long suffix is two array reads. The retained
    history is bounded (several thousand updates): a peer that has not
    exchanged for a very long time receives a truncated, bounded-staleness
    delta. *)

val entry_since : t -> float -> packet_id:int -> holder_id:int -> entry option
(** One (packet, holder) pair as the db holds it now: [None] if forgotten
    or not updated after the threshold ([neg_infinity] reads any stored
    pair). *)

val size : t -> int
(** Total holder entries stored. *)
