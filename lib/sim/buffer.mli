(** A node's in-transit packet store with an optional byte capacity.

    The engine owns one buffer per node and is the only component allowed
    to add packets (so that feasibility — storage never exceeded — is
    enforced in one place); protocols may remove packets (ack-driven
    cleanup, §4.2) and inspect contents.

    Internally the store is a dense entry array indexed by an id→slot
    table: add/remove are O(1). The default walk is {!fold_unordered}, in
    slot order: deterministic for a given mutation history, but not id
    order, so a caller whose result depends on the walk order must sort
    by a total order afterwards or break ties on packet id. Id order is
    available on demand: {!entries} sorts the whole buffer per call and
    {!nth_by_id} selects one rank without sorting. *)

type entry = {
  packet : Packet.t;
  received : float;  (** When this copy arrived at this node. *)
  hops : int;  (** Replication depth: 0 at the source. *)
}

type t

val create : capacity:int option -> t
(** [capacity] in bytes; [None] means unlimited. *)

val capacity : t -> int option
val used : t -> int
(** Bytes currently stored. *)

val count : t -> int

val epoch : t -> int
(** Bumped on every mutation (add, remove, clear); versions caches built
    from the buffer's contents, e.g. RAPID's per-node position indexes. *)

val mem : t -> int -> bool
val find : t -> int -> entry option

val would_fit : t -> int -> bool
(** Whether [size] additional bytes fit right now. *)

val dst_bytes : t -> int -> int
(** Total bytes currently stored for this destination, maintained
    incrementally (O(1)): equals folding the sizes of entries whose packet
    destination matches. Protocol queue-position math against the newest
    packet of a destination reads this instead of scanning the buffer. *)

val add : t -> entry -> unit
(** Raises [Invalid_argument] if the entry does not fit or is a duplicate.
    Callers must check [would_fit] / [mem] first. *)

val remove : t -> int -> entry option
(** Remove by packet id; [None] if absent. *)

val clear : t -> Packet.t list
(** Empty the buffer in one sweep (no per-entry table churn), returning
    the packets that were stored, in slot order. The engine's reboot path
    is the only caller; consumers of the list must not depend on its
    order. *)

val fold_unordered : t -> init:'a -> f:('a -> entry -> 'a) -> 'a
(** Fold in slot order: the default walk. Deterministic for a given
    mutation history, but not packet-id order. *)

val entries : t -> entry list
(** A fresh list sorted by packet id, sorted on demand on every call
    (counted by [buffer.rebuilds]). Only for callers that need id order,
    e.g. a shuffle whose result depends on its input order. *)

val nth_by_id : t -> int -> entry
(** [nth_by_id t k] is the entry with the [k]-th smallest packet id
    (0-based), i.e. [List.nth (entries t) k], found by quickselect over a
    scratch array the buffer owns: no sort, no list. Raises
    [Invalid_argument] unless [0 <= k < count t]. *)
