(** Per-contact send-queue planning, shared by every protocol.

    Scanning and re-ranking a node's whole buffer for every transferred
    packet is quadratic in buffer size; real implementations (and RAPID's
    Protocol step 3c, "replicate packets in decreasing order of δU_i/s_i")
    rank once per transfer opportunity and then stream packets in order.
    A protocol plans each direction once per contact as segments served
    in push order: plain {!push}es as pushed, and each ranked segment
    heapified in O(n) into an arena the direction reuses, then popped on
    demand, so only the prefix a contact ships is ever ordered.

    Every pop checks the packet it is about to serve: it must fit the
    remaining byte budget, still be buffered at the sender, and (under
    [check_peer]) not be held by the receiver. So a plan needs no
    tracking of what left the sender's buffer since it was built (a
    delivery retiring the sender's copy, an ack purge, an eviction). A
    popped or skipped packet is never offered again in the same contact
    (covers storage refusals), and a packet exceeding the remaining
    budget is discarded for good (budgets only shrink within a contact),
    so a budget below every packet planned in a direction ends it at once.

    A comparator runs lazily until the contact ends, so it may read only
    state that stays fixed until then (a per-contact cost row, keys a
    protocol stored per direction); values the contact's transfers change
    must be decorated into {!push_items}' items, of type ['a]. The counter
    [send_queue.plans] lands in BENCH.json. *)

type 'a t

val create : unit -> 'a t

val begin_contact : 'a t -> unit
(** Forget the plans from the previous contact. *)

val begin_plan :
  ?check_peer:bool -> 'a t -> Env.t -> sender:int -> receiver:int -> unit
(** Start planning one direction. [check_peer] (default true) skips, at
    pop time, packets the receiver already holds; protocols without
    summary vectors (the Random baseline) pass [false] and let the engine
    charge the wasted duplicate transfer. *)

val push : 'a t -> Packet.t -> unit
(** Append the next packet of the direction being planned. *)

val by_age : Buffer.entry -> Buffer.entry -> int
(** Oldest first ([created]), ties by packet id: the total order every
    protocol uses for direct deliveries and FIFO segments. *)

val push_entries :
  'a t -> cmp:(Buffer.entry -> Buffer.entry -> int) -> Buffer.entry list -> unit
(** Append a segment served in ascending [cmp] order. [cmp] must be a
    total order (the heap is not stable; break ties on packet id). *)

val push_items :
  'a t ->
  cmp:('a -> 'a -> int) ->
  packet:('a -> Packet.t) ->
  (('a -> unit) -> unit) ->
  unit
(** [push_items t ~cmp ~packet iter] appends a segment of the items
    [iter] passes to its callback, already decorated with their ranking
    key, served as their [packet] in ascending [cmp] order, a total one. *)

val finish_plan : 'a t -> unit
(** Seal the direction started by {!begin_plan}. *)

val next :
  'a t -> Env.t -> sender:int -> receiver:int -> budget:int -> Packet.t option
(** Pop the next planned packet that fits [budget], is still buffered at
    [sender] and (under [check_peer]) is absent at [receiver], discarding
    the ones passed over; [None] when the direction is done or was never
    planned. *)

val candidates : Env.t -> sender:int -> receiver:int -> Buffer.entry list
(** Entries buffered at [sender] and absent at [receiver] — the raw input
    protocols rank (no budget filtering; {!next} checks each pop). The list
    is in no particular order (a slot-order walk): rank it with a total
    order before pushing. *)
