(** Per-contact send-queue planning, shared by every protocol.

    Scanning and re-ranking a node's whole buffer for every transferred
    packet is quadratic in buffer size; real implementations (and RAPID's
    Protocol step 3c, "replicate packets in decreasing order of δU_i/s_i")
    rank once per transfer opportunity and then stream packets in order.
    A protocol builds each direction's ordered send list once per contact
    — segments sorted through a shared {!Rapid_prelude.Sortbuf} arena —
    and the engine's [next_packet] calls are served from a cursor.

    The cursor watches the sender buffer's removal counter
    ({!Buffer.removals}): while it stands still, every planned packet is
    still buffered and pops cost no lookups; when it moves (a delivery
    retiring the sender's copy, an ack purge, an eviction) the tail is
    re-validated — dropping packets no longer buffered or now present at
    the receiver — before serving resumes. A popped packet is never
    offered again in the same contact (covers storage refusals), and a
    packet exceeding the remaining byte budget is discarded for good
    (budgets only shrink within a contact).

    Counters [send_queue.plans] / [send_queue.replans] land in
    BENCH.json. *)

type t

val create : unit -> t

val begin_contact : t -> unit
(** Forget the plans from the previous contact. *)

val begin_plan :
  ?check_peer:bool -> t -> Env.t -> sender:int -> receiver:int -> unit
(** Start planning one direction. [check_peer] (default true) drops
    packets the receiver already holds when the plan is re-validated;
    protocols without summary vectors (the Random baseline) pass [false]
    and let the engine charge the wasted duplicate transfer. *)

val push : t -> Packet.t -> unit
(** Append the next packet of the direction being planned. *)

val push_entries :
  t -> cmp:(Buffer.entry -> Buffer.entry -> int) -> Buffer.entry list -> unit
(** Sort a segment with the shared scratch arena and append it. [cmp]
    must be a total order (the arena's heapsort is not stable; break ties
    on packet id). *)

val finish_plan : t -> unit
(** Seal the direction started by {!begin_plan}. *)

val next :
  t -> Env.t -> sender:int -> receiver:int -> budget:int -> Packet.t option
(** Pop the best still-legal packet; [None] when the direction is done
    or was never planned. *)

val candidates : Env.t -> sender:int -> receiver:int -> Buffer.entry list
(** Entries buffered at [sender] and absent at [receiver] — the raw input
    protocols rank (no budget filtering; {!next} re-validates). The list
    is in no particular order (a slot-order walk): rank it with a total
    order before pushing. *)
