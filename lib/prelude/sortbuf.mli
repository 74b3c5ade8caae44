(** Reusable push-then-sort arena.

    The per-contact hot paths collect a batch of items, sort it, and
    consume it in order (RAPID's refresh stamps, a position index's
    arrivals), order only the prefix they consume with {!select} (the
    metadata delta, whose tail is deferred unordered), or heapify it and
    {!pop} on demand (send-queue segments).
    [List.sort] / [Array.of_list] allocate a fresh intermediate per
    batch; a [Sortbuf.t] owned by the caller amortizes that to zero once
    the high-water mark is reached: [clear], [push] each item, [sort],
    then [iteri].

    [clear] only resets the length — slots keep their last elements alive
    until overwritten, so don't park a long-lived buffer holding large
    values. Sorting is in-place heapsort, hence NOT stable: pass a total
    order (break ties on a unique key) whenever deterministic output
    matters. *)

type 'a t

val create : unit -> 'a t
val clear : 'a t -> unit
val length : 'a t -> int
val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** Raises [Invalid_argument] beyond [length]. *)

val sort : 'a t -> cmp:('a -> 'a -> int) -> unit
(** Sort the live prefix ascending per [cmp], in place. *)

val select : 'a t -> cmp:('a -> 'a -> int) -> int -> unit
(** [select t ~cmp k] places the [k] smallest elements in ascending
    order in slots [0..k-1] — exactly the prefix a full {!sort} would
    produce when [cmp] is a total order — and leaves the remaining
    elements in slots [k..length-1] in an unspecified deterministic
    order. O(len·log k) instead of O(len·log len). *)

val heapify : 'a t -> cmp:('a -> 'a -> int) -> lo:int -> hi:int -> unit
(** Arrange slots [lo..hi-1] as a max-heap under [cmp] in O(hi - lo):
    slot [lo] holds the greatest. Pass a reversed order to pop the
    smallest first. *)

val pop : 'a t -> cmp:('a -> 'a -> int) -> lo:int -> hi:int -> 'a
(** Remove and return the root of the non-empty heap {!heapify} built in
    [lo..hi-1] under the same [cmp]; the rest stays a heap in [lo..hi-2].
    O(log (hi - lo)). *)

val iteri : 'a t -> (int -> 'a -> unit) -> unit
