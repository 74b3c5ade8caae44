(** A link-time stub of the former believed-rate cache.

    RAPID re-sums Eq. 9 on every read, so nothing registers or counts
    [rapid.rate_cache_hits] / [rapid.rate_cache_misses] any more. *)

val register_counters : unit -> unit
(** Does nothing. [perfbench]'s traced runs call it and read both
    counters with a default of 0. *)
