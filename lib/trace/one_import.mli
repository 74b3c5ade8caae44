(** Importer for connectivity reports in the ONE simulator's format, the
    de-facto interchange format for DTN contact traces (also produced by
    several CRAWDAD data-set converters):

    {v
    <time> CONN <host1> <host2> up
    <time> CONN <host1> <host2> down
    v}

    Our model uses discrete transfer opportunities (t_e, s_e), so each
    up/down interval becomes one contact at the [up] time whose size is
    the interval length times [bandwidth_bytes_per_sec] (ONE's default
    Bluetooth speed, 250 kB/s, if unspecified). Intervals still open at
    the end of the report are closed at the last observed event time.
    Host names are arbitrary tokens; they are assigned dense node ids in
    first-appearance order. *)

val of_string :
  ?bandwidth_bytes_per_sec:int -> string -> Trace.t * (string * int) list
(** Returns the trace and the host-name → node-id mapping. Raises
    [Failure] with a line-numbered message on malformed input, which
    includes a non-finite timestamp and an interval whose byte size does
    not fit an [int] (blamed on its [down] line, or on its [up] line when
    it is still open at the end). *)

val load :
  ?bandwidth_bytes_per_sec:int -> string -> Trace.t * (string * int) list
