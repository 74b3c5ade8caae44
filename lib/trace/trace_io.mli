(** Plain-text serialization of contact traces.

    Format (one record per line, '#' comments ignored):
    {v
    rapid-trace 1
    nodes <num_nodes>
    duration <seconds>
    active <id> <id> ...
    contact <time> <a> <b> <bytes>
    ...
    v}

    This lets users plug in real contact traces (e.g. converted DieselNet
    or Haggle data sets) without recompiling. *)

val to_string : Trace.t -> string
val of_string : string -> Trace.t
(** Raises [Failure] on malformed input, and nothing else: the message
    names the offending line (an unknown or unparsable record, a
    non-positive [nodes], a non-finite or non-positive [duration] or
    contact time, a node id out of range, a contact after [duration]) or
    the missing record. *)

val save : string -> Trace.t -> unit
val load : string -> Trace.t
