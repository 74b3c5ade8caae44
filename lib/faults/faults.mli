(** Deterministic, seeded fault injection for trace replays.

    The engine replays recorded contacts under perfectly reliable
    conditions; the deployment the traces come from was anything but:
    buses reboot (wiping the DTN daemon's in-memory state), radio
    contacts cut out mid-transfer, and the in-band control channel
    loses metadata. This module turns a {!config} into a {!plan} — a
    pre-drawn realization of every fault for one run — so the engine can
    consult it without consuming randomness during the replay. That is
    what keeps faulted runs byte-identical across [--jobs] settings: the
    plan depends only on [(config, run_seed, trace)], never on execution
    order.

    Four independent, composable fault models:

    - {b node reboots}: at seeded times a node loses its entire buffer
      and the protocol is told via [Protocol.S.on_reboot] so it can
      reset that node's soft state.
    - {b truncated contacts}: a contact's byte budget is cut to a
      seeded fraction of its recorded size, exercising partial-exchange
      paths.
    - {b lossy metadata}: with probability [meta_drop_prob] a contact's
      metadata exchange silently fails, so protocols must degrade to
      stale state.
    - {b contact no-shows}: with probability [contact_drop_prob] a
      recorded contact simply never happens. *)

type config = {
  seed : int;  (** Fault-stream seed, mixed with the run seed. *)
  reboots_per_node : float;
      (** Expected reboots per node over the trace horizon (Poisson
          arrivals); [0.] disables reboots. *)
  truncate_prob : float;  (** Per-contact probability of truncation. *)
  meta_drop_prob : float;
      (** Per-contact probability the metadata exchange is lost. *)
  contact_drop_prob : float;  (** Per-contact probability of a no-show. *)
}

val none : config
(** All rates zero: injects nothing. *)

val is_none : config -> bool
(** True when every rate is zero ([seed] is irrelevant then). *)

val parse : string -> (config, string) result
(** Parse a CLI spec like ["reboots=1,truncate=0.2,metaloss=0.1,noshow=0.05,seed=7"].
    Keys are optional and default to {!none}'s fields; the empty string
    is {!none}. Probabilities must lie in [0,1]; the reboot rate must be
    finite and non-negative. *)

val spec_string : config -> string
(** Canonical [parse]-able rendering of a config. *)

type plan
(** A fully drawn fault realization for one run over one trace. *)

val plan : config -> run_seed:int -> trace:Rapid_trace.Trace.t -> plan
(** Draw the plan. When [is_none config] this returns a null plan
    without touching any RNG or registering any counters, so a
    zero-rate run is observably identical to one with no fault layer at
    all. *)

val active : plan -> bool

val reboots : plan -> (float * int) array
(** [(time, node)] pairs, sorted by time (ties by node id). *)

val contact_skipped : plan -> int -> bool
(** Whether the [i]-th contact of the trace is a no-show. *)

val contact_capacity : plan -> int -> bytes:int -> int
(** Effective byte budget of the [i]-th contact given its recorded
    [bytes]; equals [bytes] unless the contact is truncated. *)

val contact_meta_ok : plan -> int -> bool
(** Whether the [i]-th contact's metadata exchange succeeds. *)

(** {2 Observability}

    The [faults.*] counters are registered on first use — building an
    active plan, recording a fault or calling {!register_counters} creates
    them, from any domain; a process that never injects faults reports
    exactly the counter set it did before this module existed. *)

val register_counters : unit -> unit
(** Force registration so [faults.*] appear (possibly zero) in counter
    dumps — used by the bench harness so BENCH.json has a stable
    schema. *)

val note_reboot : lost:int -> unit
val note_contact_suppressed : unit -> unit
val note_contact_truncated : lost_bytes:int -> unit
val note_meta_drop : unit -> unit
