(** The RAPID protocol (§3–4): utility-driven replication as a
    {!Rapid_sim.Protocol.S}.

    Protocol rapid(X, Y) at every transfer opportunity:
    + exchange metadata (acknowledgments, meeting-time table deltas, and
      per-packet replica records changed since the last exchange with this
      peer, via {!Gossip}), charged to the opportunity under the selected
      {!Control_channel.t};
    + deliver packets destined to the peer in decreasing utility order;
    + replicate remaining packets in decreasing order of marginal utility
      per byte δU_i/s_i, where utilities follow the configured
      {!Metric.t} and expected delays come from Eq. 9 ({!rate_of_holder},
      {!expected_delay}, {!delivery_prob_within}) over the believed
      replica sets ({!Replica_db}) and learned {!Meeting_matrix};
    + under storage pressure, evict lowest-utility packets first — but a
      source never deletes its own packet unless acknowledged (§3.4).

    Faithfulness notes: replication requires strictly positive marginal
    utility, so packets whose deadline passed (metric 2) or whose believed
    holders can never reach the destination within h hops are not
    replicated; with an empty meeting matrix (cold start) RAPID performs
    direct delivery only, exactly as a deployment that "learns all values
    during the experiment" (§6.1). For metric 3 the ranking is by expected
    delay D(i) descending, which is equivalent to the paper's
    work-conserving recomputation within a contact because replicating a
    packet only lowers its own D(i).

    Cost: scoring a candidate ([plan], per sender buffer entry), a
    victim ([drop_candidate], per buffered entry) or an own copy's n_j(i)
    (every buffered entry of both peers, per contact) allocates nothing.
    Believed rates are not cached: Eq. 9 is re-summed on every read. The
    dev build compiles library modules [-opaque], so any float returned
    by (or passed to) a function that is not inlined is boxed; the
    scoring loops therefore read holders by index from {!Replica_db},
    take believed rates and losses back through one-slot float arrays,
    read meeting times from the destination's borrowed
    {!Meeting_matrix.row} and transfer-opportunity means from
    [Dense.Cumulative_grid]'s borrowed sums, and inline the Eq. 9
    formulas below, which is why those live here and not in
    {!Estimate_delay}. *)

(** {1 Eq. 9 (§4.1.1)}

    The exponential approximation over holders j of packet i, destined to
    Z: R = Σ_j 1/(E(M_jZ)·n_j(i)), A(i) = 1/R and
    P(a(i) < t) = 1 − e^{−R·t}. *)

val rate_of_holder : meeting_time:float -> n_meet:int -> float
(** One summand of R: 1/(E·n) with n clamped to at least 1; 0 when E is
    infinite (holder never meets the destination) or not positive. *)

val expected_delay : rate:float -> float
(** A(i) = 1/R; [infinity] when R = 0. *)

val delivery_prob_within : rate:float -> horizon:float -> float
(** P(a(i) < horizon) = 1 − e^{−R·horizon}; 0 for non-positive horizon
    or rate. *)

(** {1 The protocol} *)

type params = {
  metric : Metric.t;
  channel : Control_channel.t;
  use_acks : bool;  (** Disable only for component ablations (Fig. 14). *)
  ack_entry_bytes : int;
  table_entry_bytes : int;
  packet_entry_bytes : int;
  h_hops : int;  (** Transitive meeting-estimate depth; the paper uses 3. *)
  meta_self_cap_frac : float;
      (** Voluntary in-band metadata ceiling as a fraction of each
          opportunity, applied when no administrator cap (Fig. 8) is set;
          keeps gossip from starving data under heavy replica churn. *)
  tracer : Rapid_obs.Tracer.t;
      (** Receives per-contact [Metadata] events broken down by kind
          ("acks", "table", "entries"); default is the null tracer. *)
}

val default_params : Metric.t -> params
(** In-band channel, acks on, entry sizes 8/12/20 bytes, h = 3,
    self-cap 0.08, null tracer. *)

val make : params -> Rapid_sim.Protocol.packed

val make_default : Metric.t -> Rapid_sim.Protocol.packed
(** [make (default_params metric)]. *)
