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
      {!Metric.t} and expected delays come from {!Estimate_delay} over the
      believed replica sets ({!Replica_db}) and learned
      {!Meeting_matrix};
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
    packet only lowers its own D(i). *)

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
