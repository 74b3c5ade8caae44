(** Algorithm Estimate-Delay (§4.1) under the exponential approximation.

    A node needs, per packet i destined to Z:
    - per believed replica holder j: the expected direct inter-meeting time
      E(M_jZ) and the number of meetings n_j(i) = ⌈b_j(i)/B_j⌉ that j
      needs with Z before i's turn comes (buffer position over expected
      transfer size, Algorithm 2 steps 1–4);
    - the exponential approximation (§4.1.1 / Eq. 9):
        A(i) = [ Σ_j 1 / (E(M_jZ) · n_j(i)) ]⁻¹
        P(a(i) < t) = 1 − exp(−R·t) with R = Σ_j 1/(E(M_jZ)·n_j(i)).

    This module keeps the reference scan for n_j(i), which the tests hold
    RAPID's position index to. Eq. 9's scalar formulas live in {!Rapid}
    ({!Rapid.rate_of_holder}, {!Rapid.expected_delay},
    {!Rapid.delivery_prob_within}), next to their one caller: the dev
    build compiles library modules [-opaque], and every float returned
    by a call into another module is boxed, which the per-candidate
    scoring loops cannot afford. *)

val n_meetings :
  entries:Rapid_sim.Buffer.entry list ->
  packet:Rapid_sim.Packet.t ->
  avg_transfer_bytes:float ->
  int
(** Meetings holder needs with the destination to deliver [packet] directly:
    sort the holder's packets destined to [packet.dst] oldest-first (the
    direct-delivery order of Protocol rapid step 2, i.e. descending T(i)),
    sum the sizes up to and including [packet], divide by the expected
    transfer size, round up; at least 1. [entries] is the holder's buffer;
    [packet] need not be in it (the would-be position is used), duplicates
    are handled. *)
