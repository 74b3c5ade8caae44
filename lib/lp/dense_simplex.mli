(** Test-only dense reference simplex.

    This is the dense-tableau bounded-variable simplex exactly as it
    shipped before the sparse revised-simplex rewrite, kept verbatim
    (minus {!Rapid_obs} instrumentation) as an independent oracle: the
    qcheck equivalence properties in [test/test_lp.ml] check the sparse
    {!Simplex} against this module on random bounded LPs.

    Nothing under [lib/] or [bin/] may depend on it — every pivot is
    O(m·n), which is exactly the cost profile the sparse rewrite removed.
    The API mirrors {!Simplex} so tests can drive both sides through the
    same harness. *)

type solution = { objective : float; solution : float array }

type result =
  | Optimal of solution
  | Infeasible
  | Unbounded
  | Iter_limit
      (** Iteration cap hit before convergence; the objective is NOT a
          valid bound. *)

val solve : Lp_problem.t -> result
(** One-shot dense two-phase solve. *)

(** Warm-startable dense solver state (dual-simplex re-solves), mirroring
    {!Simplex.State}. *)
module State : sig
  type t

  val create : Lp_problem.t -> t
  val solve_root : t -> result
  val pivots : t -> int

  val resolve : t -> bounds:(int * float * float) list -> result * bool
  (** Same contract as {!Simplex.State.resolve}: listed variables are
      forced into their boxes, all others revert to the problem's own
      bounds; the boolean is [true] iff the warm dual path produced the
      result. *)
end
