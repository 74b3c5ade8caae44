(** Branch-and-bound integer linear programming on top of {!Simplex}.

    Best-first search on the LP relaxation bound, branching on the most
    fractional integer-marked variable. Branch constraints (x <= floor,
    x >= ceil) are column bounds, not rows: every node shares one
    {!Simplex.State} and is re-solved from the previous basis by a few
    dual-simplex pivots ([ilp.warm_starts] counts the nodes the warm path
    served; [ilp.nodes] counts LP solves including the root).

    The search opens with a depth-first dive (each branch variable rounded
    toward its relaxation value, siblings queued) so an incumbent exists —
    and bound pruning bites — before the best-first phase starts. Node and
    pivot budgets cap the work; when either is exhausted the best incumbent
    found so far is returned with [proven_optimal = false] (the Fig. 13
    harness reports which). A relaxation that hits the simplex iteration
    cap ({!Simplex.Iter_limit}) has no valid bound: the node is neither
    pruned nor branched, [ilp.unconverged] is bumped, and the final result
    is demoted to [proven_optimal = false] (the seed solver silently
    treated such truncated solves as optimal and pruned against them).

    Every answer reported as proven optimal is first checked by
    {!Lp_problem.certify} against the problem as given, since the solver
    only ever sees the presolved model; an answer that fails is reported
    with [proven_optimal = false]. *)

type outcome = {
  objective : float;
  solution : float array;
  proven_optimal : bool;
  nodes_explored : int;
}

type result = Solved of outcome | Infeasible | Unbounded | No_incumbent
(** [No_incumbent]: the node budget (or the simplex iteration cap on the
    root) ran out before any integral solution was found. *)

val solve :
  ?max_nodes:int -> ?max_pivots:int -> ?int_tol:float -> Lp_problem.t -> result
(** [solve p] minimizes [p] with the integrality marks honoured.
    [max_nodes] defaults to 4000; [int_tol] to 1e-6. [max_pivots]
    (default: unlimited) additionally caps the total simplex pivots across
    all nodes — a work budget, since a single hard node can cost orders of
    magnitude more than an easy one. Exhausting either budget yields the
    best incumbent with [proven_optimal = false], or [No_incumbent]. *)
