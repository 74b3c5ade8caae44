(** LP presolve: shrink a bounded-column model before the simplex sees it.

    It first coalesces each of the problem's flat rows once, in O(nnz),
    as a stable sort by column would (repeats summed left to right, exact
    zeros dropped), then runs the rounds below in place.

    Rules applied to fixpoint (bounded rounds):

    {ul
    {- {e fixed columns} (lb = ub) are substituted into row right-hand
       sides and dropped;}
    {- {e empty columns} (no occurrence in any kept row) are dropped — the
       solver-side value is chosen per solve from the current box by cost
       sign, because {!Simplex.State.resolve} can change the box between
       solves;}
    {- {e empty rows} become a feasibility check and disappear;}
    {- {e singleton rows} fold into a tightened column bound and
       disappear;}
    {- {e bound tightening} from kept rows' activity bounds shrinks column
       boxes (implied bounds are widened by a small slack so float error
       never cuts into the feasible region).}}

    All tightening is implied-bound reasoning on the LP relaxation: no
    feasible point is cut, so the reduced model has the same optimal value
    and every reduced solution lifts back via {!postsolve}. Integrality
    marks are deliberately ignored — {!Simplex.State} solves LP
    relaxations whose boxes branch-and-bound narrows per node, and the
    tightened boxes here are exactly the sound set to intersect those
    overrides with.

    Counters [lp.presolve_cols_removed] and [lp.presolve_rows_removed]
    register at module init. *)

type verdict = Feasible | Infeasible

type col_class =
  | Kept of int  (** survives, with its reduced-space index *)
  | Fixed of float  (** eliminated at this value *)
  | Empty  (** eliminated; value chosen per solve by cost sign *)

type t = {
  n_orig : int;
  n_red : int;
  rows : Lp_problem.rows;  (** kept, reduced indices, columns ascending *)
  obj : float array;  (** reduced-space objective *)
  lb : float array;  (** reduced-space tightened bounds *)
  ub : float array;
  keep : int array;  (** reduced index -> original column *)
  orig_obj : float array;  (** the objective as given, original space *)
  tlb : float array;  (** tightened boxes, original space, every column — *)
  tub : float array;
      (** eliminated singleton rows survive only here, so any per-solve box
          for an eliminated column must be intersected with these *)
  cls : col_class array;  (** per original column *)
  verdict : verdict;
  rows_removed : int;
  cols_removed : int;
}

val reduce :
  obj:float array ->
  lb:float array ->
  ub:float array ->
  rows:Lp_problem.rows ->
  t
(** [reduce ~obj ~lb ~ub ~rows] presolves min obj·x s.t. rows, lb ≤ x ≤ ub.
    When [verdict = Infeasible] the remaining fields describe the partial
    reduction and must not be solved. *)

val postsolve :
  t ->
  cur_lb:float array ->
  cur_ub:float array ->
  x_red:float array ->
  [ `X of float array | `Unbounded ]
(** Lift a reduced solution back to the original variable space under the
    {e current} original-space boxes (which matter only for [Empty]
    columns). [`Unbounded] when an [Empty] column has negative cost and a
    box open above. *)
