(** Sparse LU factorization of a simplex basis, with product-form eta
    updates between refactorizations.

    A factorization represents B = P·L·U·Q⁻¹ (row permutation [P], unit
    lower triangular [L], upper triangular [U], column permutation [Q]
    mapping factor steps to basis positions), followed by the eta file: one
    product-form elementary matrix per pivot applied since the last
    {!factor}. FTRAN/BTRAN solve against the whole product, so the simplex
    never forms B⁻¹.

    Index spaces: FTRAN input vectors are indexed by original row, output
    by basis position (= tableau row); BTRAN is the transpose map. Both
    solves are in place over dense work vectors — at simplex scale an O(m)
    sweep over a dense vector is cheaper and simpler than maintaining
    sparse solution patterns.

    Every basis, whatever its dimension, takes this one path: one
    factorization ({!factor}) and one solve per direction ({!ftran},
    {!btran}).

    Counters [lp.refactorizations] and [lp.eta_updates] register at module
    init and surface in every JSON artifact. *)

type t

exception Singular
(** Raised by {!factor} when a basis column cannot supply an acceptable
    pivot (numerically singular basis). Callers recover by rebuilding from
    the all-logical identity basis. *)

val factor : Sparse.t -> basis:int array -> t
(** [factor a ~basis] factorizes the m×m basis whose position-[p] column is
    [a]'s column [basis.(p)]. Left-looking (Gilbert–Peierls) with partial
    pivoting by magnitude; singleton columns are pivoted first, the rest in
    ascending column-nnz order (cheap deterministic fill control). Resets
    the eta file. Counts one [lp.refactorizations]. *)

val n_etas : t -> int
(** Eta updates appended since the last {!factor}. *)

val update : t -> r:int -> alpha:float array -> unit
(** [update t ~r ~alpha] appends the product-form eta for a pivot at basis
    position [r], where [alpha] is the FTRAN'd entering column (position
    space). [alpha] is read, not kept. The caller checks pivot magnitude
    ([alpha.(r)]) before committing. Counts one [lp.eta_updates]. *)

val ftran : t -> float array -> unit
(** In-place solve B·x = b: input dense [b] indexed by original row,
    output x indexed by basis position. *)

val btran : t -> float array -> unit
(** In-place solve Bᵀ·y = c: input dense [c] indexed by basis position,
    output y indexed by original row. *)
