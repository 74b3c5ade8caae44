(** Compressed sparse column (CSC) matrices for the LP kernel.

    Immutable after construction. Entries within each column are in
    strictly ascending row order, which {!create} checks; nothing here
    sorts. A CSR view of any matrix is just its {!transpose}, so a matrix
    written row by row is built as its transpose and transposed. *)

type t = private {
  m : int;  (** rows *)
  n : int;  (** columns *)
  colptr : int array;  (** length n+1; column j spans [colptr.(j), colptr.(j+1)) *)
  rowind : int array;  (** row index per entry, ascending within a column *)
  values : float array;
}

val create :
  m:int -> n:int -> colptr:int array -> rowind:int array -> values:float array -> t
(** Wrap compressed arrays, which the matrix then owns. O(nnz).
    @raise Invalid_argument unless [colptr] has length [n+1], starts at 0
    and never decreases, [rowind] and [values] have length [colptr.(n)],
    and each column's row indices lie in [[0, m)] and strictly ascend. *)

val transpose : t -> t
(** O(nnz + m + n); the transpose of a CSC matrix is its CSR view. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col a j f] applies [f row value] to each entry of column [j]. *)

val col_nnz : t -> int -> int
