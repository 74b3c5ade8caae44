(** Compressed sparse column (CSC) matrices for the LP kernel.

    Immutable after construction. Entries within each column are sorted by
    row index with duplicates coalesced, so assembly from unsorted
    (row, col, value) triplets — e.g. straight off {!Lp_problem.constr}
    rows, whose coefficient lists may repeat a variable — is deterministic
    and canonical. A CSR view of the same matrix is just {!transpose}. *)

type t = private {
  m : int;  (** rows *)
  n : int;  (** columns *)
  colptr : int array;  (** length n+1; column j spans [colptr.(j), colptr.(j+1)) *)
  rowind : int array;  (** row index per entry, sorted within a column *)
  values : float array;
}

val of_arrays :
  m:int -> n:int -> rows:int array -> cols:int array -> vals:float array -> t
(** [of_arrays ~m ~n ~rows ~cols ~vals] assembles from parallel
    (row, col, value) triplet arrays in any order; duplicates of the same
    (row, col) cell are summed and exact zeros produced by coalescing are
    kept (structural nonzeros). The input arrays are not modified. *)

val transpose : t -> t
(** O(nnz); the transpose of a CSC matrix is its CSR view. *)

val iter_col : t -> int -> (int -> float -> unit) -> unit
(** [iter_col a j f] applies [f row value] to each entry of column [j]. *)

val col_nnz : t -> int -> int
