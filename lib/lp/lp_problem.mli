(** Linear / integer program description.

    This is the interface the Optimal routing baseline targets; the paper
    used CPLEX [10], which is closed source, so we solve the same programs
    with our own simplex ({!Simplex}) and branch-and-bound ({!Ilp}).

    Conventions: all variables are nonnegative; the objective is always
    minimized. Each variable carries column bounds [l, u] (default
    [0, +inf)): the bounded-variable simplex ({!Simplex}) handles them in
    the ratio test, so a bound costs no tableau row — prefer
    {!set_upper}/{!set_lower} over singleton [Le]/[Ge] constraints.
    Setters reject non-finite input with [Invalid_argument]. *)

type relation = Le | Eq | Ge

type rows = {
  count : int;  (** number of rows *)
  start : int array;  (** row [i] is terms [start.(i)] to [start.(i+1)-1] *)
  col : int array;  (** column of each term *)
  coef : float array;  (** coefficient of each term *)
  rel : relation array;  (** per row *)
  rhs : float array;  (** per row *)
}
(** Compressed sparse rows ([start.(0) = 0]), the one format {!Presolve}
    and the {!Simplex} build read. Read-only: the arrays may be shared and
    may run past the [count] rows and [start.(count)] terms they hold. *)

type constr = {
  coeffs : (int * float) list;  (** Sparse row: (variable index, coefficient). *)
  relation : relation;
  rhs : float;
}

type t

val create : num_vars:int -> t
(** A problem over variables [0 .. num_vars-1], objective initially 0. *)

val num_vars : t -> int

val set_objective : t -> (int * float) list -> unit
(** Sparse minimization objective; unmentioned variables have cost 0.
    @raise Invalid_argument on a non-finite coefficient. *)

val add_constraint : t -> (int * float) list -> relation -> float -> unit
(** @raise Invalid_argument on a non-finite coefficient or right-hand
    side; the problem is then unchanged. *)

val set_lower : t -> int -> float -> unit
(** Column lower bound; must be finite and >= 0 (the paper's programs are
    over nonnegative flows). Default 0. *)

val set_upper : t -> int -> float -> unit
(** Column upper bound; must be >= 0 and not NaN. Default +inf. *)

val bounds : t -> (float * float) array
(** Per-variable (lower, upper). *)

val mark_integer : t -> int -> unit
(** Require the variable to take an integer value (for {!Ilp}); O(1). *)

val integer_vars : t -> int list
(** The marked variables, each once, in first-mark order. *)

val objective : t -> float array

val certify : ?int_tol:float -> t -> objective:float -> float array -> bool
(** [certify p ~objective x] checks a claimed optimum against [p] as given:
    each row within 1e-6 relative to [1 + |rhs| + Σ|aⱼxⱼ|], each box
    within 1e-6, each marked variable within [int_tol] (default 1e-6) of
    an integer, and [objective] within 1e-6 relative to [1 + Σ|cⱼxⱼ|] of
    the cost recomputed from [x]. NaN fails every check. O(nnz). *)

val rows : t -> rows
(** The rows added so far, in insertion order, each term as given. O(1);
    later {!add_constraint} calls never change the result. *)

val constraints : t -> constr list
(** {!rows} as a list, in insertion order. *)
