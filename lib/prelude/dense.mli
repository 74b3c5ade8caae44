(** Flat dense n×n storage for the inference hot path.

    RAPID's estimators keep several per-pair tables (meeting gaps, last
    meeting times, transfer-opportunity averages, exchange watermarks).
    As [Array.init n (fun _ -> Array.init n ...)] grids of boxed records
    these cost a pointer chase per access and scatter the heap; here they
    are flat row-major arrays with [(i*n + j)] indexing, which is what the
    O(h·n²) min-plus row builds in [Meeting_matrix] iterate over. All
    indices must be in [0, dim): the flat layout means an out-of-range
    column would silently alias a neighbouring row. *)

(** Row-major [float] matrix. *)
module Mat : sig
  type t

  val create : ?init:float -> int -> t
  (** [create ?init n] is an n×n matrix filled with [init]
      (default [0.0]). *)

  val dim : t -> int
  val get : t -> int -> int -> float
  val set : t -> int -> int -> float -> unit

  val data : t -> float array
  (** The row-major backing store (row [i] occupies
      [i*dim .. i*dim+dim-1]) — for tight loops that index with
      [Array.unsafe_get]. *)
end

(** Row-major [int] matrix. *)
module Int_mat : sig
  type t

  val create : ?init:int -> int -> t
  val dim : t -> int
  val get : t -> int -> int -> int
  val set : t -> int -> int -> int -> unit
end

(** An n×n grid of cumulative (equal-weight) averages: the flat
    counterpart of a [Moving_average.Cumulative.t array array], holding
    one count array and one sum array instead of n² boxed records. Means
    are computed exactly as [Moving_average.Cumulative.value] does
    (sum ÷ count). *)
module Cumulative_grid : sig
  type t

  val create : int -> t
  val dim : t -> int
  val add : t -> int -> int -> float -> unit
  val count : t -> int -> int -> int

  val sums : t -> float array
  (** The row-major backing store of the cells' sums (cell [(i, j)] at
      [i*dim + j]), so a hot loop can form [sum /. float count] itself
      without a float crossing a function boundary. Borrowed: callers
      must not mutate it. *)

  val value : t -> int -> int -> float option
  (** [None] before the first observation of the cell. *)

  val value_or : t -> int -> int -> default:float -> float
end

(** Preallocated double-buffer scratch for min-plus row passes: a relaxed
    row is written into one buffer while the previous pass is read from
    the other, then the roles swap. One scratch serves any number of
    sequential row builds without allocating. *)
module Scratch : sig
  type t

  val create : unit -> t

  val rows : t -> int -> float array * float array
  (** Two distinct buffers of length ≥ [n] (grown on demand; previous
      contents undefined). The same two arrays are returned on every call
      with the same [t], so callers must finish with them before the next
      [rows] call. *)
end
