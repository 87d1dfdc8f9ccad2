(** Sparse LU factorization of a simplex basis, in product form.

    Right-looking Gaussian elimination over flat column- and row-wise
    work arrays, with a column-wise Markowitz pivot search over count
    buckets (Suhl & Suhl 1990) under a relative stability threshold of
    0.1. Column singletons come first: they need no search and no
    arithmetic.

    The etas come out in the order {!Revised} applies them: FTRAN runs
    them in order, BTRAN the transposes in reverse. *)

type eta = { row : int; pivot : float; idx : int array; vals : float array }
(** Identity except column [row], which holds [pivot] on the diagonal
    and [vals] at the rows [idx]. *)

type stats = {
  deferred : int list;
      (** columns whose remaining entries all fell to 1e-11 or below, in
          the order they were deferred: numerically dependent on the
          pivoted columns, or nearly so; the caller decides *)
  max_entry : float;  (** largest |entry| of the input matrix *)
  max_elim : float;
      (** largest |entry| among the pivots, multipliers and updated
          values of the elimination (the growth numerator) *)
  min_pivot : float;  (** smallest accepted |pivot| ([infinity] if none) *)
  max_pivot : float;  (** largest accepted |pivot| *)
}

val factor :
  m:int ->
  column:(int -> (int -> float -> unit) -> unit) ->
  push:(eta -> unit) ->
  row_of:int array ->
  stats
(** [factor ~m ~column ~push ~row_of] factorizes the [m × m] matrix
    whose column [k] is enumerated by [column k f], calling
    [f row value] once per entry (zero values are ignored), and hands
    the eta file to [push]: the L etas in pivot order (the pivot
    column's entries at the rows not yet pivoted), then the U etas in
    reverse pivot order (its entries at the rows pivoted before it, on
    a unit diagonal). [row_of.(k)] is set to the row column [k] was
    pivoted on, or [-1] if it was deferred. Entries that fall below
    1e-13 during elimination are dropped.

    The work arrays belong to the calling domain and are reused from
    one call to the next; [column] and [push] must not call [factor]. *)
