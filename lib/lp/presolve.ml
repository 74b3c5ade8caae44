module Counter = Rapid_obs.Counter

let c_cols = Counter.create "lp.presolve_cols_removed"
let c_rows = Counter.create "lp.presolve_rows_removed"

let eps = 1e-9

(* Slack added when applying an implied bound, and the minimum improvement
   required to apply it at all: tightening must never cut a feasible point
   through float error, and must not churn the fixpoint loop. *)
let widen v = 1e-9 *. (1.0 +. Float.abs v)
let min_gain = 1e-7

type verdict = Feasible | Infeasible

type col_class = Kept of int | Fixed of float | Empty

type t = {
  n_orig : int;
  n_red : int;
  rows : Lp_problem.rows;
  obj : float array;
  lb : float array;
  ub : float array;
  keep : int array;
  orig_obj : float array;
  tlb : float array;
  tub : float array;
  cls : col_class array;
  verdict : verdict;
  rows_removed : int;
  cols_removed : int;
}

exception Found_infeasible

let reduce ~obj ~lb ~ub ~(rows : Lp_problem.rows) =
  let n = Array.length obj in
  let lb = Array.copy lb and ub = Array.copy ub in
  let { Lp_problem.count = nrows; start; _ } = rows in
  let nnz = start.(nrows) in
  (* Coalesce each row once, as a stable sort by column would, in O(nnz +
     n): bucket the terms by column, deal them back to their rows summing
     repeats left to right, drop exact zeros. Row [r]'s live terms then sit
     at [start.(r), start.(r) + len.(r)), in ascending column order. *)
  let head = Array.make (n + 1) 0 in
  for e = 0 to nnz - 1 do
    head.(rows.col.(e) + 1) <- head.(rows.col.(e) + 1) + 1
  done;
  for j = 1 to n do
    head.(j) <- head.(j) + head.(j - 1)
  done;
  let brow = Array.make nnz 0 and bcoef = Array.make nnz 0.0 in
  for r = 0 to nrows - 1 do
    for e = start.(r) to start.(r + 1) - 1 do
      let j = rows.col.(e) in
      brow.(head.(j)) <- r;
      bcoef.(head.(j)) <- rows.coef.(e);
      head.(j) <- head.(j) + 1
    done
  done;
  let col = Array.make nnz 0 and coef = Array.make nnz 0.0 in
  let len = Array.make nrows 0 in
  let j = ref 0 in
  (* head.(j) is now the end of column j's bucket *)
  for b = 0 to nnz - 1 do
    while b >= head.(!j) do
      incr j
    done;
    let r = brow.(b) in
    let p = start.(r) + len.(r) in
    if len.(r) > 0 && col.(p - 1) = !j then
      coef.(p - 1) <- coef.(p - 1) +. bcoef.(b)
    else begin
      col.(p) <- !j;
      coef.(p) <- bcoef.(b);
      len.(r) <- len.(r) + 1
    end
  done;
  (* Keep row [r]'s live terms [e] with [keep r e]; [true] if any was not. *)
  let filter_row keep r =
    let s = start.(r) in
    let k = ref s in
    for e = s to s + len.(r) - 1 do
      if keep r e then begin
        col.(!k) <- col.(e);
        coef.(!k) <- coef.(e);
        incr k
      end
    done;
    let dropped = !k - s < len.(r) in
    len.(r) <- !k - s;
    dropped
  in
  for r = 0 to nrows - 1 do
    ignore (filter_row (fun _ e -> coef.(e) <> 0.0) r)
  done;
  let rel = Array.sub rows.rel 0 nrows and rhs = Array.sub rows.rhs 0 nrows in
  let alive = Array.make nrows true in
  (* gone.(j): column j eliminated; its kind is decided at the end (Fixed
     when the box is a point, Empty otherwise). *)
  let gone = Array.make n false in
  let fixed_val = Array.make n nan in
  let occs = Array.make n 0 in
  let rows_removed = ref 0 in
  let drop_row r =
    if alive.(r) then begin
      alive.(r) <- false;
      incr rows_removed
    end
  in
  let tighten_lb j v =
    if v > lb.(j) +. min_gain then begin
      lb.(j) <- v;
      if lb.(j) > ub.(j) +. eps then raise Found_infeasible;
      true
    end
    else false
  in
  let tighten_ub j v =
    if v < ub.(j) -. min_gain then begin
      ub.(j) <- v;
      if lb.(j) > ub.(j) +. eps then raise Found_infeasible;
      true
    end
    else false
  in
  let fix_col j v =
    if not gone.(j) then begin
      gone.(j) <- true;
      fixed_val.(j) <- v
    end
  in
  let substitute r e =
    let j = col.(e) in
    if gone.(j) then begin
      rhs.(r) <- rhs.(r) -. (coef.(e) *. fixed_val.(j));
      false
    end
    else true
  in
  let verdict =
    try
      let changed = ref true in
      let rounds = ref 0 in
      while !changed && !rounds < 8 do
        changed := false;
        incr rounds;
        (* Newly fixed columns (point boxes). *)
        for j = 0 to n - 1 do
          if (not gone.(j)) && ub.(j) -. lb.(j) <= 1e-12 then begin
            fix_col j lb.(j);
            changed := true
          end
        done;
        (* Substitute eliminated columns, then classify rows. *)
        for r = 0 to nrows - 1 do
          if alive.(r) then begin
            if filter_row substitute r then changed := true;
            if len.(r) = 0 then begin
              (* Empty row: a pure feasibility check. *)
              let ok =
                match rel.(r) with
                | Lp_problem.Le -> rhs.(r) >= -.eps
                | Lp_problem.Ge -> rhs.(r) <= eps
                | Lp_problem.Eq -> Float.abs rhs.(r) <= eps
              in
              if not ok then raise Found_infeasible;
              drop_row r;
              changed := true
            end
            else if len.(r) = 1 then begin
              (* Singleton row: fold into the column box. *)
              let j = col.(start.(r)) and a = coef.(start.(r)) in
              let v = rhs.(r) /. a in
              (match rel.(r) with
              | Lp_problem.Le ->
                  ignore (if a > 0.0 then tighten_ub j v else tighten_lb j v)
              | Lp_problem.Ge ->
                  ignore (if a > 0.0 then tighten_lb j v else tighten_ub j v)
              | Lp_problem.Eq ->
                  if v < lb.(j) -. eps || v > ub.(j) +. eps then
                    raise Found_infeasible;
                  ignore (tighten_lb j v);
                  ignore (tighten_ub j v));
              drop_row r;
              changed := true
            end
          end
        done;
        (* Empty columns: no occurrence in any kept row. *)
        Array.fill occs 0 n 0;
        for r = 0 to nrows - 1 do
          if alive.(r) then
            for e = start.(r) to start.(r) + len.(r) - 1 do
              occs.(col.(e)) <- occs.(col.(e)) + 1
            done
        done;
        for j = 0 to n - 1 do
          if (not gone.(j)) && occs.(j) = 0 then begin
            gone.(j) <- true;
            (* marked Empty below: fixed_val stays nan *)
            changed := true
          end
        done;
        (* Bound tightening from kept rows' activity bounds. A term with an
           open box contributes an infinity; an implied bound for column k
           is usable only when the activity excluding k is finite. *)
        for r = 0 to nrows - 1 do
          if alive.(r) then begin
            let e0 = start.(r) and e1 = start.(r) + len.(r) - 1 in
            let lo_sum = ref 0.0 and lo_inf = ref 0 in
            let hi_sum = ref 0.0 and hi_inf = ref 0 in
            for e = e0 to e1 do
              let j = col.(e) and a = coef.(e) in
              let lo_t = if a > 0.0 then a *. lb.(j) else a *. ub.(j) in
              let hi_t = if a > 0.0 then a *. ub.(j) else a *. lb.(j) in
              if Float.is_finite lo_t then lo_sum := !lo_sum +. lo_t
              else incr lo_inf;
              if Float.is_finite hi_t then hi_sum := !hi_sum +. hi_t
              else incr hi_inf
            done;
            let le_side () =
              (* Σ a_j x_j ≤ rhs *)
              for e = e0 to e1 do
                let j = col.(e) and a = coef.(e) in
                let lo_t = if a > 0.0 then a *. lb.(j) else a *. ub.(j) in
                let excl_ok =
                  !lo_inf = 0 || ((not (Float.is_finite lo_t)) && !lo_inf = 1)
                in
                if excl_ok then begin
                  let rest =
                    !lo_sum -. if Float.is_finite lo_t then lo_t else 0.0
                  in
                  let room = rhs.(r) -. rest in
                  if a > 0.0 then begin
                    let v = (room /. a) +. widen (room /. a) in
                    if tighten_ub j v then changed := true
                  end
                  else begin
                    let v = (room /. a) -. widen (room /. a) in
                    if tighten_lb j v then changed := true
                  end
                end
              done
            in
            let ge_side () =
              (* Σ a_j x_j ≥ rhs *)
              for e = e0 to e1 do
                let j = col.(e) and a = coef.(e) in
                let hi_t = if a > 0.0 then a *. ub.(j) else a *. lb.(j) in
                let excl_ok =
                  !hi_inf = 0 || ((not (Float.is_finite hi_t)) && !hi_inf = 1)
                in
                if excl_ok then begin
                  let rest =
                    !hi_sum -. if Float.is_finite hi_t then hi_t else 0.0
                  in
                  let need = rhs.(r) -. rest in
                  if a > 0.0 then begin
                    let v = (need /. a) -. widen (need /. a) in
                    if tighten_lb j v then changed := true
                  end
                  else begin
                    let v = (need /. a) +. widen (need /. a) in
                    if tighten_ub j v then changed := true
                  end
                end
              done
            in
            match rel.(r) with
            | Lp_problem.Le -> le_side ()
            | Lp_problem.Ge -> ge_side ()
            | Lp_problem.Eq ->
                le_side ();
                ge_side ()
          end
        done
      done;
      Feasible
    with Found_infeasible -> Infeasible
  in
  (* Final classification and reindexing. *)
  let cls = Array.make n Empty in
  let n_red = ref 0 in
  for j = 0 to n - 1 do
    if gone.(j) then
      cls.(j) <- (if Float.is_nan fixed_val.(j) then Empty else Fixed fixed_val.(j))
    else begin
      cls.(j) <- Kept !n_red;
      incr n_red
    end
  done;
  let n_red = !n_red in
  let keep = Array.make n_red 0 in
  let robj = Array.make n_red 0.0 in
  let rlb = Array.make n_red 0.0 in
  let rub = Array.make n_red 0.0 in
  for j = 0 to n - 1 do
    match cls.(j) with
    | Kept rj ->
        keep.(rj) <- j;
        robj.(rj) <- obj.(j);
        rlb.(rj) <- lb.(j);
        rub.(rj) <- ub.(j)
    | Fixed _ | Empty -> ()
  done;
  (* An infeasible verdict can abort mid-substitution, leaving alive rows
     that still reference eliminated columns; such a reduction must not be
     solved, so it keeps no rows. Kept terms compact in place, leftward. *)
  if verdict = Infeasible then Array.fill alive 0 nrows false;
  let out_start = Array.make (nrows + 1) 0 in
  let kept = ref 0 in
  for r = 0 to nrows - 1 do
    if alive.(r) then begin
      let q = out_start.(!kept) in
      for k = 0 to len.(r) - 1 do
        (match cls.(col.(start.(r) + k)) with
        | Kept rj -> col.(q + k) <- rj
        | Fixed _ | Empty -> assert false);
        coef.(q + k) <- coef.(start.(r) + k)
      done;
      rel.(!kept) <- rel.(r);
      rhs.(!kept) <- rhs.(r);
      incr kept;
      out_start.(!kept) <- q + len.(r)
    end
  done;
  let cols_removed = n - n_red in
  Counter.add c_cols cols_removed;
  Counter.add c_rows !rows_removed;
  {
    n_orig = n;
    n_red;
    rows = { Lp_problem.count = !kept; start = out_start; col; coef; rel; rhs };
    obj = robj;
    lb = rlb;
    ub = rub;
    keep;
    orig_obj = Array.copy obj;
    tlb = lb;
    tub = ub;
    cls;
    verdict;
    rows_removed = !rows_removed;
    cols_removed;
  }

(* Optimal resting value of an eliminated empty column under the given box:
   the finite bound its cost pushes it to, or [`Unbounded] when the cost is
   negative and the box is open above. *)
let empty_value ~cost ~lo ~hi =
  if cost < 0.0 then if hi < infinity then `Value hi else `Unbounded
  else if cost > 0.0 then `Value lo
  else if Float.is_finite lo then `Value lo
  else if Float.is_finite hi then `Value hi
  else `Value 0.0

let postsolve t ~cur_lb ~cur_ub ~x_red =
  let x = Array.make t.n_orig 0.0 in
  let unbounded = ref false in
  for j = 0 to t.n_orig - 1 do
    match t.cls.(j) with
    | Kept rj -> x.(j) <- x_red.(rj)
    | Fixed v -> x.(j) <- v
    | Empty -> (
        (* The rows that once constrained this column live on only as its
           tightened box; the per-solve override must intersect it. *)
        let lo = Float.max cur_lb.(j) t.tlb.(j) in
        let hi = Float.min cur_ub.(j) t.tub.(j) in
        match empty_value ~cost:t.orig_obj.(j) ~lo ~hi with
        | `Value v -> x.(j) <- v
        | `Unbounded -> unbounded := true)
  done;
  if !unbounded then `Unbounded else `X x
