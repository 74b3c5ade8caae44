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
  rows : Lp_problem.constr list;
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

(* Coalesce a row's coefficient list: sort by column, sum duplicates, drop
   exact zeros. Lp_problem rows may legitimately repeat a column. *)
let coalesce coeffs =
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) coeffs in
  let rec merge = function
    | (j1, c1) :: (j2, c2) :: rest when j1 = j2 -> merge ((j1, c1 +. c2) :: rest)
    | entry :: rest -> entry :: merge rest
    | [] -> []
  in
  List.filter (fun (_, c) -> c <> 0.0) (merge sorted)

type work_row = {
  mutable coeffs : (int * float) list;
  relation : Lp_problem.relation;
  mutable rhs : float;
  mutable alive : bool;
}

exception Found_infeasible

let reduce ~obj ~lb ~ub ~rows =
  let n = Array.length obj in
  let lb = Array.copy lb and ub = Array.copy ub in
  let wrows =
    Array.of_list
      (List.map
         (fun { Lp_problem.coeffs; relation; rhs } ->
           { coeffs = coalesce coeffs; relation; rhs; alive = true })
         rows)
  in
  let nrows = Array.length wrows in
  (* gone.(j): column j eliminated; its kind is decided at the end (Fixed
     when the box is a point, Empty otherwise). *)
  let gone = Array.make n false in
  let fixed_val = Array.make n nan in
  let occs = Array.make n 0 in
  let rows_removed = ref 0 in
  let drop_row r =
    if r.alive then begin
      r.alive <- false;
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
        for ri = 0 to nrows - 1 do
          let r = wrows.(ri) in
          if r.alive then begin
            let keep, sub =
              List.partition (fun (j, _) -> not gone.(j)) r.coeffs
            in
            if sub <> [] then begin
              List.iter
                (fun (j, c) -> r.rhs <- r.rhs -. (c *. fixed_val.(j)))
                sub;
              r.coeffs <- keep;
              changed := true
            end;
            match r.coeffs with
            | [] ->
                (* Empty row: a pure feasibility check. *)
                let ok =
                  match r.relation with
                  | Lp_problem.Le -> r.rhs >= -.eps
                  | Lp_problem.Ge -> r.rhs <= eps
                  | Lp_problem.Eq -> Float.abs r.rhs <= eps
                in
                if not ok then raise Found_infeasible;
                drop_row r;
                changed := true
            | [ (j, a) ] ->
                (* Singleton row: fold into the column box. *)
                let v = r.rhs /. a in
                let t1, t2 =
                  match r.relation with
                  | Lp_problem.Le ->
                      if a > 0.0 then (tighten_ub j v, false)
                      else (tighten_lb j v, false)
                  | Lp_problem.Ge ->
                      if a > 0.0 then (tighten_lb j v, false)
                      else (tighten_ub j v, false)
                  | Lp_problem.Eq ->
                      if v < lb.(j) -. eps || v > ub.(j) +. eps then
                        raise Found_infeasible;
                      (tighten_lb j v, tighten_ub j v)
                in
                ignore t1;
                ignore t2;
                drop_row r;
                changed := true
            | _ -> ()
          end
        done;
        (* Empty columns: no occurrence in any kept row. *)
        Array.fill occs 0 n 0;
        Array.iter
          (fun r ->
            if r.alive then
              List.iter (fun (j, _) -> occs.(j) <- occs.(j) + 1) r.coeffs)
          wrows;
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
        Array.iter
          (fun r ->
            if r.alive then begin
              let lo_sum = ref 0.0 and lo_inf = ref 0 in
              let hi_sum = ref 0.0 and hi_inf = ref 0 in
              List.iter
                (fun (j, a) ->
                  let lo_t = if a > 0.0 then a *. lb.(j) else a *. ub.(j) in
                  let hi_t = if a > 0.0 then a *. ub.(j) else a *. lb.(j) in
                  if Float.is_finite lo_t then lo_sum := !lo_sum +. lo_t
                  else incr lo_inf;
                  if Float.is_finite hi_t then hi_sum := !hi_sum +. hi_t
                  else incr hi_inf)
                r.coeffs;
              let le_side () =
                (* Σ a_j x_j ≤ rhs *)
                List.iter
                  (fun (j, a) ->
                    let lo_t = if a > 0.0 then a *. lb.(j) else a *. ub.(j) in
                    let excl_ok =
                      !lo_inf = 0 || ((not (Float.is_finite lo_t)) && !lo_inf = 1)
                    in
                    if excl_ok then begin
                      let rest =
                        !lo_sum -. (if Float.is_finite lo_t then lo_t else 0.0)
                      in
                      let room = r.rhs -. rest in
                      if a > 0.0 then begin
                        let v = (room /. a) +. widen (room /. a) in
                        if tighten_ub j v then changed := true
                      end
                      else begin
                        let v = (room /. a) -. widen (room /. a) in
                        if tighten_lb j v then changed := true
                      end
                    end)
                  r.coeffs
              in
              let ge_side () =
                (* Σ a_j x_j ≥ rhs *)
                List.iter
                  (fun (j, a) ->
                    let hi_t = if a > 0.0 then a *. ub.(j) else a *. lb.(j) in
                    let excl_ok =
                      !hi_inf = 0 || ((not (Float.is_finite hi_t)) && !hi_inf = 1)
                    in
                    if excl_ok then begin
                      let rest =
                        !hi_sum -. (if Float.is_finite hi_t then hi_t else 0.0)
                      in
                      let need = r.rhs -. rest in
                      if a > 0.0 then begin
                        let v = (need /. a) -. widen (need /. a) in
                        if tighten_lb j v then changed := true
                      end
                      else begin
                        let v = (need /. a) +. widen (need /. a) in
                        if tighten_ub j v then changed := true
                      end
                    end)
                  r.coeffs
              in
              match r.relation with
              | Lp_problem.Le -> le_side ()
              | Lp_problem.Ge -> ge_side ()
              | Lp_problem.Eq ->
                  le_side ();
                  ge_side ()
            end)
          wrows
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
     solved, so no reduced rows are materialized for it. *)
  let rrows =
    if verdict = Infeasible then []
    else
      Array.to_list wrows
      |> List.filter_map (fun r ->
             if not r.alive then None
             else
               Some
                 {
                   Lp_problem.coeffs =
                     List.map
                       (fun (j, c) ->
                         match cls.(j) with
                         | Kept rj -> (rj, c)
                         | Fixed _ | Empty -> assert false)
                       r.coeffs;
                   relation = r.relation;
                   rhs = r.rhs;
                 })
  in
  let cols_removed = n - n_red in
  Counter.add c_cols cols_removed;
  Counter.add c_rows !rows_removed;
  {
    n_orig = n;
    n_red;
    rows = rrows;
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
