(* Test-only reference: the dense bounded-variable tableau simplex exactly
   as it shipped before the sparse revised-simplex rewrite (PR 10), minus
   the Rapid_obs instrumentation (the live registry names now belong to
   {!Simplex}). The qcheck equivalence properties in test/test_lp.ml pit
   the sparse solver against this module on random bounded LPs; nothing in
   lib/ or bin/ may depend on it. *)

type solution = { objective : float; solution : float array }

type result = Optimal of solution | Infeasible | Unbounded | Iter_limit

let eps = 1e-9

(* Bounded-variable tableau: every variable (structural, slack, artificial)
   carries column bounds [lower, upper]; nonbasic variables rest at one of
   their bounds and basic values are tracked in [xb]. The reduced-cost row
   [z] is maintained incrementally through pivots — repriced only at phase
   switches — so an iteration costs one O(m·n) pivot, not O(m·n) pricing
   plus a pivot. Variable bounds never occupy a row: they are enforced by
   the ratio tests, and a bound-to-bound move is an O(m) flip with no pivot
   at all. *)

type var_status = Basic | At_lower | At_upper

type tab = {
  m : int;
  n : int;  (* total columns: structural + slack + artificial *)
  n_struct : int;
  art_start : int;  (* artificial columns occupy [art_start, n) *)
  a : float array array;  (* m rows of n coefficients: B^-1 A *)
  b0 : float array;  (* B^-1 b, updated alongside the rows *)
  xb : float array;  (* current value of the basic variable of each row *)
  basis : int array;
  status : var_status array;  (* length n *)
  lower : float array;  (* length n *)
  upper : float array;
  z : float array;  (* reduced costs of [cost] under the current basis *)
  cost : float array;  (* phase-dependent cost vector *)
  pivots : int ref;
      (* owned by the caller ({!State}), so the count survives cold
         rebuilds; the process-global [lp.pivots] counter cannot serve as
         a work budget because concurrent domains pollute its deltas *)
}

let nb_val t j = if t.status.(j) = At_upper then t.upper.(j) else t.lower.(j)

let pivot t ~row ~col =
  incr t.pivots;
  let arow = t.a.(row) in
  let inv = 1.0 /. arow.(col) in
  for j = 0 to t.n - 1 do
    arow.(j) <- arow.(j) *. inv
  done;
  arow.(col) <- 1.0;
  t.b0.(row) <- t.b0.(row) *. inv;
  for i = 0 to t.m - 1 do
    if i <> row then begin
      let f = t.a.(i).(col) in
      if f <> 0.0 then begin
        let ai = t.a.(i) in
        for j = 0 to t.n - 1 do
          ai.(j) <- ai.(j) -. (f *. arow.(j))
        done;
        ai.(col) <- 0.0;
        t.b0.(i) <- t.b0.(i) -. (f *. t.b0.(row))
      end
    end
  done;
  let f = t.z.(col) in
  if f <> 0.0 then begin
    for j = 0 to t.n - 1 do
      t.z.(j) <- t.z.(j) -. (f *. arow.(j))
    done;
    t.z.(col) <- 0.0
  end;
  t.basis.(row) <- col

(* Recompute [z] from [cost] under the current basis: one O(m·n) pricing,
   used only when the cost vector changes (phase switch), never per pivot. *)
let reprice t =
  Array.blit t.cost 0 t.z 0 t.n;
  for r = 0 to t.m - 1 do
    let cb = t.cost.(t.basis.(r)) in
    if cb <> 0.0 then begin
      let ar = t.a.(r) in
      for j = 0 to t.n - 1 do
        t.z.(j) <- t.z.(j) -. (cb *. ar.(j))
      done
    end
  done;
  for r = 0 to t.m - 1 do
    t.z.(t.basis.(r)) <- 0.0
  done

(* Basic values from B^-1 b minus the nonbasic columns at nonzero bounds. *)
let refresh_xb t =
  Array.blit t.b0 0 t.xb 0 t.m;
  for j = 0 to t.n - 1 do
    if t.status.(j) <> Basic then begin
      let v = nb_val t j in
      if v <> 0.0 then
        for i = 0 to t.m - 1 do
          t.xb.(i) <- t.xb.(i) -. (t.a.(i).(j) *. v)
        done
    end
  done

let max_iter_of t = 20_000 + (200 * (t.m + t.n))

(* Bounded-variable primal simplex minimizing [t.cost] (whose reduced costs
   are current in [t.z]). Dantzig pricing with Bland's rule after a stall. *)
let primal ?phase1:(_ = false) t =
  let max_iter = max_iter_of t in
  let rec loop iter =
    if iter >= max_iter then begin
      `Iter_limit
    end
    else begin
      let bland = iter > max_iter / 2 in
      let enter = ref (-1) in
      let best = ref eps in
      (try
         for j = 0 to t.n - 1 do
           if t.status.(j) <> Basic && t.upper.(j) -. t.lower.(j) > eps then begin
             let viol =
               match t.status.(j) with
               | At_lower -> -.t.z.(j)
               | At_upper -> t.z.(j)
               | Basic -> 0.0
             in
             if viol > eps then
               if bland then begin
                 enter := j;
                 raise Exit
               end
               else if viol > !best then begin
                 best := viol;
                 enter := j
               end
           end
         done
       with Exit -> ());
      if !enter < 0 then `Optimal
      else begin
        let q = !enter in
        let d = if t.status.(q) = At_upper then -1.0 else 1.0 in
        (* Ratio test: row limits plus the entering variable's own opposite
           bound (a bound flip needs no pivot). *)
        let t_flip = t.upper.(q) -. t.lower.(q) in
        let leave = ref (-1) in
        let leave_to = ref At_lower in
        let best_t = ref t_flip in
        for i = 0 to t.m - 1 do
          let alpha = t.a.(i).(q) *. d in
          if alpha > eps then begin
            let bi = t.basis.(i) in
            let slack = t.xb.(i) -. t.lower.(bi) in
            let ratio = (if slack < 0.0 then 0.0 else slack) /. alpha in
            if
              ratio < !best_t -. eps
              || (ratio < !best_t +. eps && !leave >= 0 && bi < t.basis.(!leave))
            then begin
              best_t := ratio;
              leave := i;
              leave_to := At_lower
            end
          end
          else if alpha < -.eps then begin
            let bi = t.basis.(i) in
            if t.upper.(bi) < infinity then begin
              let slack = t.upper.(bi) -. t.xb.(i) in
              let ratio = (if slack < 0.0 then 0.0 else slack) /. -.alpha in
              if
                ratio < !best_t -. eps
                || (ratio < !best_t +. eps
                   && !leave >= 0 && bi < t.basis.(!leave))
              then begin
                best_t := ratio;
                leave := i;
                leave_to := At_upper
              end
            end
          end
        done;
        if !leave < 0 then begin
          if !best_t = infinity then `Unbounded
          else begin
            (* Bound flip: q crosses to its other bound, basics shift, no
               pivot. *)
            for i = 0 to t.m - 1 do
              let alpha = t.a.(i).(q) *. d in
              if alpha <> 0.0 then t.xb.(i) <- t.xb.(i) -. (alpha *. t_flip)
            done;
            t.status.(q) <-
              (if t.status.(q) = At_lower then At_upper else At_lower);
            loop (iter + 1)
          end
        end
        else begin
          let r = !leave in
          let step = !best_t in
          for i = 0 to t.m - 1 do
            if i <> r then begin
              let alpha = t.a.(i).(q) *. d in
              if alpha <> 0.0 then t.xb.(i) <- t.xb.(i) -. (alpha *. step)
            end
          done;
          let entering_val = nb_val t q +. (d *. step) in
          t.status.(t.basis.(r)) <- !leave_to;
          pivot t ~row:r ~col:q;
          t.status.(q) <- Basic;
          t.xb.(r) <- entering_val;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0

(* Bounded-variable dual simplex: from a dual-feasible [z], pivot the most
   bound-violating basic variable to the bound it violates; the entering
   column is chosen by the dual ratio test min |z_j / a_rj| over columns
   whose movement repairs the violation, which preserves dual feasibility.
   This is the warm-start workhorse: after a column-bound change the basis
   stays dual feasible and typically needs only a few pivots. *)
let dual t =
  let max_iter = max_iter_of t in
  let rec loop iter =
    if iter >= max_iter then begin
      `Iter_limit
    end
    else begin
      let r = ref (-1) in
      let viol = ref eps in
      let below = ref false in
      for i = 0 to t.m - 1 do
        let bi = t.basis.(i) in
        if t.xb.(i) < t.lower.(bi) -. !viol then begin
          viol := t.lower.(bi) -. t.xb.(i);
          r := i;
          below := true
        end
        else if t.xb.(i) > t.upper.(bi) +. !viol then begin
          viol := t.xb.(i) -. t.upper.(bi);
          r := i;
          below := false
        end
      done;
      if !r < 0 then `Optimal
      else begin
        let row = !r in
        let ar = t.a.(row) in
        let q = ref (-1) in
        let best = ref infinity in
        for j = 0 to t.n - 1 do
          if t.status.(j) <> Basic && t.upper.(j) -. t.lower.(j) > eps then begin
            let arj = ar.(j) in
            let eligible =
              if !below then
                if t.status.(j) = At_lower then arj < -.eps else arj > eps
              else if t.status.(j) = At_lower then arj > eps
              else arj < -.eps
            in
            if eligible then begin
              let ratio = Float.abs (t.z.(j) /. arj) in
              if
                ratio < !best -. eps
                || (ratio < !best +. eps && !q >= 0 && j < !q)
              then begin
                best := ratio;
                q := j
              end
            end
          end
        done;
        if !q < 0 then `Infeasible
        else begin
          let qq = !q in
          let d = if t.status.(qq) = At_upper then -1.0 else 1.0 in
          let p = t.basis.(row) in
          let target = if !below then t.lower.(p) else t.upper.(p) in
          let step = (target -. t.xb.(row)) /. -.(ar.(qq) *. d) in
          let step = if step < 0.0 then 0.0 else step in
          for i = 0 to t.m - 1 do
            if i <> row then begin
              let alpha = t.a.(i).(qq) *. d in
              if alpha <> 0.0 then t.xb.(i) <- t.xb.(i) -. (alpha *. step)
            end
          done;
          let entering_val = nb_val t qq +. (d *. step) in
          t.status.(p) <- (if !below then At_lower else At_upper);
          pivot t ~row ~col:qq;
          t.status.(qq) <- Basic;
          t.xb.(row) <- entering_val;
          loop (iter + 1)
        end
      end
    end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Cold build: one slack per inequality row; an artificial only where the
   all-structurals-at-lower-bound start leaves the row without an in-range
   basic slack. *)

let build problem ~lb ~ub ~pivots =
  let n_struct = Lp_problem.num_vars problem in
  let rows = Array.of_list (Lp_problem.constraints problem) in
  let m = Array.length rows in
  let residual =
    Array.map
      (fun { Lp_problem.coeffs; relation = _; rhs } ->
        List.fold_left (fun acc (i, c) -> acc -. (c *. lb.(i))) rhs coeffs)
      rows
  in
  let needs_art i =
    match rows.(i).Lp_problem.relation with
    | Lp_problem.Le -> residual.(i) < 0.0
    | Lp_problem.Ge -> residual.(i) > 0.0
    | Lp_problem.Eq -> true
  in
  let n_slack =
    Array.fold_left
      (fun acc r ->
        match r.Lp_problem.relation with
        | Lp_problem.Le | Lp_problem.Ge -> acc + 1
        | Lp_problem.Eq -> acc)
      0 rows
  in
  let n_art = ref 0 in
  for i = 0 to m - 1 do
    if needs_art i then incr n_art
  done;
  let art_start = n_struct + n_slack in
  let n = art_start + !n_art in
  let t =
    {
      m;
      n;
      n_struct;
      art_start;
      a = Array.init m (fun _ -> Array.make n 0.0);
      b0 = Array.make m 0.0;
      xb = Array.make m 0.0;
      basis = Array.make m (-1);
      status = Array.make n At_lower;
      lower = Array.make n 0.0;
      upper = Array.make n infinity;
      z = Array.make n 0.0;
      cost = Array.make n 0.0;
      pivots;
    }
  in
  Array.blit lb 0 t.lower 0 n_struct;
  Array.blit ub 0 t.upper 0 n_struct;
  let slack_idx = ref n_struct in
  let art_idx = ref art_start in
  Array.iteri
    (fun i { Lp_problem.coeffs; relation; rhs } ->
      (* The row's basic variable (slack or artificial) must form a unit
         column, so rows whose natural basic coefficient would be -1 are
         negated wholesale. *)
      let flip =
        match relation with
        | Lp_problem.Le -> residual.(i) < 0.0
        | Lp_problem.Ge -> residual.(i) <= 0.0
        | Lp_problem.Eq -> residual.(i) < 0.0
      in
      let s = if flip then -1.0 else 1.0 in
      List.iter (fun (j, c) -> t.a.(i).(j) <- t.a.(i).(j) +. (s *. c)) coeffs;
      t.b0.(i) <- s *. rhs;
      (match relation with
      | Lp_problem.Le ->
          t.a.(i).(!slack_idx) <- s;
          if residual.(i) >= 0.0 then t.basis.(i) <- !slack_idx;
          incr slack_idx
      | Lp_problem.Ge ->
          t.a.(i).(!slack_idx) <- -.s;
          if residual.(i) <= 0.0 then t.basis.(i) <- !slack_idx;
          incr slack_idx
      | Lp_problem.Eq -> ());
      if needs_art i then begin
        t.a.(i).(!art_idx) <- 1.0;
        t.basis.(i) <- !art_idx;
        incr art_idx
      end)
    rows;
  for i = 0 to m - 1 do
    t.status.(t.basis.(i)) <- Basic
  done;
  refresh_xb t;
  t

(* Phase-1 objective value: the artificials' total (all nonbasic artificials
   sit at a zero bound). *)
let artificial_mass t =
  let total = ref 0.0 in
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= t.art_start then total := !total +. Float.abs t.xb.(i)
  done;
  !total

(* After a feasible phase 1: pin every artificial to [0,0] so it can never
   re-enter, and drive basic ones out of the basis where a structural/slack
   pivot exists (a fully zero row is redundant; its pinned artificial stays
   basic at 0, which the ratio tests then hold there). *)
let retire_artificials t =
  for r = 0 to t.m - 1 do
    if t.basis.(r) >= t.art_start then begin
      let found = ref false in
      let j = ref 0 in
      while (not !found) && !j < t.art_start do
        if t.status.(!j) <> Basic && Float.abs t.a.(r).(!j) > eps then begin
          let v = nb_val t !j in
          t.status.(t.basis.(r)) <- At_lower;
          pivot t ~row:r ~col:!j;
          t.status.(!j) <- Basic;
          t.xb.(r) <- v;
          found := true
        end;
        incr j
      done
    end
  done;
  for j = t.art_start to t.n - 1 do
    t.lower.(j) <- 0.0;
    t.upper.(j) <- 0.0
  done

(* Extract the structural solution and its true objective under [obj]. *)
let extract t obj =
  let x = Array.make t.n_struct 0.0 in
  for j = 0 to t.n_struct - 1 do
    if t.status.(j) <> Basic then x.(j) <- nb_val t j
  done;
  for r = 0 to t.m - 1 do
    if t.basis.(r) < t.n_struct then x.(t.basis.(r)) <- t.xb.(r)
  done;
  for j = 0 to t.n_struct - 1 do
    if x.(j) < t.lower.(j) then x.(j) <- t.lower.(j)
    else if x.(j) > t.upper.(j) then x.(j) <- t.upper.(j)
  done;
  let objective = ref 0.0 in
  for j = 0 to t.n_struct - 1 do
    objective := !objective +. (obj.(j) *. x.(j))
  done;
  Optimal { objective = !objective; solution = x }

(* Two-phase primal solve of a freshly built tableau. Returns the result
   and whether the final tableau is dual feasible for [obj] (i.e. usable as
   a dual-simplex warm-start point). *)
let cold_solve t obj =
  let feasible =
    if t.art_start = t.n then `Feasible
    else begin
      (* Phase 1: minimize the sum of artificials (each enters with a
         coefficient matching its row's residual sign, so its start value —
         and hence the phase-1 cost — is +1 per unit of infeasibility). *)
      Array.fill t.cost 0 t.n 0.0;
      for j = t.art_start to t.n - 1 do
        t.cost.(j) <- 1.0
      done;
      reprice t;
      match primal ~phase1:true t with
      | `Unbounded | `Optimal ->
          (* Phase 1 is bounded below by 0; `Unbounded cannot happen. *)
          if artificial_mass t > 1e-6 then `Infeasible
          else begin
            retire_artificials t;
            `Feasible
          end
      | `Iter_limit -> `Iter_limit
    end
  in
  match feasible with
  | `Infeasible -> (Infeasible, false)
  | `Iter_limit -> (Iter_limit, false)
  | `Feasible -> (
      Array.fill t.cost 0 t.n 0.0;
      Array.blit obj 0 t.cost 0 t.n_struct;
      reprice t;
      match primal t with
      | `Optimal -> (extract t obj, true)
      | `Unbounded -> (Unbounded, false)
      | `Iter_limit -> (Iter_limit, false))

(* ------------------------------------------------------------------ *)
(* Warm-startable solver state: build once, re-solve under changed column
   bounds with the dual simplex from the last optimal basis. *)

module State = struct
  type t = {
    problem : Lp_problem.t;
    obj : float array;
    orig_lb : float array;
    orig_ub : float array;
    cur_lb : float array;
    cur_ub : float array;
    mutable overridden : int list;
    pivot_count : int ref;  (* cumulative across cold rebuilds *)
    mutable tab : tab option;
    (* [dual_ready]: the tableau's [z] row prices [obj] and is dual
       feasible, so a bound change can be re-solved by [dual] alone. *)
    mutable dual_ready : bool;
  }

  let create problem =
    let b = Lp_problem.bounds problem in
    {
      problem;
      obj = Lp_problem.objective problem;
      orig_lb = Array.map fst b;
      orig_ub = Array.map snd b;
      cur_lb = Array.map fst b;
      cur_ub = Array.map snd b;
      overridden = [];
      pivot_count = ref 0;
      tab = None;
      dual_ready = false;
    }

  let pivots st = !(st.pivot_count)

  let empty_box st =
    let bad = ref false in
    Array.iteri
      (fun j lo -> if lo > st.cur_ub.(j) +. eps then bad := true)
      st.cur_lb;
    !bad

  let cold st =
    if empty_box st then begin
      st.tab <- None;
      st.dual_ready <- false;
      Infeasible
    end
    else begin
      let t =
        build st.problem ~lb:st.cur_lb ~ub:st.cur_ub ~pivots:st.pivot_count
      in
      st.tab <- Some t;
      let result, dual_ready = cold_solve t st.obj in
      st.dual_ready <- dual_ready;
      result
    end

  let solve_root st = cold st

  (* Re-solve with per-variable bound overrides (all other variables reset
     to the problem's own bounds). Warm path: sync the tableau's column
     bounds, refresh basic values, run the dual simplex. Falls back to a
     cold solve when no dual-feasible tableau is available or the dual
     hits its iteration cap. Returns the result and whether the warm path
     produced it. *)
  let resolve st ~bounds =
    (fun () ->
        List.iter
          (fun j ->
            st.cur_lb.(j) <- st.orig_lb.(j);
            st.cur_ub.(j) <- st.orig_ub.(j))
          st.overridden;
        st.overridden <- List.map (fun (j, _, _) -> j) bounds;
        List.iter
          (fun (j, lo, hi) ->
            st.cur_lb.(j) <- lo;
            st.cur_ub.(j) <- hi)
          bounds;
        if empty_box st then (Infeasible, true)
        else
          match st.tab with
          | Some t when st.dual_ready ->
              Array.blit st.cur_lb 0 t.lower 0 t.n_struct;
              Array.blit st.cur_ub 0 t.upper 0 t.n_struct;
              (* Restore dual feasibility by bound flips. While a variable
                 is fixed (lo = hi) the dual simplex never protects its
                 reduced cost, so unfixing it can expose a sign that
                 disagrees with the bound it rests at; moving it to its
                 other (finite) bound makes the sign agree again. A
                 reverted override can likewise leave a variable resting on
                 an upper bound that is now infinite. Only a wrong-signed
                 column with no finite opposite bound defeats the warm
                 start and forces a cold solve. *)
              let still_dual = ref true in
              for j = 0 to t.n - 1 do
                if t.status.(j) <> Basic && t.upper.(j) -. t.lower.(j) > eps
                then begin
                  if t.status.(j) = At_upper && t.upper.(j) = infinity then
                    t.status.(j) <- At_lower;
                  match t.status.(j) with
                  | At_lower when t.z.(j) < -.eps ->
                      if t.upper.(j) < infinity then t.status.(j) <- At_upper
                      else still_dual := false
                  | At_upper when t.z.(j) > eps -> t.status.(j) <- At_lower
                  | At_lower | At_upper | Basic -> ()
                end
              done;
              if not !still_dual then (cold st, false)
              else begin
                refresh_xb t;
                match dual t with
                | `Optimal -> (extract t st.obj, true)
                | `Infeasible -> (Infeasible, true)
                | `Iter_limit ->
                    (* Cold restart with the same bounds. *)
                    (cold st, false)
              end
          | _ -> (cold st, false))
      ()
end

let solve problem = State.solve_root (State.create problem)
