(* Tests for the Rapid_lp solver substrate: simplex on known programs,
   infeasibility/unboundedness detection, column bounds, warm-started
   re-solves, branch-and-bound ILPs, and property tests comparing the
   bounded-variable solver against the seed's dense two-phase simplex
   (kept below as a test-only reference) and the ILP against brute-force
   enumeration on random small integer programs. *)

open Rapid_lp
open Rapid_prelude

let check_close ?(eps = 1e-6) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let solve_expect_optimal p =
  match Simplex.solve p with
  | Simplex.Optimal o -> o
  | Simplex.Infeasible -> Alcotest.fail "unexpected: infeasible"
  | Simplex.Unbounded -> Alcotest.fail "unexpected: unbounded"
  | Simplex.Iter_limit -> Alcotest.fail "unexpected: iteration limit"

(* ------------------------------------------------------------------ *)
(* Reference solver: the seed's dense two-phase simplex, verbatim except
   for the module wrapper. It knows nothing about column bounds, so
   callers express bounds as ordinary rows; disagreements between it and
   the bounded-variable solver on the same program are bugs. *)

module Reference = struct
  type solution = { objective : float; solution : float array }
  type result = Optimal of solution | Infeasible | Unbounded

  let eps = 1e-9

  type tableau = {
    m : int;
    n : int;
    a : float array array;
    b : float array;
    basis : int array;
  }

  let pivot t ~row ~col =
    let arow = t.a.(row) in
    let p = arow.(col) in
    for j = 0 to t.n - 1 do
      arow.(j) <- arow.(j) /. p
    done;
    t.b.(row) <- t.b.(row) /. p;
    for i = 0 to t.m - 1 do
      if i <> row then begin
        let f = t.a.(i).(col) in
        if Float.abs f > 0.0 then begin
          let ai = t.a.(i) in
          for j = 0 to t.n - 1 do
            ai.(j) <- ai.(j) -. (f *. arow.(j))
          done;
          t.b.(i) <- t.b.(i) -. (f *. t.b.(row))
        end
      end
    done;
    t.basis.(row) <- col

  let reduced_costs t cost =
    let z = Array.copy cost in
    let obj = ref 0.0 in
    for r = 0 to t.m - 1 do
      let cb = cost.(t.basis.(r)) in
      if cb <> 0.0 then begin
        obj := !obj +. (cb *. t.b.(r));
        let ar = t.a.(r) in
        for j = 0 to t.n - 1 do
          z.(j) <- z.(j) -. (cb *. ar.(j))
        done
      end
    done;
    (z, !obj)

  let optimize t cost =
    let max_iter = 20_000 + (200 * (t.m + t.n)) in
    let rec loop iter =
      let z, _ = reduced_costs t cost in
      let bland = iter > max_iter / 2 in
      let enter = ref (-1) in
      let best = ref (-.eps) in
      (try
         for j = 0 to t.n - 1 do
           if z.(j) < -.eps then
             if bland then begin
               enter := j;
               raise Exit
             end
             else if z.(j) < !best then begin
               best := z.(j);
               enter := j
             end
         done
       with Exit -> ());
      if !enter < 0 then `Optimal
      else if iter >= max_iter then `Optimal
      else begin
        let col = !enter in
        let leave = ref (-1) in
        let best_ratio = ref infinity in
        for r = 0 to t.m - 1 do
          let arc = t.a.(r).(col) in
          if arc > eps then begin
            let ratio = t.b.(r) /. arc in
            if
              ratio < !best_ratio -. eps
              || (ratio < !best_ratio +. eps
                 && (!leave < 0 || t.basis.(r) < t.basis.(!leave)))
            then begin
              best_ratio := ratio;
              leave := r
            end
          end
        done;
        if !leave < 0 then `Unbounded
        else begin
          pivot t ~row:!leave ~col;
          loop (iter + 1)
        end
      end
    in
    loop 0

  let solve ?(extra = []) problem =
    let n_struct = Lp_problem.num_vars problem in
    let rows = Lp_problem.constraints problem @ extra in
    let m = List.length rows in
    if m = 0 then
      let c = Lp_problem.objective problem in
      if Array.exists (fun x -> x < -.eps) c then Unbounded
      else Optimal { objective = 0.0; solution = Array.make n_struct 0.0 }
    else begin
      let normalized =
        List.map
          (fun { Lp_problem.coeffs; relation; rhs } ->
            if rhs < 0.0 then
              let coeffs = List.map (fun (i, c) -> (i, -.c)) coeffs in
              let relation =
                match relation with
                | Lp_problem.Le -> Lp_problem.Ge
                | Lp_problem.Ge -> Lp_problem.Le
                | Lp_problem.Eq -> Lp_problem.Eq
              in
              (coeffs, relation, -.rhs)
            else (coeffs, relation, rhs))
          rows
      in
      let n_slack =
        List.length
          (List.filter
             (fun (_, r, _) -> r = Lp_problem.Le || r = Lp_problem.Ge)
             normalized)
      in
      let n_art =
        List.length
          (List.filter
             (fun (_, r, _) -> r = Lp_problem.Ge || r = Lp_problem.Eq)
             normalized)
      in
      let n = n_struct + n_slack + n_art in
      let a = Array.init m (fun _ -> Array.make n 0.0) in
      let b = Array.make m 0.0 in
      let basis = Array.make m (-1) in
      let slack_idx = ref n_struct in
      let art_idx = ref (n_struct + n_slack) in
      List.iteri
        (fun r (coeffs, relation, rhs) ->
          List.iter (fun (i, c) -> a.(r).(i) <- a.(r).(i) +. c) coeffs;
          b.(r) <- rhs;
          match relation with
          | Lp_problem.Le ->
              a.(r).(!slack_idx) <- 1.0;
              basis.(r) <- !slack_idx;
              incr slack_idx
          | Lp_problem.Ge ->
              a.(r).(!slack_idx) <- -1.0;
              incr slack_idx;
              a.(r).(!art_idx) <- 1.0;
              basis.(r) <- !art_idx;
              incr art_idx
          | Lp_problem.Eq ->
              a.(r).(!art_idx) <- 1.0;
              basis.(r) <- !art_idx;
              incr art_idx)
        normalized;
      let t = { m; n; a; b; basis } in
      let phase1_needed = n_art > 0 in
      let feasible =
        if not phase1_needed then true
        else begin
          let cost1 = Array.make n 0.0 in
          for j = n_struct + n_slack to n - 1 do
            cost1.(j) <- 1.0
          done;
          match optimize t cost1 with
          | `Unbounded -> false
          | `Optimal ->
              let _, obj = reduced_costs t cost1 in
              if obj > 1e-6 then false
              else begin
                for r = 0 to m - 1 do
                  if t.basis.(r) >= n_struct + n_slack then begin
                    let found = ref false in
                    let j = ref 0 in
                    while (not !found) && !j < n_struct + n_slack do
                      if Float.abs t.a.(r).(!j) > eps then begin
                        pivot t ~row:r ~col:!j;
                        found := true
                      end;
                      incr j
                    done
                  end
                done;
                true
              end
        end
      in
      if not feasible then Infeasible
      else begin
        let cost2 = Array.make n 0.0 in
        let c = Lp_problem.objective problem in
        Array.blit c 0 cost2 0 n_struct;
        for j = n_struct + n_slack to n - 1 do
          cost2.(j) <- 1e12
        done;
        match optimize t cost2 with
        | `Unbounded -> Unbounded
        | `Optimal ->
            let solution = Array.make n_struct 0.0 in
            for r = 0 to m - 1 do
              if t.basis.(r) < n_struct then solution.(t.basis.(r)) <- t.b.(r)
            done;
            let objective =
              Array.to_seqi solution
              |> Seq.fold_left (fun acc (i, x) -> acc +. (c.(i) *. x)) 0.0
            in
            Optimal { objective; solution }
      end
    end
end

(* ------------------------------------------------------------------ *)
(* Simplex *)

let test_simplex_basic_2d () =
  (* max x + y s.t. x + 2y <= 4, 3x + y <= 6  => min -(x+y).
     Optimum at intersection: x = 8/5, y = 6/5, value 14/5. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, -1.0); (1, -1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0); (1, 2.0) ] Lp_problem.Le 4.0;
  Lp_problem.add_constraint p [ (0, 3.0); (1, 1.0) ] Lp_problem.Le 6.0;
  let o = solve_expect_optimal p in
  check_close "objective" (-2.8) o.objective;
  check_close "x" 1.6 o.solution.(0);
  check_close "y" 1.2 o.solution.(1)

let test_simplex_equality () =
  (* min x + y s.t. x + y = 3, x <= 1 => x=1, y=2 is not forced; any point on
     the segment has objective 3. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, 1.0); (1, 1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0); (1, 1.0) ] Lp_problem.Eq 3.0;
  Lp_problem.add_constraint p [ (0, 1.0) ] Lp_problem.Le 1.0;
  let o = solve_expect_optimal p in
  check_close "objective" 3.0 o.objective

let test_simplex_ge_constraints () =
  (* min 2x + 3y s.t. x + y >= 4, x >= 1, y >= 1. Optimum x=3,y=1 -> 9. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, 2.0); (1, 3.0) ];
  Lp_problem.add_constraint p [ (0, 1.0); (1, 1.0) ] Lp_problem.Ge 4.0;
  Lp_problem.add_constraint p [ (0, 1.0) ] Lp_problem.Ge 1.0;
  Lp_problem.add_constraint p [ (1, 1.0) ] Lp_problem.Ge 1.0;
  let o = solve_expect_optimal p in
  check_close "objective" 9.0 o.objective;
  check_close "x" 3.0 o.solution.(0);
  check_close "y" 1.0 o.solution.(1)

let test_simplex_negative_rhs () =
  (* x - y <= -1 (i.e., y >= x + 1), min y => x=0, y=1. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (1, 1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0); (1, -1.0) ] Lp_problem.Le (-1.0);
  let o = solve_expect_optimal p in
  check_close "objective" 1.0 o.objective

let test_simplex_infeasible () =
  let p = Lp_problem.create ~num_vars:1 in
  Lp_problem.set_objective p [ (0, 1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0) ] Lp_problem.Ge 5.0;
  Lp_problem.add_constraint p [ (0, 1.0) ] Lp_problem.Le 3.0;
  match Simplex.solve p with
  | Simplex.Infeasible -> ()
  | Simplex.Optimal _ -> Alcotest.fail "expected infeasible, got optimal"
  | Simplex.Unbounded -> Alcotest.fail "expected infeasible, got unbounded"
  | Simplex.Iter_limit -> Alcotest.fail "expected infeasible, got iter limit"

let test_simplex_unbounded () =
  (* min -x s.t. x >= 1: unbounded below. *)
  let p = Lp_problem.create ~num_vars:1 in
  Lp_problem.set_objective p [ (0, -1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0) ] Lp_problem.Ge 1.0;
  match Simplex.solve p with
  | Simplex.Unbounded -> ()
  | Simplex.Optimal _ -> Alcotest.fail "expected unbounded, got optimal"
  | Simplex.Infeasible -> Alcotest.fail "expected unbounded, got infeasible"
  | Simplex.Iter_limit -> Alcotest.fail "expected unbounded, got iter limit"

let test_simplex_degenerate () =
  (* A classic degenerate program; must terminate and find the optimum.
     min -0.75x1 + 150x2 - 0.02x3 + 6x4 (Beale's cycling example). *)
  let p = Lp_problem.create ~num_vars:4 in
  Lp_problem.set_objective p [ (0, -0.75); (1, 150.0); (2, -0.02); (3, 6.0) ];
  Lp_problem.add_constraint p
    [ (0, 0.25); (1, -60.0); (2, -0.04); (3, 9.0) ]
    Lp_problem.Le 0.0;
  Lp_problem.add_constraint p
    [ (0, 0.5); (1, -90.0); (2, -0.02); (3, 3.0) ]
    Lp_problem.Le 0.0;
  Lp_problem.add_constraint p [ (2, 1.0) ] Lp_problem.Le 1.0;
  let o = solve_expect_optimal p in
  check_close ~eps:1e-6 "beale optimum" (-0.05) o.objective

let test_simplex_upper_bounds_no_rows () =
  (* Column bounds alone, zero constraint rows: min -x - 2y with
     x <= 4, y <= 1.5 is solved entirely by bound flips. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, -1.0); (1, -2.0) ];
  Lp_problem.set_upper p 0 4.0;
  Lp_problem.set_upper p 1 1.5;
  let o = solve_expect_optimal p in
  check_close "objective" (-7.0) o.objective;
  check_close "x" 4.0 o.solution.(0);
  check_close "y" 1.5 o.solution.(1)

let test_simplex_bounds_vs_rows () =
  (* The same program with x <= 1 expressed as a column bound and as a
     row must agree. max x + y s.t. x + y <= 1.5, x, y in [0, 1]. *)
  let bounded = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective bounded [ (0, -1.0); (1, -1.0) ];
  Lp_problem.add_constraint bounded [ (0, 1.0); (1, 1.0) ] Lp_problem.Le 1.5;
  Lp_problem.set_upper bounded 0 1.0;
  Lp_problem.set_upper bounded 1 1.0;
  let o = solve_expect_optimal bounded in
  check_close "objective" (-1.5) o.objective;
  (* Lower bounds likewise: min x + y s.t. x + y >= 3 with x >= 2. *)
  let lower = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective lower [ (0, 1.0); (1, 1.0) ];
  Lp_problem.add_constraint lower [ (0, 1.0); (1, 1.0) ] Lp_problem.Ge 3.0;
  Lp_problem.set_lower lower 0 2.0;
  let o = solve_expect_optimal lower in
  check_close "objective with lower bound" 3.0 o.objective;
  if o.solution.(0) < 2.0 -. 1e-9 then Alcotest.fail "lower bound violated"

let test_simplex_feasibility_of_solution () =
  (* The returned point must satisfy every constraint and every bound. *)
  let p = Lp_problem.create ~num_vars:3 in
  Lp_problem.set_objective p [ (0, 1.0); (1, 2.0); (2, -1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0); (1, 1.0); (2, 1.0) ] Lp_problem.Le 7.0;
  Lp_problem.add_constraint p [ (0, 2.0); (2, 1.0) ] Lp_problem.Ge 2.0;
  Lp_problem.add_constraint p [ (1, 1.0); (2, -1.0) ] Lp_problem.Eq 1.0;
  Lp_problem.set_upper p 2 2.5;
  let o = solve_expect_optimal p in
  let dot coeffs = List.fold_left (fun acc (i, c) -> acc +. (c *. o.solution.(i))) 0.0 coeffs in
  List.iter
    (fun { Lp_problem.coeffs; relation; rhs } ->
      let v = dot coeffs in
      match relation with
      | Lp_problem.Le -> if v > rhs +. 1e-6 then Alcotest.fail "Le violated"
      | Lp_problem.Ge -> if v < rhs -. 1e-6 then Alcotest.fail "Ge violated"
      | Lp_problem.Eq ->
          if Float.abs (v -. rhs) > 1e-6 then Alcotest.fail "Eq violated")
    (Lp_problem.constraints p);
  Array.iteri
    (fun i x ->
      let lo, hi = (Lp_problem.bounds p).(i) in
      if x < lo -. 1e-9 || x > hi +. 1e-9 then
        Alcotest.fail "column bound violated")
    o.solution

let test_state_warm_resolve () =
  (* Warm-started re-solves under changed column bounds: the branch-and-
     bound hot path, exercised directly. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, -1.0); (1, -1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0); (1, 1.0) ] Lp_problem.Le 3.0;
  Lp_problem.set_upper p 0 2.0;
  Lp_problem.set_upper p 1 2.0;
  let st = Simplex.State.create p in
  (match Simplex.State.solve_root st with
  | Simplex.Optimal o -> check_close "root" (-3.0) o.objective
  | _ -> Alcotest.fail "root not optimal");
  (* Force x = 0: optimum becomes y = 2. *)
  (match Simplex.State.resolve st ~bounds:[ (0, 0.0, 0.0) ] with
  | Simplex.Optimal o, warm ->
      check_close "x fixed to 0" (-2.0) o.objective;
      check_close "x" 0.0 o.solution.(0);
      Alcotest.(check bool) "warm path" true warm
  | _ -> Alcotest.fail "resolve not optimal");
  (* Force x >= 1 instead (override replaces, not stacks). *)
  (match Simplex.State.resolve st ~bounds:[ (0, 1.0, 2.0) ] with
  | Simplex.Optimal o, _ ->
      check_close "x >= 1" (-3.0) o.objective;
      if o.solution.(0) < 1.0 -. 1e-9 then Alcotest.fail "x below 1"
  | _ -> Alcotest.fail "resolve not optimal");
  (* Empty box: immediate infeasible. *)
  (match Simplex.State.resolve st ~bounds:[ (1, 2.0, 1.0) ] with
  | Simplex.Infeasible, _ -> ()
  | _ -> Alcotest.fail "empty box not infeasible");
  (* An override that widens the problem's own box is refused, and the
     state is left as it was. *)
  Alcotest.check_raises "override outside the box"
    (Invalid_argument "Simplex.State.resolve: override outside the box")
    (fun () -> ignore (Simplex.State.resolve st ~bounds:[ (0, 0.0, 5.0) ]));
  (* No overrides: back to the root optimum. *)
  match Simplex.State.resolve st ~bounds:[] with
  | Simplex.Optimal o, _ -> check_close "reverted" (-3.0) o.objective
  | _ -> Alcotest.fail "revert not optimal"

(* ------------------------------------------------------------------ *)
(* ILP *)

let solve_ilp_expect p =
  match Ilp.solve p with
  | Ilp.Solved o -> o
  | Ilp.Infeasible -> Alcotest.fail "ilp: unexpected infeasible"
  | Ilp.Unbounded -> Alcotest.fail "ilp: unexpected unbounded"
  | Ilp.No_incumbent -> Alcotest.fail "ilp: no incumbent"

let test_ilp_knapsack () =
  (* max 8a + 11b + 6c + 4d, weights 5,7,4,3 <= 14, binary.
     Known optimum: b + c + d? 11+6+4=21, weight 14. a+b? 19 w12. a+c+d=18 w12.
     Optimal = 21. Minimize the negative. *)
  let p = Lp_problem.create ~num_vars:4 in
  Lp_problem.set_objective p [ (0, -8.0); (1, -11.0); (2, -6.0); (3, -4.0) ];
  Lp_problem.add_constraint p
    [ (0, 5.0); (1, 7.0); (2, 4.0); (3, 3.0) ]
    Lp_problem.Le 14.0;
  for v = 0 to 3 do
    Lp_problem.set_upper p v 1.0;
    Lp_problem.mark_integer p v
  done;
  let o = solve_ilp_expect p in
  check_close "knapsack optimum" (-21.0) o.objective;
  Alcotest.(check bool) "proven" true o.proven_optimal;
  Array.iter
    (fun x ->
      if Float.abs (x -. Float.round x) > 1e-6 then
        Alcotest.fail "non-integral ILP solution")
    o.solution

let test_ilp_rounding_matters () =
  (* LP relaxation optimum is fractional; ILP must find the integral one.
     max x + y s.t. 2x + 2y <= 3, x,y binary -> LP gives 1.5, ILP gives 1. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, -1.0); (1, -1.0) ];
  Lp_problem.add_constraint p [ (0, 2.0); (1, 2.0) ] Lp_problem.Le 3.0;
  for v = 0 to 1 do
    Lp_problem.set_upper p v 1.0;
    Lp_problem.mark_integer p v
  done;
  let o = solve_ilp_expect p in
  check_close "ilp optimum" (-1.0) o.objective

let test_ilp_integral_relaxation_short_circuits () =
  (* When the relaxation is already integral, one node suffices. *)
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, 1.0); (1, 1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0) ] Lp_problem.Ge 2.0;
  Lp_problem.add_constraint p [ (1, 1.0) ] Lp_problem.Ge 3.0;
  Lp_problem.mark_integer p 0;
  Lp_problem.mark_integer p 1;
  let o = solve_ilp_expect p in
  check_close "objective" 5.0 o.objective;
  Alcotest.(check int) "single node" 1 o.nodes_explored

let test_ilp_infeasible () =
  let p = Lp_problem.create ~num_vars:1 in
  Lp_problem.set_objective p [ (0, 1.0) ];
  Lp_problem.add_constraint p [ (0, 2.0) ] Lp_problem.Eq 1.0;
  (* x = 0.5 is the only solution; integrality makes it infeasible. *)
  Lp_problem.mark_integer p 0;
  match Ilp.solve p with
  | Ilp.Infeasible -> ()
  | Ilp.Solved o -> Alcotest.failf "expected infeasible, got %g" o.objective
  | Ilp.Unbounded -> Alcotest.fail "expected infeasible, got unbounded"
  | Ilp.No_incumbent -> Alcotest.fail "expected infeasible, got no-incumbent"

let test_ilp_warm_starts_counted () =
  (* A fractional relaxation forces branching; the shared Simplex.State
     must serve (almost) every child node from the warm dual path. *)
  let nodes0 = Rapid_obs.Counter.value (Rapid_obs.Counter.create "ilp.nodes") in
  let warm0 =
    Rapid_obs.Counter.value (Rapid_obs.Counter.create "ilp.warm_starts")
  in
  let p = Lp_problem.create ~num_vars:3 in
  Lp_problem.set_objective p [ (0, -3.0); (1, -2.0); (2, -2.0) ];
  Lp_problem.add_constraint p
    [ (0, 2.0); (1, 2.0); (2, 2.0) ]
    Lp_problem.Le 3.0;
  for v = 0 to 2 do
    Lp_problem.set_upper p v 1.0;
    Lp_problem.mark_integer p v
  done;
  let o = solve_ilp_expect p in
  check_close "objective" (-3.0) o.objective;
  let nodes =
    Rapid_obs.Counter.value (Rapid_obs.Counter.create "ilp.nodes") - nodes0
  in
  let warm =
    Rapid_obs.Counter.value (Rapid_obs.Counter.create "ilp.warm_starts")
    - warm0
  in
  if nodes < 2 then Alcotest.failf "expected branching, got %d nodes" nodes;
  if warm < nodes - 1 then
    Alcotest.failf "expected >= %d warm starts, got %d" (nodes - 1) warm

(* The certificate that Ilp.solve runs before it reports a proven optimum
   rejects each kind of violation on its own. Row x0 - x1 <= 0.5, boxes
   [0, 1], both columns integral, objective -x0 - x1. *)
let test_ilp_certificate () =
  let p = Lp_problem.create ~num_vars:2 in
  Lp_problem.set_objective p [ (0, -1.0); (1, -1.0) ];
  Lp_problem.add_constraint p [ (0, 1.0); (1, -1.0) ] Lp_problem.Le 0.5;
  for v = 0 to 1 do
    Lp_problem.set_upper p v 1.0;
    Lp_problem.mark_integer p v
  done;
  let check what want ~objective x =
    Alcotest.(check bool) what want (Lp_problem.certify p ~objective x)
  in
  check "feasible integral point" true ~objective:(-2.0) [| 1.0; 1.0 |];
  check "row violated" false ~objective:(-1.0) [| 1.0; 0.0 |];
  check "box violated" false ~objective:(-4.0) [| 2.0; 2.0 |];
  check "fractional" false ~objective:(-1.0) [| 0.5; 0.5 |];
  check "objective misreported" false ~objective:(-1.9) [| 1.0; 1.0 |];
  check "NaN" false ~objective:(-1.0) [| nan; 1.0 |]

(* Every setter rejects non-finite input, with a message naming the
   argument, and leaves the problem as it was. *)
let expect_invalid ~naming f =
  match f () with
  | () -> Alcotest.failf "accepted a bad %s" naming
  | exception Invalid_argument msg ->
      if not (Astring.String.is_infix ~affix:naming msg) then
        Alcotest.failf "message %S does not name the %s" msg naming

let test_objective_rejects_non_finite () =
  let p = Lp_problem.create ~num_vars:2 in
  List.iter
    (fun c ->
      expect_invalid ~naming:"coefficient" (fun () ->
          Lp_problem.set_objective p [ (0, 1.0); (1, c) ]))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check (array (float 0.0)))
    "objective untouched" [| 0.0; 0.0 |] (Lp_problem.objective p)

let test_row_rejects_non_finite () =
  let p = Lp_problem.create ~num_vars:2 in
  List.iter
    (fun v ->
      expect_invalid ~naming:"coefficient" (fun () ->
          Lp_problem.add_constraint p [ (0, 1.0); (1, v) ] Lp_problem.Le 1.0);
      expect_invalid ~naming:"rhs" (fun () ->
          Lp_problem.add_constraint p [ (0, 1.0) ] Lp_problem.Ge v))
    [ nan; infinity; neg_infinity ];
  Alcotest.(check int) "no row added" 0
    (List.length (Lp_problem.constraints p))

let test_lower_rejects_non_finite () =
  let p = Lp_problem.create ~num_vars:1 in
  List.iter
    (fun l ->
      expect_invalid ~naming:"lower bound" (fun () ->
          Lp_problem.set_lower p 0 l))
    [ nan; infinity; neg_infinity; -1.0 ];
  Lp_problem.set_lower p 0 0.5;
  Alcotest.(check (float 0.0))
    "finite bound kept" 0.5
    (fst (Lp_problem.bounds p).(0))

let test_upper_rejects_nan () =
  let p = Lp_problem.create ~num_vars:1 in
  List.iter
    (fun u ->
      expect_invalid ~naming:"upper bound" (fun () ->
          Lp_problem.set_upper p 0 u))
    [ nan; neg_infinity; -1.0 ];
  Lp_problem.set_upper p 0 2.0;
  Lp_problem.set_upper p 0 infinity;
  Alcotest.(check (float 0.0))
    "+inf accepted" infinity
    (snd (Lp_problem.bounds p).(0))

(* ------------------------------------------------------------------ *)
(* Properties. *)

(* Flat rows as a list, one entry per term. *)
let constrs_of (r : Lp_problem.rows) =
  List.init r.count (fun i ->
      let s = r.start.(i) in
      {
        Lp_problem.coeffs =
          List.init (r.start.(i + 1) - s) (fun k ->
              (r.col.(s + k), r.coef.(s + k)));
        relation = r.rel.(i);
        rhs = r.rhs.(i);
      })

(* The row store hands back exactly what was added: coefficients in the
   order given, repeats and zeros included, through any growth of its
   arrays; a [rows] view taken midway never sees later rows. Repeated
   integrality marks collapse to distinct columns in first-mark order. *)
let prop_row_store_verbatim =
  let gen = QCheck.Gen.int_range 0 100_000 in
  QCheck.Test.make ~name:"row store keeps rows and marks verbatim" ~count:200
    (QCheck.make gen) (fun seed ->
      let rng = Rng.create seed in
      let num_vars = 1 + Rng.int rng 8 in
      let p = Lp_problem.create ~num_vars in
      let random_row () =
        {
          Lp_problem.coeffs =
            List.init (Rng.int rng 8) (fun _ ->
                ( Rng.int rng num_vars,
                  if Rng.bool rng then 0.0 else Rng.uniform rng (-5.0) 5.0 ));
          relation =
            (match Rng.int rng 3 with
            | 0 -> Lp_problem.Le
            | 1 -> Lp_problem.Eq
            | _ -> Lp_problem.Ge);
          rhs = Rng.uniform rng (-5.0) 5.0;
        }
      in
      let add (c : Lp_problem.constr) =
        Lp_problem.add_constraint p c.coeffs c.relation c.rhs
      in
      let first = List.init (Rng.int rng 30) (fun _ -> random_row ()) in
      List.iter add first;
      let view = Lp_problem.rows p in
      let later = List.init (Rng.int rng 30) (fun _ -> random_row ()) in
      List.iter add later;
      let marks = List.init (Rng.int rng 20) (fun _ -> Rng.int rng num_vars) in
      List.iter (Lp_problem.mark_integer p) marks;
      let first_marks =
        List.fold_left
          (fun acc v -> if List.mem v acc then acc else acc @ [ v ])
          [] marks
      in
      Lp_problem.constraints p = first @ later
      && constrs_of view = first
      && Lp_problem.integer_vars p = first_marks)

(* Random LP with column bounds; the same program with bounds spelled as
   rows, fed to the seed's dense solver, must agree on the verdict and
   (when optimal) the objective. *)
let prop_bounded_simplex_matches_reference =
  let gen = QCheck.Gen.int_range 0 100_000 in
  QCheck.Test.make ~name:"bounded simplex matches seed dense solver"
    ~count:300 (QCheck.make gen) (fun seed ->
      let rng = Rng.create seed in
      let num_vars = 2 + Rng.int rng 5 in
      let num_rows = 1 + Rng.int rng 4 in
      let rows =
        List.init num_rows (fun _ ->
            let coeffs =
              List.init num_vars (fun i -> (i, Rng.uniform rng (-3.0) 3.0))
              |> List.filter (fun _ -> Rng.float rng < 0.8)
            in
            let relation =
              match Rng.int rng 4 with
              | 0 -> Lp_problem.Ge
              | 1 -> Lp_problem.Eq
              | _ -> Lp_problem.Le
            in
            (coeffs, relation, Rng.uniform rng (-2.0) 6.0))
      in
      let bnds =
        Array.init num_vars (fun _ ->
            let lo =
              if Rng.float rng < 0.3 then Rng.uniform rng 0.0 1.0 else 0.0
            in
            let hi =
              if Rng.float rng < 0.6 then lo +. Rng.uniform rng 0.0 3.0
              else infinity
            in
            (lo, hi))
      in
      let obj =
        List.init num_vars (fun i -> (i, Rng.uniform rng (-4.0) 4.0))
      in
      let bounded = Lp_problem.create ~num_vars in
      Lp_problem.set_objective bounded obj;
      List.iter
        (fun (coeffs, rel, rhs) ->
          Lp_problem.add_constraint bounded coeffs rel rhs)
        rows;
      Array.iteri
        (fun i (lo, hi) ->
          Lp_problem.set_lower bounded i lo;
          if hi < infinity then Lp_problem.set_upper bounded i hi)
        bnds;
      let as_rows = Lp_problem.create ~num_vars in
      Lp_problem.set_objective as_rows obj;
      List.iter
        (fun (coeffs, rel, rhs) ->
          Lp_problem.add_constraint as_rows coeffs rel rhs)
        rows;
      Array.iteri
        (fun i (lo, hi) ->
          if lo > 0.0 then
            Lp_problem.add_constraint as_rows [ (i, 1.0) ] Lp_problem.Ge lo;
          if hi < infinity then
            Lp_problem.add_constraint as_rows [ (i, 1.0) ] Lp_problem.Le hi)
        bnds;
      match (Simplex.solve bounded, Reference.solve as_rows) with
      | Simplex.Optimal a, Reference.Optimal b ->
          Float.abs (a.objective -. b.objective) < 1e-5
      | Simplex.Infeasible, Reference.Infeasible -> true
      | Simplex.Unbounded, Reference.Unbounded -> true
      | _ -> false)

(* Warm-started resolves must agree with cold solves of a problem that
   has the overridden bounds baked in from the start. *)
let prop_warm_resolve_matches_cold =
  let gen = QCheck.Gen.int_range 0 100_000 in
  QCheck.Test.make ~name:"warm resolve matches cold solve" ~count:200
    (QCheck.make gen) (fun seed ->
      let rng = Rng.create seed in
      let num_vars = 2 + Rng.int rng 5 in
      let rows =
        List.init
          (1 + Rng.int rng 3)
          (fun _ ->
            let coeffs =
              List.init num_vars (fun i -> (i, Rng.uniform rng (-2.0) 3.0))
            in
            let relation =
              if Rng.float rng < 0.75 then Lp_problem.Le else Lp_problem.Ge
            in
            (coeffs, relation, Rng.uniform rng 0.0 6.0))
      in
      let obj =
        List.init num_vars (fun i -> (i, Rng.uniform rng (-4.0) 4.0))
      in
      let ub = Array.init num_vars (fun _ -> Rng.uniform rng 0.5 4.0) in
      let make () =
        let p = Lp_problem.create ~num_vars in
        Lp_problem.set_objective p obj;
        List.iter
          (fun (coeffs, rel, rhs) -> Lp_problem.add_constraint p coeffs rel rhs)
          rows;
        Array.iteri (fun i u -> Lp_problem.set_upper p i u) ub;
        p
      in
      let st = Simplex.State.create (make ()) in
      (match Simplex.State.solve_root st with
      | Simplex.Optimal _ | Simplex.Infeasible | Simplex.Unbounded
      | Simplex.Iter_limit ->
          ());
      let ok = ref true in
      for _ = 1 to 3 do
        (* Random branch-like overrides on a few variables. *)
        let overrides =
          List.init num_vars (fun i ->
              let lo = Float.of_int (Rng.int rng 2) in
              let hi = Float.min ub.(i) (lo +. Float.of_int (Rng.int rng 2)) in
              (i, Float.min lo hi, hi))
          |> List.filter (fun _ -> Rng.float rng < 0.4)
        in
        let warm, _ = Simplex.State.resolve st ~bounds:overrides in
        let fresh = make () in
        List.iter
          (fun (i, lo, hi) ->
            Lp_problem.set_lower fresh i lo;
            Lp_problem.set_upper fresh i hi)
          overrides;
        let cold = Simplex.solve fresh in
        (match (warm, cold) with
        | Simplex.Optimal a, Simplex.Optimal b ->
            if Float.abs (a.objective -. b.objective) > 1e-5 then ok := false
        | Simplex.Infeasible, Simplex.Infeasible -> ()
        | Simplex.Unbounded, Simplex.Unbounded -> ()
        | _ -> ok := false)
      done;
      !ok)

let brute_force_binary ~num_vars ~obj ~rows =
  (* Minimize over all 2^num_vars assignments; None when infeasible. *)
  let best = ref None in
  for mask = 0 to (1 lsl num_vars) - 1 do
    let x = Array.init num_vars (fun i -> if mask land (1 lsl i) <> 0 then 1.0 else 0.0) in
    let ok =
      List.for_all
        (fun (coeffs, rhs) ->
          let v = List.fold_left (fun acc (i, c) -> acc +. (c *. x.(i))) 0.0 coeffs in
          v <= rhs +. 1e-9)
        rows
    in
    if ok then begin
      let value = Array.to_seqi x |> Seq.fold_left (fun acc (i, xi) -> acc +. (obj.(i) *. xi)) 0.0 in
      match !best with
      | Some b when b <= value -> ()
      | _ -> best := Some value
    end
  done;
  !best

let prop_ilp_matches_brute_force =
  let gen =
    QCheck.Gen.(
      let* num_vars = int_range 2 12 in
      let* num_rows = int_range 1 4 in
      let* obj = array_size (return num_vars) (float_range (-5.0) 5.0) in
      let* rows =
        list_size (return num_rows)
          (let* coeffs =
             array_size (return num_vars) (float_range (-3.0) 3.0)
           in
           let* rhs = float_range 0.0 6.0 in
           return (coeffs, rhs))
      in
      return (num_vars, obj, rows))
  in
  QCheck.Test.make ~name:"ilp matches brute force (binary programs)" ~count:80
    (QCheck.make gen)
    (fun (num_vars, obj, rows) ->
      let rows = List.map (fun (c, r) -> (Array.to_list (Array.mapi (fun i x -> (i, x)) c), r)) rows in
      let p = Lp_problem.create ~num_vars in
      Lp_problem.set_objective p (Array.to_list (Array.mapi (fun i c -> (i, c)) obj));
      List.iter (fun (coeffs, rhs) -> Lp_problem.add_constraint p coeffs Lp_problem.Le rhs) rows;
      for v = 0 to num_vars - 1 do
        Lp_problem.set_upper p v 1.0;
        Lp_problem.mark_integer p v
      done;
      let expected = brute_force_binary ~num_vars ~obj ~rows in
      match (Ilp.solve p, expected) with
      | Ilp.Solved o, Some e -> Float.abs (o.objective -. e) < 1e-5
      | Ilp.Infeasible, None -> true
      | Ilp.Solved _, None -> false
      | Ilp.Infeasible, Some _ -> false
      | (Ilp.Unbounded | Ilp.No_incumbent), _ -> false)

let prop_simplex_lower_bounds_ilp =
  let gen = QCheck.Gen.int_range 0 10_000 in
  QCheck.Test.make ~name:"lp relaxation lower-bounds ilp" ~count:40
    (QCheck.make gen)
    (fun seed ->
      let rng = Rng.create seed in
      let num_vars = 3 + Rng.int rng 3 in
      let p = Lp_problem.create ~num_vars in
      Lp_problem.set_objective p
        (List.init num_vars (fun i -> (i, Rng.uniform rng (-4.0) 4.0)));
      for _ = 1 to 3 do
        Lp_problem.add_constraint p
          (List.init num_vars (fun i -> (i, Rng.uniform rng 0.0 3.0)))
          Lp_problem.Le
          (Rng.uniform rng 1.0 8.0)
      done;
      for v = 0 to num_vars - 1 do
        Lp_problem.set_upper p v 1.0;
        Lp_problem.mark_integer p v
      done;
      match (Simplex.solve p, Ilp.solve p) with
      | Simplex.Optimal lp, Ilp.Solved ilp -> lp.objective <= ilp.objective +. 1e-6
      | Simplex.Infeasible, Ilp.Infeasible -> true
      | _, Ilp.Infeasible -> true (* integrality can break feasibility *)
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Sparse rewrite oracle properties: Dense_simplex is the pre-rewrite
   bounded-variable dense solver kept verbatim, so any disagreement with
   the sparse revised simplex on the same program is a bug in the
   rewrite. Iteration-capped runs on either side are inconclusive. *)

let build_random_bounded rng =
  let num_vars = 2 + Rng.int rng 6 in
  let num_rows = 1 + Rng.int rng 5 in
  let p = Lp_problem.create ~num_vars in
  Lp_problem.set_objective p
    (List.init num_vars (fun i -> (i, Rng.uniform rng (-4.0) 4.0)));
  for _ = 1 to num_rows do
    let coeffs =
      List.init num_vars (fun i -> (i, Rng.uniform rng (-3.0) 3.0))
      |> List.filter (fun _ -> Rng.float rng < 0.8)
    in
    let coeffs =
      if coeffs = [] || Rng.float rng < 0.6 then coeffs
      else begin
        (* A row presolve has to coalesce: one coefficient split into two
           entries on its column, an explicit zero and a pair that cancels
           exactly, in shuffled order. *)
        let terms = Array.of_list coeffs in
        let k = Rng.int rng (Array.length terms) in
        let j, c = terms.(k) in
        let part = Rng.uniform rng (-1.0) 1.0 in
        terms.(k) <- (j, part);
        let z = Rng.int rng num_vars and v = Rng.uniform rng 0.5 2.0 in
        let all =
          Array.append terms
            [| (j, c -. part); (Rng.int rng num_vars, 0.0); (z, v); (z, -.v) |]
        in
        Rng.shuffle rng all;
        Array.to_list all
      end
    in
    let relation =
      match Rng.int rng 4 with
      | 0 -> Lp_problem.Ge
      | 1 -> Lp_problem.Eq
      | _ -> Lp_problem.Le
    in
    Lp_problem.add_constraint p coeffs relation (Rng.uniform rng (-2.0) 6.0)
  done;
  for i = 0 to num_vars - 1 do
    if Rng.float rng < 0.3 then
      Lp_problem.set_lower p i (Rng.uniform rng 0.0 1.0);
    if Rng.float rng < 0.6 then begin
      let lo, _ = (Lp_problem.bounds p).(i) in
      Lp_problem.set_upper p i (lo +. Rng.uniform rng 0.0 3.0)
    end
  done;
  p

(* A random miniature of the appendix-D model behind Fig. 13's Optimal
   line (Rapid_routing.Optimal): contacts in time order between a few
   nodes, and single-copy packets over per-packet arcs that never enter
   their source or leave their destination. It has the model's three row
   families: per-contact bandwidth, per-packet receive-once, and per-arc
   causality chains (an arc out of a node needs the packet there from an
   earlier contact). Optional singleton and Ge rows ride along. About
   15-165 rows, X in [0, 1], early deliveries rewarded. *)
let build_fig13_shaped rng =
  let nodes = 3 + Rng.int rng 4 in
  let other u = (u + 1 + Rng.int rng (nodes - 1)) mod nodes in
  let contacts =
    Array.init
      (5 + Rng.int rng 7)
      (fun _ ->
        let u = Rng.int rng nodes in
        (u, other u, 1 + Rng.int rng 6))
  in
  let packets =
    Array.init
      (2 + Rng.int rng 6)
      (fun _ ->
        let src = Rng.int rng nodes in
        (src, other src, 1 + Rng.int rng 3))
  in
  let arcs =
    Array.map
      (fun (src, dst, _) ->
        Array.to_list contacts
        |> List.mapi (fun k (u, v, _) -> [ (k, u, v); (k, v, u) ])
        |> List.concat
        |> List.filter (fun (_, f, t) -> t <> src && f <> dst)
        |> Array.of_list)
      packets
  in
  let offset = Array.make (Array.length packets) 0 in
  for pi = 1 to Array.length packets - 1 do
    offset.(pi) <- offset.(pi - 1) + Array.length arcs.(pi - 1)
  done;
  let num_vars = Array.fold_left (fun acc a -> acc + Array.length a) 0 arcs in
  let p = Lp_problem.create ~num_vars in
  let var pi ai = offset.(pi) + ai in
  let horizon = Float.of_int (Array.length contacts + 1) in
  let terms f =
    List.concat
      (List.init (Array.length packets) (fun pi ->
           List.filter_map (f pi) (List.init (Array.length arcs.(pi)) Fun.id)))
  in
  Lp_problem.set_objective p
    (terms (fun pi ai ->
         let k, _, t = arcs.(pi).(ai) and _, dst, _ = packets.(pi) in
         if t = dst then Some (var pi ai, Float.of_int (k + 1) -. horizon)
         else None));
  Array.iteri
    (fun k (_, _, bytes) ->
      let row =
        terms (fun pi ai ->
            let kk, _, _ = arcs.(pi).(ai) and _, _, size = packets.(pi) in
            if kk = k then Some (var pi ai, Float.of_int size) else None)
      in
      if row <> [] then
        Lp_problem.add_constraint p row Lp_problem.Le (Float.of_int bytes))
    contacts;
  Array.iteri
    (fun pi (src, _, _) ->
      let a = arcs.(pi) in
      let indices = List.init (Array.length a) Fun.id in
      for node = 0 to nodes - 1 do
        let ins =
          List.filter_map
            (fun ai ->
              let _, _, t = a.(ai) in
              if t = node then Some (var pi ai, 1.0) else None)
            indices
        in
        if ins <> [] then Lp_problem.add_constraint p ins Lp_problem.Le 1.0
      done;
      Array.iteri
        (fun ai (k, f, _) ->
          let prior =
            List.filter_map
              (fun aj ->
                let kj, fj, tj = a.(aj) in
                if kj >= k then None
                else if fj = f then Some (var pi aj, 1.0)
                else if tj = f then Some (var pi aj, -1.0)
                else None)
              indices
          in
          Lp_problem.add_constraint p
            ((var pi ai, 1.0) :: prior)
            Lp_problem.Le
            (if f = src then 1.0 else 0.0))
        a)
    packets;
  if Rng.float rng < 0.3 then
    Lp_problem.add_constraint p
      [ (Rng.int rng num_vars, 1.0) ]
      Lp_problem.Le 0.0;
  if Rng.float rng < 0.3 then
    Lp_problem.add_constraint p
      [ (Rng.int rng num_vars, 1.0) ]
      Lp_problem.Ge (Rng.uniform rng 0.0 1.0);
  if Rng.float rng < 0.3 then begin
    let pi = Rng.int rng (Array.length packets) in
    let _, dst, _ = packets.(pi) in
    let delivered =
      List.filter_map
        (fun ai ->
          let _, _, t = arcs.(pi).(ai) in
          if t = dst then Some (var pi ai, 1.0) else None)
        (List.init (Array.length arcs.(pi)) Fun.id)
    in
    if delivered <> [] then
      Lp_problem.add_constraint p delivered Lp_problem.Ge
        (Rng.uniform rng 0.2 1.0)
  end;
  for v = 0 to num_vars - 1 do
    Lp_problem.set_upper p v 1.0
  done;
  p

(* One case in three is Fig. 13-shaped, so the sparse LU and presolve see
   the row structure that production solves, not only tiny dense LPs. *)
let prop_sparse_matches_dense_oracle =
  let gen = QCheck.Gen.int_range 0 100_000 in
  QCheck.Test.make ~name:"sparse simplex matches dense oracle" ~count:600
    (QCheck.make gen) (fun seed ->
      let rng = Rng.create seed in
      let p =
        if seed mod 3 = 0 then build_fig13_shaped rng
        else build_random_bounded rng
      in
      match (Simplex.solve p, Dense_simplex.solve p) with
      | Simplex.Optimal a, Dense_simplex.Optimal b ->
          Float.abs (a.Simplex.objective -. b.Dense_simplex.objective) < 1e-5
      | Simplex.Infeasible, Dense_simplex.Infeasible -> true
      | Simplex.Unbounded, Dense_simplex.Unbounded -> true
      | Simplex.Iter_limit, _ | _, Dense_simplex.Iter_limit -> true
      | _ -> false)

(* Both warm-start states — sparse (basis + LU + eta file in State) and
   dense — must agree through the same branch-like resolve sequence. *)
let prop_warm_parity_sparse_vs_dense =
  let gen = QCheck.Gen.int_range 0 100_000 in
  QCheck.Test.make ~name:"warm resolve parity, sparse vs dense state"
    ~count:200 (QCheck.make gen) (fun seed ->
      let rng = Rng.create seed in
      let num_vars = 2 + Rng.int rng 5 in
      let rows =
        List.init
          (1 + Rng.int rng 3)
          (fun _ ->
            let coeffs =
              List.init num_vars (fun i -> (i, Rng.uniform rng (-2.0) 3.0))
            in
            let relation =
              if Rng.float rng < 0.75 then Lp_problem.Le else Lp_problem.Ge
            in
            (coeffs, relation, Rng.uniform rng 0.0 6.0))
      in
      let obj =
        List.init num_vars (fun i -> (i, Rng.uniform rng (-4.0) 4.0))
      in
      let ub = Array.init num_vars (fun _ -> Rng.uniform rng 0.5 4.0) in
      let make () =
        let p = Lp_problem.create ~num_vars in
        Lp_problem.set_objective p obj;
        List.iter
          (fun (coeffs, rel, rhs) -> Lp_problem.add_constraint p coeffs rel rhs)
          rows;
        Array.iteri (fun i u -> Lp_problem.set_upper p i u) ub;
        p
      in
      let st = Simplex.State.create (make ()) in
      let dt = Dense_simplex.State.create (make ()) in
      let agree sparse dense =
        match (sparse, dense) with
        | Simplex.Optimal a, Dense_simplex.Optimal b ->
            Float.abs (a.Simplex.objective -. b.Dense_simplex.objective)
            < 1e-5
        | Simplex.Infeasible, Dense_simplex.Infeasible -> true
        | Simplex.Unbounded, Dense_simplex.Unbounded -> true
        | Simplex.Iter_limit, _ | _, Dense_simplex.Iter_limit -> true
        | _ -> false
      in
      let ok =
        ref
          (agree (Simplex.State.solve_root st)
             (Dense_simplex.State.solve_root dt))
      in
      for _ = 1 to 4 do
        let overrides =
          List.init num_vars (fun i ->
              let lo = Float.of_int (Rng.int rng 2) in
              let hi = Float.min ub.(i) (lo +. Float.of_int (Rng.int rng 2)) in
              (i, Float.min lo hi, hi))
          |> List.filter (fun _ -> Rng.float rng < 0.4)
        in
        let warm, _ = Simplex.State.resolve st ~bounds:overrides in
        let dwarm, _ = Dense_simplex.State.resolve dt ~bounds:overrides in
        if not (agree warm dwarm) then ok := false
      done;
      !ok)

(* Lu, driven directly. A random sparse basis that is nonsingular by
   construction (column diagonal dominance under a random row
   permutation) is factored, then up to 80 column replacements go through
   the eta file; each entering column displaces a position whose FTRAN'd
   entry is at least half the largest, as a ratio test with a pivot
   tolerance would. After the factorization and after every update,
   FTRAN and BTRAN must solve B·x = b and Bᵀ·y = c to a relative residual
   of 1e-9. A basis that repeats a column must raise [Singular]. *)

let inf_norm v =
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 v

(* m×2m: columns [0, m) form the nonsingular starting basis, columns
   [m, 2m) are sparse entering candidates *)
let random_lu_matrix rng m =
  let perm = Array.init m Fun.id in
  Rng.shuffle rng perm;
  (* per column, (row, value) entries with a repeated row summed *)
  let cols = Array.make (2 * m) [] in
  let push i j v =
    cols.(j) <-
      (match List.assoc_opt i cols.(j) with
      | Some w -> (i, w +. v) :: List.remove_assoc i cols.(j)
      | None -> (i, v) :: cols.(j))
  in
  for j = 0 to m - 1 do
    let off = ref 0.0 in
    for _ = 1 to Int.min (m - 1) (Rng.int rng 4) do
      let i = Rng.int rng m in
      if i <> perm.(j) then begin
        let v = Rng.uniform rng (-2.0) 2.0 in
        off := !off +. Float.abs v;
        push i j v
      end
    done;
    let d = (1.0 +. !off) *. Rng.uniform rng 1.0 2.0 in
    push perm.(j) j (if Rng.bool rng then d else -.d)
  done;
  for j = m to (2 * m) - 1 do
    for _ = 0 to Rng.int rng 4 do
      let v = Rng.uniform rng 0.5 3.0 in
      push (Rng.int rng m) j (if Rng.bool rng then v else -.v)
    done
  done;
  let cols = Array.map (List.sort compare) cols in
  let colptr = Array.make ((2 * m) + 1) 0 in
  Array.iteri (fun j c -> colptr.(j + 1) <- colptr.(j) + List.length c) cols;
  let entries = List.concat (Array.to_list cols) in
  Sparse.create ~m ~n:(2 * m) ~colptr
    ~rowind:(Array.of_list (List.map fst entries))
    ~values:(Array.of_list (List.map snd entries))

(* Relative residuals ‖B·x − b‖∞ / (‖B‖∞·‖x‖∞ + ‖b‖∞) of FTRAN and the
   same for BTRAN against Bᵀ, on random right-hand sides. *)
let lu_residuals rng a ~basis lu =
  let m = Array.length basis in
  let row_sum = Array.make m 0.0 and col_sum = Array.make m 0.0 in
  Array.iteri
    (fun p j ->
      Sparse.iter_col a j (fun i v ->
          row_sum.(i) <- row_sum.(i) +. Float.abs v;
          col_sum.(p) <- col_sum.(p) +. Float.abs v))
    basis;
  let b = Array.init m (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let x = Array.copy b in
  Lu.ftran lu x;
  let rb = Array.copy b in
  Array.iteri
    (fun p j ->
      Sparse.iter_col a j (fun i v -> rb.(i) <- rb.(i) -. (v *. x.(p))))
    basis;
  let c = Array.init m (fun _ -> Rng.uniform rng (-1.0) 1.0) in
  let y = Array.copy c in
  Lu.btran lu y;
  let rc =
    Array.mapi
      (fun p j ->
        let s = ref c.(p) in
        Sparse.iter_col a j (fun i v -> s := !s -. (v *. y.(i)));
        !s)
      basis
  in
  Float.max
    (inf_norm rb /. ((inf_norm row_sum *. inf_norm x) +. inf_norm b))
    (inf_norm rc /. ((inf_norm col_sum *. inf_norm y) +. inf_norm c))

let prop_lu_solves_after_updates =
  let gen = QCheck.Gen.int_range 0 100_000 in
  QCheck.Test.make ~name:"lu solves after factor and eta updates" ~count:150
    (QCheck.make gen) (fun seed ->
      let rng = Rng.create seed in
      let m = 1 + Rng.int rng 120 in
      let a = random_lu_matrix rng m in
      let basis = Array.init m Fun.id in
      Rng.shuffle rng basis;
      let in_basis = Array.init (2 * m) (fun j -> j < m) in
      let lu = Lu.factor a ~basis in
      let worst = ref (lu_residuals rng a ~basis lu) in
      let alpha = Array.make m 0.0 in
      for _ = 1 to Rng.int rng 81 do
        let q = m + Rng.int rng m in
        if not in_basis.(q) then begin
          Array.fill alpha 0 m 0.0;
          Sparse.iter_col a q (fun i v -> alpha.(i) <- v);
          Lu.ftran lu alpha;
          let big = inf_norm alpha in
          let candidates =
            List.filter
              (fun r -> Float.abs alpha.(r) >= 0.5 *. big)
              (List.init m Fun.id)
          in
          let r = List.nth candidates (Rng.int rng (List.length candidates)) in
          Lu.update lu ~r ~alpha;
          in_basis.(basis.(r)) <- false;
          in_basis.(q) <- true;
          basis.(r) <- q;
          worst := Float.max !worst (lu_residuals rng a ~basis lu)
        end
      done;
      let singular =
        m < 2
        ||
        let repeated = Array.copy basis in
        repeated.(m - 1) <- repeated.(0);
        match Lu.factor a ~basis:repeated with
        | exception Lu.Singular -> true
        | _ -> false
      in
      if !worst > 1e-9 then
        QCheck.Test.fail_reportf "m=%d: relative residual %.3g" m !worst;
      singular)

(* Presolve/postsolve round trip: solving the reduced model (with the
   independent dense oracle) and lifting must produce a point that is
   feasible for every original row and box and attains the original
   optimum. *)
let prop_presolve_postsolve_roundtrip =
  let gen = QCheck.Gen.int_range 0 100_000 in
  QCheck.Test.make ~name:"presolve/postsolve round trip" ~count:300
    (QCheck.make gen) (fun seed ->
      let rng = Rng.create seed in
      let p = build_random_bounded rng in
      let obj = Lp_problem.objective p in
      let bnds = Lp_problem.bounds p in
      let lb = Array.map fst bnds and ub = Array.map snd bnds in
      let rows = Lp_problem.constraints p in
      let pre = Presolve.reduce ~obj ~lb ~ub ~rows:(Lp_problem.rows p) in
      let lift x_red =
        match Presolve.postsolve pre ~cur_lb:lb ~cur_ub:ub ~x_red with
        | `Unbounded -> (
            match Simplex.solve p with Simplex.Unbounded -> true | _ -> false)
        | `X x ->
            let row_ok (c : Lp_problem.constr) =
              let v =
                List.fold_left
                  (fun acc (i, coef) -> acc +. (coef *. x.(i)))
                  0.0 c.Lp_problem.coeffs
              in
              match c.Lp_problem.relation with
              | Lp_problem.Le -> v <= c.Lp_problem.rhs +. 1e-6
              | Lp_problem.Ge -> v >= c.Lp_problem.rhs -. 1e-6
              | Lp_problem.Eq -> Float.abs (v -. c.Lp_problem.rhs) <= 1e-6
            in
            let box_ok i xi = xi >= lb.(i) -. 1e-6 && xi <= ub.(i) +. 1e-6 in
            let value =
              Array.to_seqi x
              |> Seq.fold_left (fun acc (i, xi) -> acc +. (obj.(i) *. xi)) 0.0
            in
            List.for_all row_ok rows
            && Array.for_all (fun b -> b) (Array.mapi box_ok x)
            && (match Simplex.solve p with
               | Simplex.Optimal o ->
                   Float.abs (o.Simplex.objective -. value) < 1e-5
               | Simplex.Iter_limit -> true
               | Simplex.Infeasible | Simplex.Unbounded -> false)
      in
      match pre.Presolve.verdict with
      | Presolve.Infeasible -> (
          (* Presolve may only declare infeasibility when the solver
             agrees on the unreduced program. *)
          match Simplex.solve p with Simplex.Infeasible -> true | _ -> false)
      | Presolve.Feasible ->
          if pre.Presolve.n_red = 0 then lift [||]
          else begin
            let red = Lp_problem.create ~num_vars:pre.Presolve.n_red in
            Lp_problem.set_objective red
              (Array.to_list (Array.mapi (fun i c -> (i, c)) pre.Presolve.obj));
            List.iter
              (fun (c : Lp_problem.constr) ->
                Lp_problem.add_constraint red c.Lp_problem.coeffs
                  c.Lp_problem.relation c.Lp_problem.rhs)
              (constrs_of pre.Presolve.rows);
            Array.iteri
              (fun i lo ->
                Lp_problem.set_lower red i lo;
                if pre.Presolve.ub.(i) < infinity then
                  Lp_problem.set_upper red i pre.Presolve.ub.(i))
              pre.Presolve.lb;
            match Dense_simplex.solve red with
            | Dense_simplex.Optimal o -> lift o.Dense_simplex.solution
            | Dense_simplex.Infeasible -> (
                (* Feasible is "not detected infeasible", so the reduced
                   model may still be infeasible — but then the original
                   must be too. *)
                match Simplex.solve p with
                | Simplex.Infeasible -> true
                | _ -> false)
            | Dense_simplex.Unbounded -> (
                match Simplex.solve p with
                | Simplex.Unbounded -> true
                | _ -> false)
            | Dense_simplex.Iter_limit -> true
          end)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_bounded_simplex_matches_reference;
      prop_warm_resolve_matches_cold;
      prop_ilp_matches_brute_force;
      prop_simplex_lower_bounds_ilp;
      prop_sparse_matches_dense_oracle;
      prop_warm_parity_sparse_vs_dense;
      prop_presolve_postsolve_roundtrip;
      prop_lu_solves_after_updates;
      prop_row_store_verbatim;
    ]

let () =
  Alcotest.run "lp"
    [
      ( "simplex",
        [
          Alcotest.test_case "basic 2d" `Quick test_simplex_basic_2d;
          Alcotest.test_case "equality" `Quick test_simplex_equality;
          Alcotest.test_case "ge constraints" `Quick test_simplex_ge_constraints;
          Alcotest.test_case "negative rhs" `Quick test_simplex_negative_rhs;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "unbounded" `Quick test_simplex_unbounded;
          Alcotest.test_case "degenerate (Beale)" `Quick test_simplex_degenerate;
          Alcotest.test_case "upper bounds, no rows" `Quick
            test_simplex_upper_bounds_no_rows;
          Alcotest.test_case "bounds vs rows" `Quick test_simplex_bounds_vs_rows;
          Alcotest.test_case "solution feasibility" `Quick
            test_simplex_feasibility_of_solution;
          Alcotest.test_case "warm resolve" `Quick test_state_warm_resolve;
        ] );
      ( "ilp",
        [
          Alcotest.test_case "knapsack" `Quick test_ilp_knapsack;
          Alcotest.test_case "fractional relaxation" `Quick
            test_ilp_rounding_matters;
          Alcotest.test_case "integral shortcut" `Quick
            test_ilp_integral_relaxation_short_circuits;
          Alcotest.test_case "infeasible by integrality" `Quick
            test_ilp_infeasible;
          Alcotest.test_case "warm starts counted" `Quick
            test_ilp_warm_starts_counted;
          Alcotest.test_case "certificate" `Quick test_ilp_certificate;
        ] );
      ( "problem",
        [
          Alcotest.test_case "objective rejects non-finite" `Quick
            test_objective_rejects_non_finite;
          Alcotest.test_case "row rejects non-finite" `Quick
            test_row_rejects_non_finite;
          Alcotest.test_case "lower bound rejects non-finite" `Quick
            test_lower_rejects_non_finite;
          Alcotest.test_case "upper bound rejects NaN" `Quick
            test_upper_rejects_nan;
        ] );
      ("properties", qcheck_cases);
    ]
