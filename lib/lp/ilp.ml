open Rapid_prelude
module Counter = Rapid_obs.Counter

type outcome = {
  objective : float;
  solution : float array;
  proven_optimal : bool;
  nodes_explored : int;
}

type result = Solved of outcome | Infeasible | Unbounded | No_incumbent

let c_nodes = Counter.create "ilp.nodes"
let c_warm = Counter.create "ilp.warm_starts"
let c_unconverged = Counter.create "ilp.unconverged"

(* A node is fully described by the column bounds its branching history
   imposes: [bounds] holds (var, lo, hi) for every branched variable.
   Re-solving it from whatever basis the shared {!Simplex.State} last
   reached is a bound-change dual-simplex step, not a from-scratch solve. *)
type node = { bounds : (int * float * float) list; depth : int }

let most_fractional int_vars solution int_tol =
  let best = ref None in
  List.iter
    (fun v ->
      let x = solution.(v) in
      let frac = Float.abs (x -. Float.round x) in
      if frac > int_tol then
        match !best with
        | Some (_, f) when f >= frac -> ()
        | _ -> best := Some (v, frac))
    int_vars;
  !best

let solve ?(max_nodes = 4000) ?max_pivots ?(int_tol = 1e-6) problem =
  let int_vars = Lp_problem.integer_vars problem in
  let defaults = Lp_problem.bounds problem in
  let st = Simplex.State.create problem in
  (* A proven optimum must also pass the certificate; one that does not is
     reported as an unproven incumbent. *)
  let solved ~proven ~nodes objective solution =
    Solved
      {
        objective;
        solution;
        proven_optimal =
          proven && Lp_problem.certify ~int_tol problem ~objective solution;
        nodes_explored = nodes;
      }
  in
  match Simplex.State.solve_root st with
  | Simplex.Infeasible -> Infeasible
  | Simplex.Unbounded -> Unbounded
  | Simplex.Iter_limit ->
      (* The root relaxation never converged: no valid bound, no incumbent. *)
      Counter.incr c_unconverged;
      No_incumbent
  | Simplex.Optimal root -> (
      Counter.incr c_nodes;
      match most_fractional int_vars root.solution int_tol with
      | None -> solved ~proven:true ~nodes:1 root.objective root.solution
      | Some (v0, _) ->
          let queue = Pqueue.create () in
          let incumbent = ref None in
          let nodes = ref 1 in
          let budget_hit = ref false in
          let unconverged = ref false in
          (* Node and pivot budgets. The pivot budget bounds *work*: a hard
             node can take orders of magnitude more dual pivots than an
             easy one, so a node cap alone does not bound time. *)
          let out_of_budget () =
            !nodes >= max_nodes
            || match max_pivots with
               | Some mp -> Simplex.State.pivots st > mp
               | None -> false
          in
          let better obj =
            match !incumbent with
            | None -> true
            | Some (o, _) -> obj < o -. 1e-9
          in
          let range bounds v =
            match List.find_opt (fun (w, _, _) -> w = v) bounds with
            | Some (_, lo, hi) -> (lo, hi)
            | None -> defaults.(v)
          in
          let narrowed bounds v lo hi =
            (v, lo, hi) :: List.filter (fun (w, _, _) -> w <> v) bounds
          in
          (* Solve one node; branch or record an incumbent. [on_frac] decides
             what happens to a fractional child. *)
          let visit ~bounds ~on_frac =
            incr nodes;
            Counter.incr c_nodes;
            let result, warm = Simplex.State.resolve st ~bounds in
            if warm then Counter.incr c_warm;
            match result with
            | Simplex.Infeasible | Simplex.Unbounded -> ()
            | Simplex.Iter_limit ->
                (* Not converged: the node has no valid relaxation bound, so
                   neither prune nor branch on it — record that the search
                   is incomplete. *)
                Counter.incr c_unconverged;
                unconverged := true
            | Simplex.Optimal { objective; solution } ->
                if better objective then begin
                  match most_fractional int_vars solution int_tol with
                  | None -> incumbent := Some (objective, solution)
                  | Some (v, _) -> on_frac ~bound:objective v solution.(v)
                end
          in
          (* Plunge depth-first from a fractional node: tighten the branch
             variable toward its relaxation value and recurse. Until the
             first incumbent lands the far sibling is explored by
             backtracking DFS right here — contended instances dead-end
             most plunges on an infeasible near child, and a best-first
             queue alone then re-plunges shallow nodes until the whole
             node budget is gone without ever completing an integral
             point. Once an incumbent exists, far siblings go to the
             queue (keyed by the parent bound, preserving best-first
             order) and pruning takes over. *)
          let rec dive ~bound ~bounds ~depth v x =
            if out_of_budget () then budget_hit := true
            else begin
              let cur_lo, cur_hi = range bounds v in
              let fl = Float.floor x and ce = Float.ceil x in
              let down = narrowed bounds v cur_lo (Float.min cur_hi fl) in
              let up = narrowed bounds v (Float.max cur_lo ce) cur_hi in
              let near, far =
                if x -. fl <= 0.5 then (down, up) else (up, down)
              in
              if !incumbent = None then begin
                visit ~bounds:near ~on_frac:(fun ~bound v x ->
                    dive ~bound ~bounds:near ~depth:(depth + 1) v x);
                if !incumbent = None then begin
                  if out_of_budget () then budget_hit := true
                  else
                    visit ~bounds:far ~on_frac:(fun ~bound v x ->
                        dive ~bound ~bounds:far ~depth:(depth + 1) v x)
                end
                else Pqueue.push queue bound { bounds = far; depth = depth + 1 }
              end
              else begin
                Pqueue.push queue bound { bounds = far; depth = depth + 1 };
                visit ~bounds:near ~on_frac:(fun ~bound v x ->
                    dive ~bound ~bounds:near ~depth:(depth + 1) v x)
              end
            end
          in
          dive ~bound:root.objective ~bounds:[] ~depth:0 v0
            root.solution.(v0);
          let rec bb () =
            match Pqueue.pop queue with
            | None -> ()
            | Some (bound, node) ->
                (* Prune against the incumbent. *)
                if not (better bound) then bb ()
                else if out_of_budget () then budget_hit := true
                else begin
                  visit ~bounds:node.bounds ~on_frac:(fun ~bound v x ->
                      dive ~bound ~bounds:node.bounds ~depth:node.depth v x);
                  bb ()
                end
          in
          bb ();
          (match !incumbent with
          | Some (objective, solution) ->
              solved
                ~proven:(not (!budget_hit || !unconverged))
                ~nodes:!nodes objective solution
          | None ->
              if !budget_hit || !unconverged then No_incumbent else Infeasible))
