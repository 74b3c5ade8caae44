(* CI smoke for the ILP solver path: the full fig13 grid (5 loads x 3 day
   slices, quick profile) must close every instance to proven optimality,
   and one pinned instance must reproduce its golden objective exactly.

   The golden check is on [avg_delay_all], which is an affine function of
   the ILP objective (total delay = constant + objective), so equality
   here pins the optimal objective even when alternate optimal routings
   exist. The pinned value predates the sparse revised-simplex rewrite
   (it was computed by the dense solver run to completion), so it also
   guards the rewrite against silent objective drift.

   The tally assertion is the rewrite's headline: under the seed's dense
   tableau the seven contended instances (load >= 2.0 past day 1) were
   pivot-starved into the contention-free bound; the sparse solver plus
   gcd-rounded bandwidth rows closes all fifteen at the root or after a
   short branch-and-bound dive.

   Every fig13 slice closes at the root, so the grid never reaches the
   branch-and-bound search. Two 25% slices at load 2.0 (days 0 and 2)
   do: each must branch (more than one node) and still close as
   Ilp_exact at its pinned [avg_delay_all]. They cover the warm-started
   dual simplex on real models.

   With RAPID_BENCH_STRICT=1 the run additionally requires the sparse
   solver's instrumentation to be live: lp.refactorizations,
   lp.eta_updates, lp.presolve_rows_removed, lp.presolve_cols_removed and
   ilp.warm_starts must all be nonzero across the run (branch-and-bound
   boxes plus singleton-row folds fix thousands of columns here).

   Usage: dune exec bench/ilp_smoke.exe *)

module Params = Rapid_experiments.Params
module Optimal = Rapid_routing.Optimal
module Counter = Rapid_obs.Counter

let golden_avg_delay = 1217.808623065

(* (day, avg_delay_all) of the branching 25% slices at load 2.0 *)
let branching_goldens = [ (0, 1338.241467732); (2, 1793.694045446) ]

let tolerance = 1e-6
let errors = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "FAIL: %s\n" msg)
    fmt

let () =
  let params = Params.get Params.Quick in
  let exact = ref 0 and incumbent = ref 0 and bound = ref 0 in
  List.iter
    (fun load ->
      List.iter
        (fun day ->
          let trace =
            Rapid_experiments.Fig_optimal.day_slice ~params ~day ~frac:0.15
          in
          let workload =
            Rapid_experiments.Runners.trace_workload ~params ~trace ~load ~day
          in
          let v = Optimal.evaluate ~trace ~workload () in
          let how_name =
            match v.Optimal.how with
            | Optimal.Ilp_exact ->
                incr exact;
                "Ilp_exact"
            | Optimal.Ilp_incumbent ->
                incr incumbent;
                "Ilp_incumbent"
            | Optimal.Bound ->
                incr bound;
                "Bound"
          in
          Printf.printf "fig13 load %.1f day %d: how=%-13s avg_delay_all=%.9f\n"
            load day how_name v.Optimal.avg_delay_all;
          if load = 2.0 && day = 1 then begin
            if v.Optimal.how <> Optimal.Ilp_exact then
              fail "load 2.0 day 1: expected Ilp_exact, got %s" how_name;
            let diff =
              Float.abs (v.Optimal.avg_delay_all -. golden_avg_delay)
            in
            if diff > tolerance then
              fail "avg_delay_all off golden by %.3e (want <= %.0e)" diff
                tolerance
          end)
        [ 0; 1; 2 ])
    [ 0.5; 1.0; 2.0; 4.0; 6.0 ];
  Printf.printf "tally: exact=%d incumbent=%d bound=%d\n" !exact !incumbent
    !bound;
  if (!exact, !incumbent, !bound) <> (15, 0, 0) then
    fail "expected all 15 fig13 instances Ilp_exact, got %d/%d/%d" !exact
      !incumbent !bound;
  let count name = Counter.value (Counter.create name) in
  List.iter
    (fun (day, golden) ->
      let trace =
        Rapid_experiments.Fig_optimal.day_slice ~params ~day ~frac:0.25
      in
      let workload =
        Rapid_experiments.Runners.trace_workload ~params ~trace ~load:2.0 ~day
      in
      let nodes0 = count "ilp.nodes"
      and warm0 = count "ilp.warm_starts"
      and pivots0 = count "lp.pivots" in
      let v = Optimal.evaluate ~trace ~workload () in
      let nodes = count "ilp.nodes" - nodes0 in
      Printf.printf
        "branching load 2.0 day %d (25%%): avg_delay_all=%.9f nodes=%d \
         warm_starts=%d pivots=%d\n"
        day v.Optimal.avg_delay_all nodes
        (count "ilp.warm_starts" - warm0)
        (count "lp.pivots" - pivots0);
      if v.Optimal.how <> Optimal.Ilp_exact then
        fail "branching day %d: expected Ilp_exact" day;
      if nodes < 2 then
        fail "branching day %d: closed at the root (%d node)" day nodes;
      let diff = Float.abs (v.Optimal.avg_delay_all -. golden) in
      if diff > tolerance then
        fail "branching day %d: avg_delay_all off golden by %.3e" day diff)
    branching_goldens;
  (match Sys.getenv_opt "RAPID_BENCH_STRICT" with
  | Some "1" ->
      let snap = Counter.snapshot () in
      let value name =
        match List.assoc_opt name snap with
        | Some v -> Some v
        | None -> None
      in
      List.iter
        (fun name ->
          match value name with
          | None -> fail "counter %s not registered" name
          | Some 0 -> fail "counter %s is zero across the run" name
          | Some v -> Printf.printf "%s = %d\n" name v)
        [
          "lp.refactorizations"; "lp.eta_updates";
          "lp.presolve_rows_removed"; "lp.presolve_cols_removed";
          "ilp.warm_starts";
        ]
  | Some _ | None -> ());
  if !errors > 0 then begin
    Printf.eprintf "ilp smoke: %d failure(s)\n" !errors;
    exit 1
  end;
  print_endline "ilp smoke ok"
