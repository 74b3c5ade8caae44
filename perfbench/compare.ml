(* Compare two benchmark results files (lines appended by
   benchmark.exe --out) under the bounds in BENCHMARK.json.

   Usage, from the repository root:
     dune exec perfbench/compare.exe -- A.jsonl B.jsonl

   A is the baseline, B the candidate. For each workload and end-to-end
   metric it prints both medians with their quartiles (as Python's
   statistics.quantiles(n=4) computes them) and the change of the median.
   The verdict follows the benchmark's regression rule: when A's own
   spread (interquartile range over median) is wider than the metric's
   bound the row is "unresolved", unless every run of B reads better
   than every run of A; otherwise B is "worse" when its median is worse
   than A's by more than the bound, and "ok" when not. A workload whose
   B runs failed more checks than its A runs is "worse" too. Traced runs
   are ignored. Exits 1 when any row is worse. *)

module Json = Rapid_obs.Json

let fail fmt = Printf.ksprintf (fun s -> prerr_endline s; exit 2) fmt

let member key j =
  match Json.member key j with Some v -> v | None -> fail "missing %S" key

let to_float = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "expected a number"

let to_string = function Json.String s -> s | _ -> fail "expected a string"
let to_list = function Json.List l -> l | _ -> fail "expected a list"

(* Untraced runs of a results file: (workload, failed, metric values). *)
let read_runs path =
  In_channel.with_open_text path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.map Json.of_string
  |> List.filter (fun j -> member "trace" j = Json.Bool false)
  |> List.map (fun j ->
         let metrics =
           match member "metrics" j with
           | Json.Obj fields ->
               List.map (fun (k, v) -> (k, to_float (member "value" v))) fields
           | _ -> fail "%s: metrics is not an object" path
         in
         (to_string (member "workload" j), to_float (member "failed" j), metrics))

let median xs = Rapid_prelude.Stats.percentile (Array.of_list xs) 0.5

(* statistics.quantiles(data, n=4), method "exclusive"; a single run
   has no spread, so both quartiles are that run. *)
let quartiles xs =
  let d = Array.of_list xs in
  Array.sort Float.compare d;
  let ld = Array.length d in
  if ld < 2 then (d.(0), d.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float_of_int (4 - delta)) +. (d.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 3)

let () =
  let a_path, b_path =
    match Array.to_list Sys.argv with
    | [ _; a; b ] -> (a, b)
    | _ -> fail "usage: compare.exe A.jsonl B.jsonl"
  in
  let bench = Json.of_file "BENCHMARK.json" in
  let a_runs = read_runs a_path and b_runs = read_runs b_path in
  let worse = ref false in
  Printf.printf "%-18s %-13s %12s %25s %12s %25s %8s  %s\n" "workload" "metric"
    "A median" "A quartiles" "B median" "B quartiles" "delta" "verdict";
  List.iter
    (fun w ->
      let w = to_string (member "name" w) in
      let runs rs = List.filter (fun (name, _, _) -> name = w) rs in
      let a = runs a_runs and b = runs b_runs in
      List.iter
        (fun m ->
          let name = to_string (member "name" m)
          and bound = to_float (member "bound" m)
          and lower = to_string (member "better" m) = "lower" in
          let values rs = List.filter_map (fun (_, _, ms) -> List.assoc_opt name ms) rs in
          match (values a, values b) with
          | [], _ | _, [] -> Printf.printf "%-18s %-13s no runs\n" w name
          | av, bv ->
              let ma = median av and mb = median bv in
              let qa1, qa3 = quartiles av and qb1, qb3 = quartiles bv in
              let delta = (mb -. ma) /. ma in
              let worsening = if lower then delta else -.delta in
              let all_better =
                if lower then List.fold_left max neg_infinity bv < List.fold_left min infinity av
                else List.fold_left min infinity bv > List.fold_left max neg_infinity av
              in
              let verdict =
                if (qa3 -. qa1) /. ma > bound then
                  if all_better then "ok" else "unresolved"
                else if worsening > bound then "worse"
                else "ok"
              in
              if verdict = "worse" then worse := true;
              Printf.printf "%-18s %-13s %12.6g %25s %12.6g %25s %+7.2f%%  %s\n" w name ma
                (Printf.sprintf "[%.6g, %.6g]" qa1 qa3)
                mb
                (Printf.sprintf "[%.6g, %.6g]" qb1 qb3)
                (100. *. delta) verdict)
        (to_list (member "end_to_end" bench));
      let failed rs = List.fold_left (fun acc (_, f, _) -> acc +. f) 0. rs in
      if failed b > failed a then begin
        worse := true;
        Printf.printf "%-18s failed checks: A %.0f, B %.0f  worse\n" w (failed a)
          (failed b)
      end)
    (to_list (member "workloads" bench));
  exit (if !worse then 1 else 0)
