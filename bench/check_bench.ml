(* CI smoke validator for BENCH.json (schema rapid-bench/1): hard-fails
   when the file does not parse or the schema/hot-path keys are missing.
   When a baseline file is given, artifact wall times are compared against
   it: a >25% regression on a shared artifact id prints WARN (or FAILs
   when RAPID_BENCH_STRICT=1); profiles must match for the comparison to
   apply. Microbench numbers are never gated — too noisy in CI.

   Usage: dune exec bench/check_bench.exe -- [path] [baseline]
   (defaults: BENCH.json, no baseline) *)

module Json = Rapid_obs.Json

let errors = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr errors;
      Printf.eprintf "FAIL: %s\n" msg)
    fmt

let strict () =
  match Sys.getenv_opt "RAPID_BENCH_STRICT" with
  | Some "1" -> true
  | Some _ | None -> false

let regress fmt =
  Printf.ksprintf
    (fun msg ->
      if strict () then begin
        incr errors;
        Printf.eprintf "FAIL: %s\n" msg
      end
      else Printf.eprintf "WARN: %s\n" msg)
    fmt

let artifact_walls doc =
  match Json.member "artifacts" doc with
  | Some (Json.List items) ->
      List.filter_map
        (fun item ->
          match (Json.member "id" item, Json.member "wall_s" item) with
          | Some (Json.String id), Some (Json.Float s) -> Some (id, s)
          | _ -> None)
        items
  | Some _ | None -> []

let profile_of doc =
  match Json.member "profile" doc with
  | Some (Json.String p) -> Some p
  | Some _ | None -> None

let timer_total doc name =
  match Json.member "timers" doc with
  | Some timers -> (
      match Json.member name timers with
      | Some t -> (
          match Json.member "total_s" t with
          | Some (Json.Float total) -> Some total
          | _ -> None)
      | None -> None)
  | None -> None

(* >25% slower than baseline on the same artifact id is a regression;
   sub-100ms artifacts are skipped (timer noise dominates). *)
let compare_baseline doc base_path =
  match
    try Some (Json.of_file base_path)
    with Json.Parse_error _ | Sys_error _ -> None
  with
  | None -> fail "cannot read baseline %s" base_path
  | Some base ->
      if profile_of base <> profile_of doc then
        Printf.printf
          "baseline %s: profile differs, skipping wall-time comparison\n"
          base_path
      else begin
        let walls = artifact_walls doc in
        List.iter
          (fun (id, base_s) ->
            match List.assoc_opt id walls with
            | Some s when base_s >= 0.1 && s > base_s *. 1.25 ->
                regress "artifact %s regressed: %.2fs vs baseline %.2fs (+%.0f%%)"
                  id s base_s
                  ((s /. base_s -. 1.0) *. 100.0)
            | Some s ->
                Printf.printf "artifact %-10s %.2fs vs baseline %.2fs ok\n" id s
                  base_s
            | None -> ())
          (artifact_walls base);
        (* The RAPID ranking hot path is gated on its own timer, not just
           artifact walls: rank time can regress badly while staying
           hidden inside an artifact's noise budget. Same contract as the
           walls — >25% over baseline WARNs, FAILs under strict. *)
        match (timer_total doc "rapid.rank", timer_total base "rapid.rank") with
        | Some s, Some base_s when base_s >= 0.1 && s > base_s *. 1.25 ->
            regress "rapid.rank regressed: %.2fs vs baseline %.2fs (+%.0f%%)" s
              base_s
              ((s /. base_s -. 1.0) *. 100.0)
        | Some s, Some base_s ->
            Printf.printf "timer rapid.rank %.2fs vs baseline %.2fs ok\n" s
              base_s
        | _ -> ()
      end

let () =
  let path = if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH.json" in
  let baseline = if Array.length Sys.argv > 2 then Some Sys.argv.(2) else None in
  let doc =
    try Json.of_file path
    with
    | Json.Parse_error msg ->
        Printf.eprintf "FAIL: %s does not parse: %s\n" path msg;
        exit 1
    | Sys_error msg ->
        Printf.eprintf "FAIL: cannot read %s: %s\n" path msg;
        exit 1
  in
  (match Json.member "schema" doc with
  | Some (Json.String "rapid-bench/1") -> ()
  | Some j -> fail "schema is %s, want \"rapid-bench/1\"" (Json.to_string j)
  | None -> fail "missing \"schema\"");
  (match Json.member "artifacts" doc with
  | Some (Json.List (_ :: _ as items)) ->
      List.iter
        (fun item ->
          match (Json.member "id" item, Json.member "wall_s" item) with
          | Some (Json.String id), Some (Json.Float s) ->
              Printf.printf "artifact %-10s %.2fs\n" id s
          | _ -> fail "artifact entry %s lacks id/wall_s" (Json.to_string item))
        items
  | Some _ -> fail "\"artifacts\" empty or not a list"
  | None -> fail "missing \"artifacts\"");
  let counter name =
    match Json.member "counters" doc with
    | Some counters -> (
        match Json.member name counters with
        | Some (Json.Int v) -> Some v
        | Some _ | None -> None)
    | None -> None
  in
  (match counter "meeting_matrix.row_builds" with
  | Some v -> Printf.printf "meeting_matrix.row_builds = %d\n" v
  | None -> fail "missing counter \"meeting_matrix.row_builds\"");
  if counter "rapid.rank_calls" = None then
    fail "missing counter \"rapid.rank_calls\"";
  (* Indexed-buffer / send-queue instrumentation: on-demand id sorts and
     per-contact planning register at module init, so the keys must be
     present in any run. *)
  List.iter
    (fun name ->
      match counter name with
      | Some v -> Printf.printf "%s = %d\n" name v
      | None -> fail "missing counter \"%s\"" name)
    [ "buffer.rebuilds"; "send_queue.plans" ];
  (* Solver instrumentation: the sparse revised simplex (and its LU /
     presolve layers) and the branch-and-bound layer each register their
     hot-path counters at module init, so they must be present (possibly
     zero) in any run. *)
  List.iter
    (fun name ->
      match counter name with
      | Some v -> Printf.printf "%s = %d\n" name v
      | None -> fail "missing counter \"%s\"" name)
    [
      "lp.pivots"; "lp.phase1_iters"; "lp.bound_flips"; "lp.iter_limits";
      "lp.cold_solves"; "lp.refactorizations"; "lp.eta_updates";
      "lp.presolve_cols_removed"; "lp.presolve_rows_removed";
      "ilp.nodes"; "ilp.warm_starts"; "ilp.unconverged";
    ];
  (* Fault-injection counters: the bench harness forces their registration
     at startup, so they must be present (zero when no faults are run). *)
  List.iter
    (fun name ->
      match counter name with
      | Some v -> Printf.printf "%s = %d\n" name v
      | None -> fail "missing counter \"%s\"" name)
    [
      "faults.reboots"; "faults.reboot_lost_packets";
      "faults.contacts_suppressed"; "faults.contacts_truncated";
      "faults.truncated_bytes_lost"; "faults.meta_drops";
    ];
  (* Point-store counters: likewise force-registered by the bench harness,
     so present (zero for uncached runs) in every BENCH.json. *)
  List.iter
    (fun name ->
      match counter name with
      | Some v -> Printf.printf "%s = %d\n" name v
      | None -> fail "missing counter \"%s\"" name)
    [ "store.hits"; "store.misses"; "store.writes"; "store.corrupt_cells" ];
  let timer name =
    match Json.member "timers" doc with
    | Some timers -> (
        match Json.member name timers with
        | Some t -> (
            match (Json.member "total_s" t, Json.member "count" t) with
            | Some (Json.Float total), Some (Json.Int n) -> Some (total, n)
            | _ -> None)
        | None -> None)
    | None -> None
  in
  List.iter
    (fun name ->
      match timer name with
      | Some (total, n) -> Printf.printf "timer %-26s %.3fs / %d\n" name total n
      | None -> fail "missing timer \"%s\" (total_s/count)" name)
    [ "meeting_matrix.row_build"; "rapid.rank"; "lp.solve" ];
  (* GC stats of the artifact reproductions: allocation-flattening work is
     validated through these when wall clocks are too noisy. *)
  (match Json.member "gc" doc with
  | Some gc ->
      List.iter
        (fun name ->
          match Json.member name gc with
          | Some (Json.Float v) -> Printf.printf "gc.%s = %.3e\n" name v
          | Some _ | None -> fail "gc block lacks \"%s\"" name)
        [
          "minor_words"; "promoted_words"; "major_words";
          "minor_collections"; "major_collections";
        ]
  | None -> fail "missing \"gc\" block");
  (* The Eq. 9 microbench must exist (its numbers are not gated — too
     noisy in CI — but it times the sum every believed-rate read runs, so
     its disappearance means that benchmark was dropped). *)
  (match Json.member "microbench" doc with
  | Some (Json.List items) ->
      let has_eq9 =
        List.exists
          (fun item ->
            match Json.member "name" item with
            | Some (Json.String name) ->
                name = "primitives/estimate-delay Eq.9 (8 holders)"
            | _ -> false)
          items
      in
      if not has_eq9 then
        fail "missing microbench \"primitives/estimate-delay Eq.9 (8 holders)\""
  | Some _ | None -> fail "missing \"microbench\" list");
  Option.iter (compare_baseline doc) baseline;
  if !errors > 0 then begin
    Printf.eprintf "%s: %d schema error(s)\n" path !errors;
    exit 1
  end;
  Printf.printf "%s: schema ok\n" path
