(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (printing the same rows/series the paper plots), then runs
   Bechamel microbenchmarks of the core primitives. Besides the printed
   output it writes a machine-readable BENCH.json (per-artifact wall
   times, microbenchmark ns/run estimates and hot-path counters) so perf
   regressions can be diffed across commits.

   Usage:
     dune exec bench/main.exe                 # quick profile, everything
     dune exec bench/main.exe -- fig4 fig5    # a subset
     dune exec bench/main.exe -- --jobs 4 fig4     # parallel figure cells
     dune exec bench/main.exe -- --cache-dir .rapid-cache fig4  # point store
     RAPID_PROFILE=full dune exec bench/main.exe   # paper-scale (slow)
     RAPID_BENCH_OUT=out.json dune exec bench/main.exe  # JSON elsewhere *)

open Rapid_experiments
module Json = Rapid_obs.Json
module Counter = Rapid_obs.Counter
module Timer = Rapid_obs.Timer

let profile () =
  match Sys.getenv_opt "RAPID_PROFILE" with
  | Some "full" -> Params.Full
  | Some "quick" | None -> Params.Quick
  | Some other ->
      Printf.eprintf "unknown RAPID_PROFILE=%S, using quick\n" other;
      Params.Quick

let profile_name = function Params.Quick -> "quick" | Params.Full -> "full"

(* Split "--jobs N" (or -j N) and "--cache-dir DIR" out of argv; the rest
   are artifact ids. Counter/timer totals in BENCH.json are merge-exact,
   so they match the sequential run's for any job count. *)
let parse_args argv =
  let rec go jobs cache_dir ids = function
    | [] -> (jobs, cache_dir, List.rev ids)
    | ("--jobs" | "-j") :: n :: rest -> (
        match int_of_string_opt n with
        | Some j when j >= 1 && j <= Rapid_par.Pool.max_jobs ->
            go j cache_dir ids rest
        | Some _ | None ->
            Printf.eprintf "bad --jobs %S (want an integer in 1..%d)\n" n
              Rapid_par.Pool.max_jobs;
            exit 2)
    | [ ("--jobs" | "-j") ] ->
        prerr_endline "--jobs needs a value";
        exit 2
    | "--cache-dir" :: dir :: rest -> go jobs (Some dir) ids rest
    | [ "--cache-dir" ] ->
        prerr_endline "--cache-dir needs a value";
        exit 2
    | id :: rest -> go jobs cache_dir (id :: ids) rest
  in
  go 1 None [] (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* Figure / table reproductions *)

let run_artifacts params ids =
  let items =
    match ids with
    | [] -> Catalog.all
    | ids ->
        List.filter_map
          (fun id ->
            match Catalog.find id with
            | Some item -> Some item
            | None ->
                Printf.eprintf "unknown artifact %S (skipped)\n" id;
                None)
          ids
  in
  print_endline (Catalog.params_header params);
  print_newline ();
  List.map
    (fun (item : Catalog.item) ->
      let timer = Timer.create ("artifact." ^ item.Catalog.id) in
      let out = Timer.time timer (fun () -> item.Catalog.render params) in
      print_string (Catalog.output_text out);
      let wall_s = Timer.total_s timer in
      Printf.printf "  (%s took %.1fs)\n\n%!" item.Catalog.id wall_s;
      (item.Catalog.id, wall_s))
    items

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks of the primitives underlying every figure *)

let microbenchmarks () =
  let open Bechamel in
  let open Rapid_prelude in
  let pqueue_test =
    Test.make ~name:"pqueue push+pop 1k"
      (Staged.stage (fun () ->
           let q = Pqueue.create () in
           for i = 0 to 999 do
             Pqueue.push q (float_of_int ((i * 7919) mod 1000)) i
           done;
           let rec drain () = match Pqueue.pop q with Some _ -> drain () | None -> () in
           drain ()))
  in
  let estimate_test =
    Test.make ~name:"estimate-delay Eq.9 (8 holders)"
      (Staged.stage (fun () ->
           let rate = ref 0.0 in
           for j = 1 to 8 do
             rate :=
               !rate
               +. Rapid_core.Rapid.rate_of_holder
                    ~meeting_time:(float_of_int (60 * j))
                    ~n_meet:j
           done;
           ignore (Rapid_core.Rapid.expected_delay ~rate:!rate)))
  in
  let matrix = Rapid_core.Meeting_matrix.create ~num_nodes:40 in
  let rng = Rng.create 5 in
  let () =
    for _ = 1 to 400 do
      let a = Rng.int rng 40 in
      let b = (a + 1 + Rng.int rng 39) mod 40 in
      if a <> b then
        Rapid_core.Meeting_matrix.observe matrix ~now:(Rng.float rng *. 1e4) ~a ~b
    done
  in
  let row_clock = ref 1e9 in
  let closure_test =
    Test.make ~name:"meeting-matrix 3-hop row build (40 nodes)"
      (Staged.stage (fun () ->
           (* Advance time so the observed gap is positive — a same-instant
              repeat meeting no longer invalidates — then query to force
              one lazy row build. *)
           row_clock := !row_clock +. 1.0;
           Rapid_core.Meeting_matrix.observe matrix ~now:!row_clock ~a:0 ~b:1;
           ignore (Rapid_core.Meeting_matrix.expected_meeting_time matrix 2 3)))
  in
  let simplex_test =
    Test.make ~name:"simplex 10x12 LP"
      (Staged.stage (fun () ->
           let open Rapid_lp in
           let p = Lp_problem.create ~num_vars:12 in
           Lp_problem.set_objective p (List.init 12 (fun i -> (i, -1.0 -. float_of_int (i mod 3))));
           for r = 0 to 9 do
             Lp_problem.add_constraint p
               (List.init 12 (fun i -> (i, float_of_int (((r * i) mod 5) + 1))))
               Lp_problem.Le 50.0
           done;
           ignore (Simplex.solve p)))
  in
  (* A deterministic binary program shaped like the fig13 instances: packing
     rows whose LP relaxation is fractional, so branch-and-bound must
     actually branch. The same logical instance across solver generations
     (upper bounds were dense rows before the bounded-variable rewrite). *)
  let ilp_test =
    let build () =
      let open Rapid_lp in
      let nv = 48 in
      let rng = Rng.create 11 in
      let p = Lp_problem.create ~num_vars:nv in
      Lp_problem.set_objective p
        (List.init nv (fun i -> (i, -1.0 -. Rng.float rng *. 4.0)));
      for _ = 0 to 11 do
        let coeffs =
          List.init nv (fun i -> (i, 1.0 +. Rng.float rng *. 3.0))
          |> List.filter (fun _ -> Rng.float rng < 0.6)
        in
        let width = float_of_int (List.length coeffs) in
        Lp_problem.add_constraint p coeffs Lp_problem.Le (0.35 *. 2.5 *. width)
      done;
      for v = 0 to nv - 1 do
        Lp_problem.set_upper p v 1.0;
        Lp_problem.mark_integer p v
      done;
      p
    in
    Test.make ~name:"ilp 48-var branch-and-bound"
      (Staged.stage (fun () ->
           let open Rapid_lp in
           match Ilp.solve ~max_nodes:400 (build ()) with
           | Ilp.Solved _ | Ilp.Infeasible | Ilp.Unbounded | Ilp.No_incumbent ->
               ()))
  in
  (* The sparse-solver cold path at primitive scale: a fig13-shaped LP —
     per-packet causality chains, receive-once packing rows, shared
     bandwidth rows and singleton rows for presolve to fold — solved from
     scratch every iteration, so each run pays one presolve, one LU
     factorization of the starting basis and a revised-simplex solve with
     eta updates. 240 columns x 274 rows, ~700 nonzeros. *)
  let sparse_lp_test =
    let open Rapid_lp in
    let np = 24 and na = 10 in
    let build () =
      let p = Lp_problem.create ~num_vars:(np * na) in
      let var pi ai = (pi * na) + ai in
      let rng = Rng.create 13 in
      Lp_problem.set_objective p
        (List.init (np * na) (fun i -> (i, -1.0 -. Rng.float rng *. 3.0)));
      (* Causality chains: each arc needs its predecessor, X_a <= X_{a-1}. *)
      for pi = 0 to np - 1 do
        for ai = 1 to na - 1 do
          Lp_problem.add_constraint p
            [ (var pi ai, 1.0); (var pi (ai - 1), -1.0) ]
            Lp_problem.Le 0.0
        done
      done;
      (* Bandwidth: arc slot ai is one shared contact across packets. *)
      for ai = 0 to na - 1 do
        Lp_problem.add_constraint p
          (List.init np (fun pi -> (var pi ai, 1.0)))
          Lp_problem.Le (float_of_int (2 + (ai mod 3)))
      done;
      (* Receive-once: the odd arc slots of a packet land on one node. *)
      for pi = 0 to np - 1 do
        Lp_problem.add_constraint p
          (List.init (na / 2) (fun k -> (var pi ((2 * k) + 1), 1.0)))
          Lp_problem.Le 1.0
      done;
      (* Singleton rows: presolve folds these into column bounds. *)
      for pi = 0 to np - 1 do
        Lp_problem.add_constraint p [ (var pi 0, 1.0) ] Lp_problem.Le 0.9
      done;
      for v = 0 to (np * na) - 1 do
        Lp_problem.set_upper p v 1.0
      done;
      p
    in
    Test.make ~name:"lp sparse presolve+LU solve (fig13-shaped)"
      (Staged.stage (fun () -> ignore (Simplex.solve (build ()))))
  in
  let convolve_test =
    Test.make ~name:"discrete-distribution convolution (400 cells)"
      (Staged.stage (fun () ->
           let d = Dist.Discrete.of_exponential ~dt:0.1 ~cells:400 ~mean:5.0 in
           ignore (Dist.Discrete.convolve d d)))
  in
  let send_queue_test =
    let open Rapid_sim in
    let env =
      Env.create ~num_nodes:2 ~duration:1e4 ~buffer_capacity:None ~seed:9
    in
    let () =
      for i = 0 to 63 do
        Buffer.add
          env.Env.buffers.(0)
          {
            Buffer.packet =
              {
                Packet.id = i;
                src = 0;
                dst = 1;
                size = 1024;
                created = float_of_int ((i * 37) mod 64);
                deadline = None;
              };
            received = 0.0;
            hops = 0;
          }
      done
    in
    let q = Send_queue.create () in
    (* Exercises the per-contact hot loop end to end: heapify the
       sender's buffer into the direction's arena, then pop all of it
       with one [next] call per packet, each checking its pop. *)
    Test.make ~name:"send-queue plan+serve (64-packet contact)"
      (Staged.stage (fun () ->
           Send_queue.begin_contact q;
           Send_queue.begin_plan q env ~sender:0 ~receiver:1;
           Send_queue.push_entries q ~cmp:Send_queue.by_age
             (Send_queue.candidates env ~sender:0 ~receiver:1);
           Send_queue.finish_plan q;
           let rec drain n =
             match
               Send_queue.next q env ~sender:0 ~receiver:1 ~budget:max_int
             with
             | Some _ -> drain (n + 1)
             | None -> n
           in
           ignore (drain 0)))
  in
  let engine_test =
    let trace =
      Rapid_mobility.Mobility.exponential (Rng.create 3) ~num_nodes:8
        ~mean_inter_meeting:60.0 ~duration:600.0 ~opportunity_bytes:10_240
    in
    let workload =
      Rapid_trace.Workload.generate (Rng.create 4) ~trace
        ~pkts_per_hour_per_dest:60.0 ~size:1024 ()
    in
    Test.make ~name:"engine: RAPID over 600s/8-node scenario"
      (Staged.stage (fun () ->
           ignore
             ((Rapid_sim.Engine.run
                 ~protocol:
                   (Rapid_core.Rapid.make_default Rapid_core.Metric.Average_delay)
                 ~trace ~workload ())
                .Rapid_sim.Engine.report)))
  in
  let tests =
    Test.make_grouped ~name:"primitives"
      [ pqueue_test; estimate_test; closure_test; simplex_test;
        sparse_lp_test; ilp_test; convolve_test; send_queue_test;
        engine_test ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let raw = Benchmark.all cfg [ instance ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols instance raw in
  let estimates =
    Hashtbl.fold
      (fun name result acc ->
        match Analyze.OLS.estimates result with
        | Some [ est ] -> (name, Some est) :: acc
        | Some _ | None -> (name, None) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  print_endline "== MICROBENCHMARKS (monotonic clock, ns/run) ==";
  List.iter
    (fun (name, est) ->
      match est with
      | Some est -> Printf.printf "%-46s %12.0f ns/run\n" name est
      | None -> Printf.printf "%-46s (no estimate)\n" name)
    estimates;
  estimates

let () =
  let jobs, cache_dir, ids = parse_args Sys.argv in
  Rapid_par.Pool.set_jobs jobs;
  (* Fault and store counters register lazily (on first fault / first
     handle open); force them so BENCH.json carries the faults.* and
     store.* keys (at zero) even for clean, uncached runs. *)
  Rapid_faults.Faults.register_counters ();
  Rapid_store.Store.register_counters ();
  Rapid_experiments.Runners.set_cache_dir cache_dir;
  let profile = profile () in
  let params = Params.get profile in
  let artifacts = run_artifacts params ids in
  (* Snapshot before the microbenchmarks: their iteration counts are
     time-quota dependent, so counters taken afterwards would vary run to
     run. Taken here they cover exactly the artifact reproductions —
     deterministic, and identical for any --jobs width. *)
  let counters = Counter.to_json () in
  let timers = Timer.to_json () in
  (* GC pressure of the artifact reproductions, snapshotted alongside the
     counters (before the microbenchmarks muddy it): allocation-flattening
     work in the hot paths shows up here as fewer promoted/minor words
     even when wall times are too noisy to compare. *)
  let gc =
    let s = Gc.quick_stat () in
    Json.Obj
      [
        ("minor_words", Json.Float s.Gc.minor_words);
        ("promoted_words", Json.Float s.Gc.promoted_words);
        ("major_words", Json.Float s.Gc.major_words);
        ("minor_collections", Json.Float (float_of_int s.Gc.minor_collections));
        ("major_collections", Json.Float (float_of_int s.Gc.major_collections));
      ]
  in
  let micro = microbenchmarks () in
  let out =
    Option.value (Sys.getenv_opt "RAPID_BENCH_OUT") ~default:"BENCH.json"
  in
  Json.to_file out
    (Json.Obj
       [
         ("schema", Json.String "rapid-bench/1");
         ("profile", Json.String (profile_name profile));
         ( "artifacts",
           Json.List
             (List.map
                (fun (id, wall_s) ->
                  Json.Obj
                    [ ("id", Json.String id); ("wall_s", Json.Float wall_s) ])
                artifacts) );
         ( "microbench",
           Json.List
             (List.map
                (fun (name, est) ->
                  Json.Obj
                    [
                      ("name", Json.String name);
                      ( "ns_per_run",
                        match est with
                        | Some e -> Json.Float e
                        | None -> Json.Null );
                    ])
                micro) );
         ("counters", counters);
         ("timers", timers);
         ("gc", gc);
       ]);
  Printf.printf "wrote %s\n" out
