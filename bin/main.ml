(* rapid — command-line driver for the RAPID reproduction.

   Subcommands:
     list                      enumerate reproducible figures/tables
     figure -i fig4 [...]      reproduce one artifact
     run [...]                 one simulation, one protocol, printed report
     trace [...]               generate synthetic DieselNet days to files
     cache stats|gc|clear      inspect/maintain a --cache-dir point store
     hardness                  run the appendix constructions *)

open Cmdliner
open Rapid_experiments

let profile_conv =
  let parse = function
    | "quick" -> Ok Params.Quick
    | "full" -> Ok Params.Full
    | s -> Error (`Msg (Printf.sprintf "unknown profile %S (quick|full)" s))
  in
  let print fmt p =
    Format.pp_print_string fmt
      (match p with Params.Quick -> "quick" | Params.Full -> "full")
  in
  Arg.conv (parse, print)

let profile_arg =
  Arg.(
    value
    & opt profile_conv Params.Quick
    & info [ "p"; "profile" ] ~docv:"PROFILE"
        ~doc:"Experiment profile: quick (scaled, default) or full (paper scale).")

let profile_string = function Params.Quick -> "quick" | Params.Full -> "full"

(* Bad input exits 2 with a one-line diagnostic (see the entry point at
   the bottom). The converters below catch what can be checked before any
   work starts: an output file whose directory does not exist would
   otherwise fail only after the whole artifact was computed. *)
let out_file_conv =
  let parse path =
    let dir = Filename.dirname path in
    if Sys.file_exists dir && Sys.is_directory dir then Ok path
    else Error (`Msg (Printf.sprintf "no such directory %S" dir))
  in
  Arg.conv (parse, Format.pp_print_string)

let checked_conv ~expected of_string ok pp =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | Some _ | None ->
        Error (`Msg (Printf.sprintf "invalid value %S, expected %s" s expected))
  in
  Arg.conv (parse, pp)

let count_conv =
  checked_conv ~expected:"a non-negative integer" int_of_string_opt
    (fun n -> n >= 0)
    Format.pp_print_int

let load_conv =
  checked_conv ~expected:"a non-negative finite number" float_of_string_opt
    (fun v -> Float.is_finite v && v >= 0.0)
    Format.pp_print_float

let json_arg =
  Arg.(
    value
    & opt (some out_file_conv) None
    & info [ "json" ] ~docv:"PATH"
        ~doc:"Also write the result as machine-readable JSON to $(docv).")

let faults_conv =
  let parse s =
    match Rapid_faults.Faults.parse s with
    | Ok c -> Ok c
    | Error e -> Error (`Msg e)
  in
  let print fmt c =
    Format.pp_print_string fmt (Rapid_faults.Faults.spec_string c)
  in
  Arg.conv (parse, print)

let faults_arg =
  Arg.(
    value
    & opt faults_conv Rapid_faults.Faults.none
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:
          "Deterministic fault injection, e.g. \
           'reboots=1,truncate=0.2,metaloss=0.1,noshow=0.05,seed=7'. \
           Keys are optional; all-zero rates (the default) run the plain \
           engine bit-identically. The fault stream derives from \
           (SPEC seed, run seed, trace), so reports stay bit-identical \
           across --jobs settings.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Persistent point store: look experiment points up under \
           $(docv) (created if needed) before computing them, and write \
           freshly computed points back, so interrupted sweeps resume \
           where they stopped and warm reruns are near-instant. Off by \
           default; results are byte-identical either way. Safe to \
           combine with --jobs and to share between processes.")

(* The `store:` traffic line is part of the CLI contract (ci greps it);
   printed only when a store is attached, so plain runs are unchanged. *)
let report_store_traffic () =
  match Runners.cache_store () with
  | None -> ()
  | Some _ ->
      let open Rapid_store.Store in
      Printf.printf "store: hits=%d misses=%d writes=%d corrupt_cells=%d\n"
        (hits ()) (misses ()) (writes ()) (corrupt_cells ())

(* Parallelism only changes wall time: every simulation cell is seeded
   explicitly, and the worker pool preserves result order, so reports
   (and the JSON artifacts) are bit-identical across --jobs settings. *)
let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Run independent simulation cells (days, seeds) on $(docv) \
           domains; 1 (default) is fully sequential. Results are \
           bit-identical for every value of $(docv).")

(* ------------------------------------------------------------------ *)

let list_cmd =
  let doc = "List every reproducible table and figure." in
  let run () =
    List.iter
      (fun (i : Catalog.item) -> Printf.printf "%-8s %s\n" i.Catalog.id i.Catalog.title)
      Catalog.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let figure_cmd =
  let doc = "Reproduce one figure or table from the paper." in
  let id_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "i"; "id" ] ~docv:"ID" ~doc:"Artifact id, e.g. fig4 or table3.")
  in
  let run profile id json_path jobs cache_dir =
    Rapid_par.Pool.set_jobs jobs;
    Runners.set_cache_dir cache_dir;
    match Catalog.find id with
    | None ->
        Printf.eprintf "unknown artifact %S; valid ids:\n" id;
        List.iter
          (fun (i : Catalog.item) -> Printf.eprintf "  %s\n" i.Catalog.id)
          Catalog.all;
        exit 2
    | Some item ->
        let params = Params.get profile in
        print_endline (Catalog.params_header params);
        print_newline ();
        let open Rapid_obs in
        let out = item.Catalog.render params in
        print_string (Catalog.output_text out);
        Option.iter
          (fun path ->
            Json.to_file path
              (Json.Obj
                 [
                   ("schema", Json.String "rapid-figure/1");
                   ("profile", Json.String (profile_string profile));
                   ("artifact", Catalog.output_json item out);
                   ("counters", Counter.to_json ());
                 ]);
            Printf.printf "wrote %s\n" path)
          json_path;
        report_store_traffic ()
  in
  Cmd.v (Cmd.info "figure" ~doc)
    Term.(
      const run $ profile_arg $ id_arg $ json_arg $ jobs_arg $ cache_dir_arg)

(* ------------------------------------------------------------------ *)

let protocol_names =
  [ "rapid"; "rapid-global"; "rapid-local"; "maxprop"; "spraywait";
    "prophet"; "random"; "random-acks"; "epidemic"; "direct" ]

let metric_names = [ "avg"; "max"; "deadline" ]

(* An unknown name on the command line lists the valid ones and exits 2,
   as an unknown artifact id does. *)
let unknown_name what name valid =
  Printf.eprintf "unknown %s %S; valid names:\n" what name;
  List.iter (Printf.eprintf "  %s\n") valid;
  exit 2

let protocol_conv metric =
  let open Rapid_core in
  function
  | "rapid" -> Runners.rapid metric
  | "rapid-global" ->
      Runners.rapid_with ~label:"RAPID(global)"
        {
          (Rapid.default_params metric) with
          Rapid.channel = Control_channel.Instant_global;
        }
  | "rapid-local" ->
      Runners.rapid_with ~label:"RAPID(local)"
        {
          (Rapid.default_params metric) with
          Rapid.channel = Control_channel.Local_only;
        }
  | "maxprop" -> Runners.maxprop
  | "spraywait" -> Runners.spray_wait
  | "prophet" -> Runners.prophet
  | "random" -> Runners.random
  | "random-acks" -> Runners.random_acks
  | "epidemic" ->
      {
        Runners.label = "Epidemic";
        cache_id = "epidemic";
        make = (fun () -> Rapid_routing.Epidemic.make ());
      }
  | "direct" ->
      { Runners.label = "Direct"; cache_id = "direct";
        make = (fun () -> Rapid_routing.Direct.make ()) }
  | name -> unknown_name "protocol" name protocol_names

let metric_of_string = function
  | "avg" -> Rapid_core.Metric.Average_delay
  | "max" -> Rapid_core.Metric.Maximum_delay
  | "deadline" -> Rapid_core.Metric.Missed_deadlines
  | name -> unknown_name "metric" name metric_names

let run_cmd =
  let doc = "Run one protocol over synthetic DieselNet days and print the report." in
  let proto_arg =
    Arg.(
      value & opt string "rapid"
      & info [ "protocol" ] ~docv:"NAME"
          ~doc:(String.concat " | " protocol_names))
  in
  let metric_arg =
    Arg.(
      value & opt string "avg"
      & info [ "metric" ] ~docv:"METRIC" ~doc:("RAPID metric: " ^ String.concat " | " metric_names ^ "."))
  in
  let load_arg =
    Arg.(
      value & opt load_conv 6.0
      & info [ "load" ] ~docv:"PKTS" ~doc:"Packets per hour per destination.")
  in
  let trace_file_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:"Run on a contact trace file instead of synthetic days.")
  in
  let events_arg =
    Arg.(
      value
      & opt (some out_file_conv) None
      & info [ "events" ] ~docv:"PATH"
          ~doc:
            "Stream every simulation event (contacts, transfers, \
             deliveries, drops, ack purges, metadata) as JSON lines to \
             $(docv). Bypasses the in-process point cache.")
  in
  let run profile proto metric_name load trace_file json_path events_path jobs
      faults cache_dir =
    Rapid_par.Pool.set_jobs jobs;
    Runners.set_cache_dir cache_dir;
    let spec = protocol_conv (metric_of_string metric_name) proto in
    let params = Params.get profile in
    (* A malformed trace file is bad input: one line on stderr, exit 2. *)
    let file_trace =
      Option.map
        (fun path ->
          try Rapid_trace.Trace_io.load path
          with Failure msg ->
            Printf.eprintf "rapid: %s: %s\n" path msg;
            exit 2)
        trace_file
    in
    let with_tracer f =
      match events_path with
      | None -> f Rapid_obs.Tracer.null
      | Some path ->
          let oc = open_out path in
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> f (Rapid_obs.Tracer.Jsonl.tracer oc))
    in
    let reports =
      with_tracer (fun tracer ->
          match file_trace with
          | Some trace ->
              let rng =
                Rapid_prelude.Rng.create params.Params.base_seed
              in
              let workload =
                Rapid_trace.Workload.generate rng ~trace
                  ~pkts_per_hour_per_dest:load
                  ~size:params.Params.trace_packet_bytes
                  ~lifetime:params.Params.trace_deadline ()
              in
              [
                (Rapid_sim.Engine.run ~tracer
                   ~options:
                     {
                       Rapid_sim.Engine.default_options with
                       Rapid_sim.Engine.faults;
                     }
                   ~protocol:(spec.Runners.make ()) ~trace ~workload ())
                  .Rapid_sim.Engine.report;
              ]
          | None ->
              if Rapid_obs.Tracer.enabled tracer then
                (* Tracing needs live runs, not cached reports —
                   and a single ordered event stream, so this
                   path stays sequential regardless of --jobs. *)
                List.init params.Params.days (fun day ->
                    let trace = Runners.trace_day ~params ~day in
                    let workload =
                      Runners.trace_workload ~params ~trace ~load ~day
                    in
                    (Rapid_sim.Engine.run ~tracer
                       ~options:
                         {
                           Rapid_sim.Engine.buffer_bytes =
                             params.Params.trace_buffer_bytes;
                           meta_cap_frac = None;
                           seed = params.Params.base_seed + day;
                           faults;
                         }
                       ~protocol:(spec.Runners.make ()) ~trace ~workload
                       ())
                      .Rapid_sim.Engine.report)
              else
                Runners.run_trace_point ~params ~protocol:spec ~load
                  ~spec:{ Runners.default_spec with Runners.faults }
                  ())
    in
    List.iteri
      (fun day r ->
        Format.printf "day %d %s: %a@." day spec.Runners.label
          Rapid_sim.Metrics.pp_report r)
      reports;
    Option.iter
      (fun path ->
        let open Rapid_obs in
        Json.to_file path
          (Json.Obj
             [
               ("schema", Json.String "rapid-run/1");
               ("protocol", Json.String spec.Runners.label);
               ("metric", Json.String metric_name);
               ("load", Json.Float load);
               ("profile", Json.String (profile_string profile));
               ( "reports",
                 Json.List
                   (List.map Rapid_sim.Metrics.report_to_json reports)
               );
               ("counters", Counter.to_json ());
             ]);
        Printf.printf "wrote %s\n" path)
      json_path;
    report_store_traffic ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ profile_arg $ proto_arg $ metric_arg $ load_arg
      $ trace_file_arg $ json_arg $ events_arg $ jobs_arg $ faults_arg
      $ cache_dir_arg)

(* ------------------------------------------------------------------ *)

let trace_cmd =
  let doc = "Generate synthetic DieselNet contact traces to files." in
  let days_arg =
    Arg.(
      value & opt count_conv 5
      & info [ "days" ] ~docv:"N" ~doc:"Number of days.")
  in
  let seed_arg =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Generator seed.")
  in
  let out_arg =
    Arg.(
      value & opt string "traces"
      & info [ "out" ] ~docv:"DIR" ~doc:"Output directory (created if needed).")
  in
  let run profile days seed out =
    let params = Params.get profile in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    List.iteri
      (fun d trace ->
        let path = Filename.concat out (Printf.sprintf "day-%02d.trace" d) in
        Rapid_trace.Trace_io.save path trace;
        Format.printf "%s: %a@." path Rapid_trace.Trace.pp_summary trace)
      (Rapid_trace.Dieselnet.days ~params:params.Params.dieselnet ~seed ~n:days ())
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(const run $ profile_arg $ days_arg $ seed_arg $ out_arg)

(* ------------------------------------------------------------------ *)

let ttest_cmd =
  let doc =
    "Paired t-test of per-pair delays between two protocols (the paper's \
     §6.2.1 methodology)."
  in
  let proto a default =
    Arg.(
      value & opt string default
      & info [ a ] ~docv:"NAME" ~doc:"Protocol (see `run --protocol`).")
  in
  let load_arg =
    Arg.(
      value & opt load_conv 12.0
      & info [ "load" ] ~docv:"PKTS" ~doc:"Packets per hour per destination.")
  in
  let run profile a b load =
    let metric = Rapid_core.Metric.Average_delay in
    let sa = protocol_conv metric a and sb = protocol_conv metric b in
    let params = Params.get profile in
    let result = Pair_ttest.compare_protocols ~params ~a:sa ~b:sb ~load in
    print_string
      (Pair_ttest.render ~a_label:sa.Runners.label ~b_label:sb.Runners.label
         ~load result)
  in
  Cmd.v (Cmd.info "ttest" ~doc)
    Term.(const run $ profile_arg $ proto "a" "rapid" $ proto "b" "maxprop" $ load_arg)

let cache_cmd =
  let doc = "Inspect and maintain a persistent point store (see --cache-dir)." in
  let dir_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"The point-store directory (as passed to figure/run).")
  in
  let stats_cmd =
    let sdoc = "Print cell count, total bytes, and leftover temp files." in
    let run dir =
      let s = Rapid_store.Store.open_dir dir in
      let st = Rapid_store.Store.stats s in
      Printf.printf "dir         %s\n" (Rapid_store.Store.dir s);
      Printf.printf "cells       %d\n" st.Rapid_store.Store.cells;
      Printf.printf "bytes       %d\n" st.Rapid_store.Store.bytes;
      Printf.printf "tmp_files   %d\n" st.Rapid_store.Store.tmp_files
    in
    Cmd.v (Cmd.info "stats" ~doc:sdoc) Term.(const run $ dir_arg)
  in
  let gc_cmd =
    let sdoc =
      "Evict oldest cells until the store fits under a size bound (and \
       sweep crash-leftover temp files)."
    in
    let max_bytes_arg =
      Arg.(
        required
        & opt (some int) None
        & info [ "max-bytes" ] ~docv:"N"
            ~doc:"Target size bound for the store's cells, in bytes.")
    in
    let run dir max_bytes =
      let s = Rapid_store.Store.open_dir dir in
      let removed, freed = Rapid_store.Store.gc s ~max_bytes in
      Printf.printf "evicted %d cells (%d bytes)\n" removed freed
    in
    Cmd.v (Cmd.info "gc" ~doc:sdoc) Term.(const run $ dir_arg $ max_bytes_arg)
  in
  let clear_cmd =
    let sdoc = "Delete every cell in the store." in
    let run dir =
      let s = Rapid_store.Store.open_dir dir in
      Printf.printf "removed %d cells\n" (Rapid_store.Store.clear s)
    in
    Cmd.v (Cmd.info "clear" ~doc:sdoc) Term.(const run $ dir_arg)
  in
  Cmd.group (Cmd.info "cache" ~doc) [ stats_cmd; gc_cmd; clear_cmd ]

let hardness_cmd =
  let doc = "Exercise the appendix hardness constructions." in
  let run () =
    let open Rapid_hardness in
    Printf.printf "Theorem 1(a): online ALG vs adversary (n = 16)\n";
    List.iter
      (fun (name, alg) ->
        let o = Online_adversary.run ~n:16 ~alg in
        Printf.printf "  ALG=%-12s delivered %d/16; ADV delivered %d/16\n" name
          o.Online_adversary.alg_delivered o.Online_adversary.adv_delivered)
      [
        ("spread", Online_adversary.spread);
        ("flood-first", Online_adversary.replicate_first);
        ("modulo-4", Online_adversary.greedy_modulo 4);
      ];
    Printf.printf "\nTheorem 1(b): gadget delivery-rate bound i/(3i-1)\n";
    List.iter
      (fun i ->
        Printf.printf "  depth %-3d -> ALG rate <= %.4f\n" i (Gadget.depth_ratio i))
      [ 1; 2; 3; 10; 100 ];
    Printf.printf "\nTheorem 2: EDP reduction on the diamond DAG\n";
    let diamond =
      { Edp_reduction.num_vertices = 4; edges = [ (0, 1); (1, 3); (0, 2); (2, 3) ] }
    in
    let pairs = [ (0, 3); (0, 3); (0, 3) ] in
    let edp = Edp_reduction.max_edge_disjoint_paths diamond ~pairs in
    let trace, workload = Edp_reduction.to_dtn diamond ~pairs in
    let dtn = Edp_reduction.max_deliveries_brute trace workload in
    let ilp =
      Rapid_routing.Optimal.evaluate ~objective:Rapid_routing.Optimal.Max_deliveries
        ~trace ~workload ()
    in
    Printf.printf
      "  max edge-disjoint paths = %d; DTN max deliveries (brute) = %d; ILP = %d\n"
      edp dtn ilp.Rapid_routing.Optimal.delivered
  in
  Cmd.v (Cmd.info "hardness" ~doc) Term.(const run $ const ())

(* Every bad input exits 2: a malformed flag (cmdliner's own code for it
   is 124), a file the OS refuses to open or create (a [Sys_error], one
   line on stderr instead of cmdliner's internal-error trace) and a
   malformed [run --trace] file (caught where it is loaded). Other
   exceptions are bugs and keep cmdliner's internal-error code, 125. *)
let () =
  let doc = "RAPID: DTN routing as a resource allocation problem (reproduction)" in
  let info = Cmd.info "rapid" ~version:"1.0.0" ~doc in
  let cmd =
    Cmd.group info
      [
        list_cmd; figure_cmd; run_cmd; trace_cmd; ttest_cmd; cache_cmd;
        hardness_cmd;
      ]
  in
  let code =
    try Cmd.eval ~catch:false cmd with
    | Sys_error msg ->
        Printf.eprintf "rapid: %s\n" msg;
        2
    | e ->
        Printf.eprintf "rapid: internal error, uncaught exception:\n  %s\n"
          (Printexc.to_string e);
        Cmd.Exit.internal_error
  in
  exit (if code = Cmd.Exit.cli_error then 2 else code)
