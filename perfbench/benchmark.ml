(* The repository benchmark: named workloads, end-to-end metrics with
   regression bounds (BENCHMARK.json), and a traced run that splits every
   pass across the library layers.

   One workload runs in one single-threaded process as a closed loop: it
   runs one untimed warm-up pass, then repeats identical passes until
   --seconds have elapsed. A pass builds the workload's inputs from the
   seed (timed as set-up), then runs the engine or Optimal on them (timed
   as the run, in CPU time), and its outputs are checked. Between passes
   a fixed reference computation is timed, and a pass's run time is
   reported in units of the references either side of it. The per-layer
   numbers come from a separate --trace 1 run that times calls into each
   layer from here (a timing wrapper around each protocol, spans around
   Engine.run, Optimal.evaluate and the input generators) and reads the
   library's own Rapid_obs counters and timers; the library is not
   changed for it.

   Usage, from the repository root:
     dune exec perfbench/benchmark.exe                     # every workload
     dune exec perfbench/benchmark.exe -- --workload optimal --seed 7
     dune exec perfbench/benchmark.exe -- --workload trace-heavy --trace 1
     dune exec perfbench/benchmark.exe -- --workload optimal --out runs.jsonl
     dune exec perfbench/benchmark.exe -- --smoke BENCHMARK.json

   Each metric prints as "workload metric value unit"; the last line of
   standard output is one JSON object {correct, attempted, failed,
   metrics}. --out appends that object, with the workload, seed and trace
   flag, as one line of a results file that compare.exe reads. *)

open Rapid_prelude
open Rapid_trace
open Rapid_sim
module Runners = Rapid_experiments.Runners
module Params = Rapid_experiments.Params
module Fig_optimal = Rapid_experiments.Fig_optimal
module Optimal = Rapid_routing.Optimal
module Faults = Rapid_faults.Faults
module Json = Rapid_obs.Json
module Counter = Rapid_obs.Counter
module Timer = Rapid_obs.Timer

(* ------------------------------------------------------------------ *)
(* Spans *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* All fields are floats so the record is stored flat and the updates in
   [close] do not box: the traced run must allocate what the untraced
   run allocates. *)
type span = { mutable ns : float; mutable calls : float; mutable words : float }

let span () = { ns = 0.; calls = 0.; words = 0. }

let[@inline] close s t0 w0 =
  s.ns <- s.ns +. float_of_int (now_ns () - t0);
  s.words <- s.words +. (Gc.minor_words () -. w0);
  s.calls <- s.calls +. 1.

let time_span s f =
  let t0 = now_ns () and w0 = Gc.minor_words () in
  let r = f () in
  close s t0 w0;
  r

(* One span per Protocol.S callback. *)
type proto_spans = {
  create : span;
  on_created : span;
  on_contact : span;
  next_packet : span;
  on_transfer : span;
  drop_candidate : span;
  on_dropped : span;
  on_reboot : span;
}

let proto_spans () =
  {
    create = span ();
    on_created = span ();
    on_contact = span ();
    next_packet = span ();
    on_transfer = span ();
    drop_candidate = span ();
    on_dropped = span ();
    on_reboot = span ();
  }

let callback_spans p =
  [ p.create; p.on_created; p.on_contact; p.next_packet; p.on_transfer;
    p.drop_candidate; p.on_dropped; p.on_reboot ]

(* The protocol, with every callback timed. The bodies are written out
   rather than passed to a helper so no closure is allocated per call. *)
let timed (sp : proto_spans) (module P : Protocol.S) : Protocol.packed =
  (module struct
    type t = P.t

    let name = P.name

    let create env =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      let r = P.create env in
      close sp.create t0 w0;
      r

    let on_created st ~now p =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      P.on_created st ~now p;
      close sp.on_created t0 w0

    let on_contact st info =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      let r = P.on_contact st info in
      close sp.on_contact t0 w0;
      r

    let next_packet st ~now ~sender ~receiver ~budget =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      let r = P.next_packet st ~now ~sender ~receiver ~budget in
      close sp.next_packet t0 w0;
      r

    let on_transfer st ~now ~sender ~receiver p ~delivered =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      P.on_transfer st ~now ~sender ~receiver p ~delivered;
      close sp.on_transfer t0 w0

    let drop_candidate st ~now ~node ~incoming =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      let r = P.drop_candidate st ~now ~node ~incoming in
      close sp.drop_candidate t0 w0;
      r

    let on_dropped st ~now ~node p =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      P.on_dropped st ~now ~node p;
      close sp.on_dropped t0 w0

    let on_reboot st ~now ~node ~lost =
      let t0 = now_ns () and w0 = Gc.minor_words () in
      P.on_reboot st ~now ~node ~lost;
      close sp.on_reboot t0 w0
  end)

(* ------------------------------------------------------------------ *)
(* Workloads *)

(* The comparison set of Figs. 4-7, keyed by the per-layer metric prefix. *)
let protocols =
  [
    ("rapid", Runners.rapid Rapid_core.Metric.Average_delay);
    ("maxprop", Runners.maxprop);
    ("spraywait", Runners.spray_wait);
    ("random", Runners.random);
  ]

type job =
  | Sim of {
      proto : string;
      spec : Runners.protocol_spec;
      trace : Trace.t;
      workload : Workload.spec list;
      options : Engine.options;
    }
  | Opt of { trace : Trace.t; workload : Workload.spec list }

type output = Report of Metrics.report | Verdict of Optimal.verdict

(* Spans and sizes of one pass's input synthesis. *)
type setup = {
  trace_build : span;
  workload_generate : span;
  faults_plan : span;
  mutable contacts : int;
  mutable packets : int;
}

let new_setup () =
  {
    trace_build = span ();
    workload_generate = span ();
    faults_plan = span ();
    contacts = 0;
    packets = 0;
  }

let build_trace su f =
  let trace = time_span su.trace_build f in
  su.contacts <- su.contacts + Trace.num_contacts trace;
  trace

let build_workload su f =
  let workload = time_span su.workload_generate f in
  su.packets <- su.packets + List.length workload;
  workload

(* Every protocol of the comparison set on each (trace, workload,
   options) instance. The fault plan is drawn once more here, outside
   Engine.run, so its cost shows as its own span. *)
let sim_jobs su instances =
  List.concat_map
    (fun (trace, workload, (options : Engine.options)) ->
      ignore
        (time_span su.faults_plan (fun () ->
             Faults.plan options.Engine.faults ~run_seed:options.Engine.seed
               ~trace));
      List.map
        (fun (proto, spec) -> Sim { proto; spec; trace; workload; options })
        protocols)
    instances

(* Everything but the traffic is fixed, as it would be in a recorded
   deployment: the contact traces (the quick profile's DieselNet days and
   Table-4 power-law traces, from its base seed 42), the fault plans and
   the engine seeds behind the protocols' random choices. The run seed
   draws the traffic. Holding the rest keeps the amount of work steady
   from seed to seed; at seed 42 the DieselNet runs are the figures'. *)
let profile = Params.get Params.Quick
let base_seed = profile.Params.base_seed
let traffic seed = { profile with Params.base_seed = seed }

(* The quick profile's DieselNet days at one load: 1 KB packets, 54-min
   deadline, unlimited storage. *)
let trace_days su ~seed ~days ~load ~faults =
  sim_jobs su
    (List.map
       (fun day ->
         let trace =
           build_trace su (fun () -> Runners.trace_day ~params:profile ~day)
         in
         let workload =
           build_workload su (fun () ->
               Runners.trace_workload ~params:(traffic seed) ~trace ~load ~day)
         in
         ( trace,
           workload,
           {
             Engine.buffer_bytes = profile.Params.trace_buffer_bytes;
             meta_cap_frac = None;
             seed = base_seed + day;
             faults;
           } ))
       days)

(* Traffic at [rate] packets per hour per ordered pair in which each
   pair's count is its expectation rounded up or down at random, with
   creation times independent and uniform over the horizon: a Poisson
   process conditioned (up to rounding) on its count. Work grows faster
   than the packet count for RAPID and for the ILP, so a Poisson count's
   seed-to-seed spread would dominate the workload's. *)
let paired_traffic rng ~(trace : Trace.t) ~rate ~size ~lifetime =
  let mean = rate *. trace.Trace.duration /. 3600. in
  let nodes = Array.to_list trace.Trace.active in
  List.concat_map
    (fun src ->
      List.concat_map
        (fun dst ->
          if src = dst then []
          else
            let n =
              int_of_float mean
              + if Rng.float rng < Float.rem mean 1. then 1 else 0
            in
            List.init n (fun _ ->
                let created = Rng.float rng *. trace.Trace.duration in
                { Workload.src; dst; size; created;
                  deadline = Some (created +. lifetime) }))
        nodes)
    nodes
  |> List.stable_sort (fun a b ->
         Float.compare a.Workload.created b.Workload.created)

(* Table 4's power-law scenario (20 nodes, 100 KB opportunities, 20 pkt
   per 50 s per destination) with 100 KB buffers, as [episodes] short
   runs, each on its own fixed trace, whose horizon holds exactly
   [per_pair] packets per ordered pair at that load. *)
let powerlaw su ~seed ~episodes ~per_pair =
  let p = profile in
  let rate = Params.syn_pair_rate_per_hour p 20.0 in
  let duration = float_of_int per_pair *. 3600. /. rate in
  sim_jobs su
    (List.init episodes (fun i ->
         let trace =
           build_trace su (fun () ->
               Rapid_mobility.Mobility.powerlaw
                 (Rng.create (base_seed + i))
                 ~num_nodes:p.Params.syn_nodes
                 ~mean_inter_meeting:p.Params.syn_mean_inter_meeting ~duration
                 ~opportunity_bytes:p.Params.syn_opportunity_bytes ())
         in
         let workload =
           build_workload su (fun () ->
               paired_traffic
                 (Rng.create ((seed * 1000) + i))
                 ~trace ~rate ~size:p.Params.syn_packet_bytes
                 ~lifetime:p.Params.syn_deadline)
         in
         ( trace,
           workload,
           {
             Engine.buffer_bytes = Some p.Params.syn_buffer_bytes;
             meta_cap_frac = None;
             seed = base_seed + i;
             faults = Faults.none;
           } )))

(* Day slices as Fig. 13 cuts them (the first [frac] of a day), each
   with the traffic of one load. *)
let optimal_slices su ~seed slices =
  List.concat_map
    (fun (frac, load, days) ->
      List.map
        (fun day ->
          let trace =
            build_trace su (fun () ->
                Fig_optimal.day_slice ~params:profile ~day ~frac)
          in
          let workload =
            build_workload su (fun () ->
                paired_traffic
                  (Rng.create ((seed * 65537) + day))
                  ~trace ~rate:load ~size:profile.Params.trace_packet_bytes
                  ~lifetime:profile.Params.trace_deadline)
          in
          Opt { trace; workload })
        days)
    slices

type workload = { name : string; setup : setup -> seed:int -> job list }

let workloads =
  [
    {
      name = "trace-heavy";
      setup =
        (fun su ~seed ->
          trace_days su ~seed ~days:[ 0 ] ~load:40.0 ~faults:Faults.none);
    };
    {
      name = "powerlaw-buffered";
      setup = (fun su ~seed -> powerlaw su ~seed ~episodes:6 ~per_pair:2);
    };
    {
      name = "trace-faulted";
      setup =
        (fun su ~seed ->
          (* reboots=0.8,truncate=0.2,metaloss=0.2,noshow=0.1,seed=295 *)
          trace_days su ~seed ~days:[ 0; 1; 2; 3 ] ~load:12.0
            ~faults:
              (Rapid_experiments.Fig_robustness.config_of_severity
                 ~seed:((base_seed * 7) + 1) 0.2));
    };
    {
      (* Fig. 13's grid (15% slices of days 0-2 at loads 0.5-6) plus
         larger slices that still close at the root or after a short
         branch-and-bound dive for every seed tried. A 20% slice at load
         3 on day 0, or a 25% slice at load 2, is past the cliff for some
         seeds: the ILP runs for minutes or ends on an incumbent. *)
      name = "optimal";
      setup =
        (fun su ~seed ->
          optimal_slices su ~seed
            (List.map
               (fun load -> (0.15, load, [ 0; 1; 2 ]))
               [ 0.5; 1.0; 2.0; 4.0; 6.0 ]
            @ List.map (fun load -> (0.15, load, [ 3 ])) [ 0.5; 1.0; 2.0; 4.0 ]
            @ [
                (0.20, 1.0, [ 0; 1; 2; 3 ]);
                (0.20, 2.0, [ 0; 1; 2; 3 ]);
                (0.20, 3.0, [ 1; 2; 3 ]);
                (0.25, 1.0, [ 0; 1; 2; 3 ]);
              ]));
    };
  ]

(* ------------------------------------------------------------------ *)
(* Metrics *)

type better = Lower | Higher

(* Which end-to-end metric a layer metric should move, on which
   workloads; the harness's own metrics only validate the tracing. *)
type moves = Moves of string * string list | Validates_tracing

type metric = { name : string; unit : string; better : better; moves : moves }

let end_to_end =
  [
    ("run_ref", "ref"); ("setup_s", "s"); ("alloc_mwords", "Mwords");
  ]

let sims = [ "trace-heavy"; "powerlaw-buffered"; "trace-faulted" ]
let all_workloads = List.map (fun (w : workload) -> w.name) workloads
let m name unit better e2e on = { name; unit; better; moves = Moves (e2e, on) }

let layer_metrics =
  List.concat_map
    (fun (p, _) ->
      let m suffix = m (p ^ "." ^ suffix) in
      [
        m "on_contact_frac" "ratio" Lower "run_ref" sims;
        m "on_contact_calls" "count" Lower "run_ref" sims;
        m "on_contact_mwords" "Mwords" Lower "alloc_mwords" sims;
        m "next_packet_frac" "ratio" Lower "run_ref" sims;
        m "next_packet_calls" "count" Lower "run_ref" sims;
        m "on_transfer_frac" "ratio" Lower "run_ref" sims;
        m "drop_candidate_frac" "ratio" Lower "run_ref" [ "powerlaw-buffered" ];
        m "drop_candidate_calls" "count" Lower "run_ref" [ "powerlaw-buffered" ];
        m "drop_candidate_mwords" "Mwords" Lower "alloc_mwords"
          [ "powerlaw-buffered" ];
        m "on_created_frac" "ratio" Lower "run_ref" sims;
        m "on_reboot_frac" "ratio" Lower "run_ref" [ "trace-faulted" ];
      ])
    protocols
  @ [
      m "engine.run_frac" "ratio" Lower "run_ref" sims;
      m "engine.self_frac" "ratio" Lower "run_ref" sims;
      m "engine.self_mwords" "Mwords" Lower "alloc_mwords" sims;
      m "engine.contacts" "count" Lower "run_ref" sims;
      m "engine.transfers" "count" Lower "run_ref" sims;
      m "engine.drops" "count" Lower "run_ref" sims;
      m "engine.created" "count" Lower "run_ref" sims;
      m "send_queue.plans" "count" Lower "run_ref" sims;
      m "send_queue.replans" "count" Lower "run_ref" sims;
      m "buffer.rebuilds" "count" Lower "run_ref" sims;
      m "rapid.rank_frac" "ratio" Lower "run_ref" [ "trace-heavy" ];
      m "rapid.rank_calls" "count" Lower "run_ref" [ "trace-heavy" ];
      m "rapid.rate_cache_hits" "count" Higher "run_ref" [ "trace-heavy" ];
      m "rapid.rate_cache_misses" "count" Lower "run_ref" [ "trace-heavy" ];
      m "rapid.rate_cache_hit_ratio" "ratio" Higher "run_ref" [ "trace-heavy" ];
      m "meeting_matrix.row_builds" "count" Lower "run_ref" [ "trace-heavy" ];
      m "meeting_matrix.row_build_frac" "ratio" Lower "run_ref" [ "trace-heavy" ];
      m "rapid.position_index_builds" "count" Lower "run_ref" [ "trace-heavy" ];
      m "rapid.meta_bytes" "bytes" Lower "run_ref" [ "trace-heavy" ];
      m "optimal.evaluate_frac" "ratio" Lower "run_ref" [ "optimal" ];
      m "optimal.evaluate_mwords" "Mwords" Lower "alloc_mwords" [ "optimal" ];
      m "optimal.exact" "count" Higher "run_ref" [ "optimal" ];
      m "lp.solve_frac" "ratio" Lower "run_ref" [ "optimal" ];
    ]
  @ List.map
      (fun (name, better) -> m name "count" better "run_ref" [ "optimal" ])
      [
        ("lp.pivots", Lower); ("lp.phase1_iters", Lower);
        ("lp.bound_flips", Lower); ("lp.refactorizations", Lower);
        ("lp.eta_updates", Lower); ("lp.cold_solves", Lower);
        ("lp.presolve_rows_removed", Higher);
        ("lp.presolve_cols_removed", Higher); ("ilp.nodes", Lower);
        ("ilp.warm_starts", Higher);
      ]
  @ [
      m "trace.build_s" "s" Lower "setup_s" all_workloads;
      m "workload.generate_s" "s" Lower "setup_s" all_workloads;
      m "trace.contacts" "count" Lower "setup_s" all_workloads;
      m "workload.packets" "count" Lower "setup_s" all_workloads;
      m "faults.plan_frac" "ratio" Lower "setup_s" [ "trace-faulted" ];
      m "faults.reboots" "count" Lower "run_ref" [ "trace-faulted" ];
      m "faults.reboot_lost_packets" "count" Lower "run_ref" [ "trace-faulted" ];
      m "faults.contacts_suppressed" "count" Lower "run_ref" [ "trace-faulted" ];
      m "faults.meta_drops" "count" Lower "run_ref" [ "trace-faulted" ];
      m "gc.minor_collections" "count" Lower "alloc_mwords" all_workloads;
      m "gc.major_collections" "count" Lower "run_ref" all_workloads;
      m "gc.promoted_mwords" "Mwords" Lower "run_ref" all_workloads;
      m "gc.heap_peak_mb" "MB" Lower "run_ref" all_workloads;
      { name = "bench.trace_overhead_frac"; unit = "ratio"; better = Lower;
        moves = Validates_tracing };
      { name = "bench.span_coverage_frac"; unit = "ratio"; better = Higher;
        moves = Validates_tracing };
    ]

(* ------------------------------------------------------------------ *)
(* Output checks *)

let report_digest r =
  Digest.to_hex (Digest.string (Json.to_string (Metrics.report_to_json r)))

let verdict_digest (v : Optimal.verdict) =
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%h %d %d %h %s" v.Optimal.avg_delay_all
          v.Optimal.delivered v.Optimal.created v.Optimal.delivery_rate
          (match v.Optimal.how with
          | Optimal.Ilp_exact -> "exact"
          | Optimal.Ilp_incumbent -> "incumbent"
          | Optimal.Bound -> "bound")))

let digest = function Report r -> report_digest r | Verdict v -> verdict_digest v

(* Invariants any seed's outputs must satisfy; [None] when they hold. *)
let invariant_error = function
  | Report r ->
      if r.Metrics.delivered > r.Metrics.created then Some "delivered > created"
      else if
        r.Metrics.data_bytes + r.Metrics.metadata_bytes > r.Metrics.capacity_bytes
      then Some "data + metadata > capacity"
      else if r.Metrics.within_deadline > r.Metrics.delivered then
        Some "within-deadline > delivered"
      else None
  | Verdict v ->
      if v.Optimal.how <> Optimal.Ilp_exact then Some "not Ilp_exact"
      else if v.Optimal.delivered > v.Optimal.created then
        Some "delivered > created"
      else None

type checker = {
  workload : string;
  golden : string array option;
  mutable reference : string array option;  (* the first pass's digests *)
  mutable attempted : int;
  mutable failed : int;
}

let checker ~workload ~seed =
  {
    workload;
    golden =
      (if seed = Goldens.seed then
         Option.map Array.of_list (List.assoc_opt workload Goldens.digests)
       else None);
    reference = None;
    attempted = 0;
    failed = 0;
  }

let record ck ok what =
  ck.attempted <- ck.attempted + 1;
  if not ok then begin
    ck.failed <- ck.failed + 1;
    Printf.eprintf "%s: FAIL %s\n%!" ck.workload what
  end

let check_outputs ck (outs : (output, exn) result list) =
  let digests =
    Array.of_list
      (List.map (function Ok o -> digest o | Error _ -> "exception") outs)
  in
  let reference =
    match ck.reference with
    | Some r -> r
    | None ->
        ck.reference <- Some digests;
        digests
  in
  List.iteri
    (fun i out ->
      let errors =
        (match out with
        | Error e -> [ "raised " ^ Printexc.to_string e ]
        | Ok o -> Option.to_list (invariant_error o))
        @ (if i < Array.length reference && reference.(i) = digests.(i) then []
           else [ "differs from the first pass" ])
        @
        match ck.golden with
        | None -> []
        | Some g when i < Array.length g && g.(i) = digests.(i) -> []
        | Some _ -> [ "digest " ^ digests.(i) ^ " is not the golden one" ]
      in
      record ck (errors = [])
        (Printf.sprintf "job %d: %s" i (String.concat "; " errors)))
    outs

(* ------------------------------------------------------------------ *)
(* Passes *)

type spans = {
  setup : setup;
  engine : span;
  evaluate : span;
  per_proto : (string * proto_spans) list;
}

let new_spans () =
  {
    setup = new_setup ();
    engine = span ();
    evaluate = span ();
    per_proto = List.map (fun (p, _) -> (p, proto_spans ())) protocols;
  }

let run_job ~traced sp = function
  | Sim { proto; spec; trace; workload; options } ->
      let protocol = spec.Runners.make () in
      let protocol =
        if traced then timed (List.assoc proto sp.per_proto) protocol
        else protocol
      in
      let run () = Engine.run ~options ~protocol ~trace ~workload () in
      Report (if traced then time_span sp.engine run else run ()).Engine.report
  | Opt { trace; workload } ->
      let eval () = Optimal.evaluate ~trace ~workload () in
      Verdict (if traced then time_span sp.evaluate eval else eval ())

type pass = {
  setup_cpu : float;
  run_cpu : float;
  run_words : float;
  wall_ns : float;  (* set-up plus run *)
  setup_wall_ns : float;
}

(* The pass's outputs come back beside it, to be checked and dropped:
   keeping them would grow the live heap, and with it the GC's work and
   the heap peak, from pass to pass. *)
let run_pass (w : workload) ~seed ~traced sp =
  Gc.compact ();
  let c0 = Sys.time () and t0 = now_ns () in
  let jobs = try Ok (w.setup sp.setup ~seed) with e -> Error e in
  let c1 = Sys.time () and t1 = now_ns () in
  let w0 = Gc.minor_words () in
  let outputs =
    match jobs with
    | Error e -> [ Error e ]
    | Ok jobs ->
        List.map
          (fun j ->
            match run_job ~traced sp j with o -> Ok o | exception e -> Error e)
          jobs
  in
  let w1 = Gc.minor_words () in
  let c2 = Sys.time () and t2 = now_ns () in
  ( {
      setup_cpu = c1 -. c0;
      run_cpu = c2 -. c1;
      run_words = w1 -. w0;
      wall_ns = float_of_int (t2 - t0);
      setup_wall_ns = float_of_int (t1 - t0);
    },
    outputs )

let median xs = Stats.percentile (Array.of_list xs) 0.5

(* ------------------------------------------------------------------ *)
(* Per-layer values of one traced pass *)

let counter snap name = float_of_int (Option.value ~default:0 (List.assoc_opt name snap))

let timer_ns snap name =
  match List.find_opt (fun (n, _, _) -> n = name) snap with
  | Some (_, s, _) -> s *. 1e9
  | None -> 0.

let layer_values sp (p : pass) outputs ~gc0 ~gc1 =
  let counters = Counter.snapshot () and timers = Timer.snapshot () in
  let run_ns = p.wall_ns -. p.setup_wall_ns in
  let frac ns = ns /. run_ns in
  let mw words = words /. 1e6 in
  let reports =
    List.filter_map (function Ok (Report r) -> Some r | _ -> None) outputs
  in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 reports) in
  let proto_values =
    List.concat_map
      (fun (name, s) ->
        let v suffix x = (name ^ "." ^ suffix, x) in
        [
          v "on_contact_frac" (frac s.on_contact.ns);
          v "on_contact_calls" s.on_contact.calls;
          v "on_contact_mwords" (mw s.on_contact.words);
          v "next_packet_frac" (frac s.next_packet.ns);
          v "next_packet_calls" s.next_packet.calls;
          v "on_transfer_frac" (frac s.on_transfer.ns);
          v "drop_candidate_frac" (frac s.drop_candidate.ns);
          v "drop_candidate_calls" s.drop_candidate.calls;
          v "drop_candidate_mwords" (mw s.drop_candidate.words);
          v "on_created_frac" (frac s.on_created.ns);
          v "on_reboot_frac" (frac s.on_reboot.ns);
        ])
      sp.per_proto
  in
  let callbacks = List.concat_map (fun (_, s) -> callback_spans s) sp.per_proto in
  let cb f = List.fold_left (fun acc s -> acc +. f s) 0. callbacks in
  let hits = counter counters "rapid.rate_cache_hits"
  and misses = counter counters "rapid.rate_cache_misses" in
  let exact =
    List.length
      (List.filter
         (function
           | Ok (Verdict v) -> v.Optimal.how = Optimal.Ilp_exact | _ -> false)
         outputs)
  in
  let su = sp.setup in
  proto_values
  @ [
      ("engine.run_frac", frac sp.engine.ns);
      ("engine.self_frac", frac (sp.engine.ns -. cb (fun s -> s.ns)));
      ("engine.self_mwords", mw (sp.engine.words -. cb (fun s -> s.words)));
      ("engine.contacts", sum (fun r -> r.Metrics.num_contacts));
      ("engine.transfers", sum (fun r -> r.Metrics.transfers));
      ("engine.drops", sum (fun r -> r.Metrics.drops));
      ("engine.created", sum (fun r -> r.Metrics.created));
      ("send_queue.plans", counter counters "send_queue.plans");
      ("send_queue.replans", counter counters "send_queue.replans");
      ("buffer.rebuilds", counter counters "buffer.rebuilds");
      ("rapid.rank_frac", frac (timer_ns timers "rapid.rank"));
      ("rapid.rank_calls", counter counters "rapid.rank_calls");
      ("rapid.rate_cache_hits", hits);
      ("rapid.rate_cache_misses", misses);
      ( "rapid.rate_cache_hit_ratio",
        if hits +. misses > 0. then hits /. (hits +. misses) else 0. );
      ("meeting_matrix.row_builds", counter counters "meeting_matrix.row_builds");
      ( "meeting_matrix.row_build_frac",
        frac (timer_ns timers "meeting_matrix.row_build") );
      ( "rapid.position_index_builds",
        counter counters "rapid.position_index_builds" );
      ( "rapid.meta_bytes",
        counter counters "rapid.meta_ack_bytes"
        +. counter counters "rapid.meta_table_bytes"
        +. counter counters "rapid.meta_entry_bytes" );
      ("optimal.evaluate_frac", frac sp.evaluate.ns);
      ("optimal.evaluate_mwords", mw sp.evaluate.words);
      ("optimal.exact", float_of_int exact);
      ("lp.solve_frac", frac (timer_ns timers "lp.solve"));
    ]
  @ List.map
      (fun name -> (name, counter counters name))
      [
        "lp.pivots"; "lp.phase1_iters"; "lp.bound_flips"; "lp.refactorizations";
        "lp.eta_updates"; "lp.cold_solves"; "lp.presolve_rows_removed";
        "lp.presolve_cols_removed"; "ilp.nodes"; "ilp.warm_starts";
      ]
  @ [
      ("trace.build_s", su.trace_build.ns /. 1e9);
      ("workload.generate_s", su.workload_generate.ns /. 1e9);
      ("trace.contacts", float_of_int su.contacts);
      ("workload.packets", float_of_int su.packets);
      ("faults.plan_frac", su.faults_plan.ns /. p.setup_wall_ns);
      ("faults.reboots", counter counters "faults.reboots");
      ("faults.reboot_lost_packets", counter counters "faults.reboot_lost_packets");
      ("faults.contacts_suppressed", counter counters "faults.contacts_suppressed");
      ("faults.meta_drops", counter counters "faults.meta_drops");
      ( "gc.minor_collections",
        float_of_int (gc1.Gc.minor_collections - gc0.Gc.minor_collections) );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
      ("gc.promoted_mwords", mw (gc1.Gc.promoted_words -. gc0.Gc.promoted_words));
    ]

(* Share of the traced pass (set-up plus run) inside the set-up spans
   and the Engine.run / Optimal.evaluate spans. *)
let coverage sp (p : pass) =
  let su = sp.setup in
  (su.trace_build.ns +. su.workload_generate.ns +. su.faults_plan.ns
 +. sp.engine.ns +. sp.evaluate.ns)
  /. p.wall_ns

(* ------------------------------------------------------------------ *)
(* Runs *)

let min_passes = 3

type result = {
  ck : checker;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

(* Closed loop of identical passes for [seconds] after the warm-up. *)
let loop ~seconds f =
  f ~warm_up:true;
  let deadline = now_ns () + (seconds * 1_000_000_000) in
  let rec go n = if n < min_passes || now_ns () < deadline then (f ~warm_up:false; go (n + 1)) in
  go 0

(* A fixed computation on the standard library alone (hashing, sorting,
   list building, and the allocation and GC work they cause; ~0.15 s),
   timed between passes. On a shared host, speed can swing by half
   within minutes as other tenants come and go; a pass timed against the
   reference runs next to it keeps a steady cost through those swings. *)
let reference_s () =
  Gc.compact ();
  let c0 = Sys.time () in
  for _ = 1 to 10 do
    let n = 20_000 in
    let h = Hashtbl.create 16 in
    for i = 0 to n do
      Hashtbl.replace h ((i * 7919) land 0x3ffff) (float_of_int i)
    done;
    let a = Array.init n (fun i -> float_of_int ((i * 7919) mod 20_011)) in
    Array.sort Float.compare a;
    let l = List.sort compare (List.init n (fun i -> ((i * 31) mod 1000, i))) in
    let m = List.fold_left (fun m (k, v) -> if k mod 3 = 0 then v :: m else m) [] l in
    ignore (Sys.opaque_identity (h, a, m))
  done;
  Sys.time () -. c0

let untraced_run (w : workload) ~seed ~seconds =
  let ck = checker ~workload:w.name ~seed in
  let sp = new_spans () in
  (* (pass, its CPU time over the mean of the references either side) *)
  let passes = ref [] and before = ref nan in
  loop ~seconds (fun ~warm_up ->
      let p, outputs = run_pass w ~seed ~traced:false sp in
      check_outputs ck outputs;
      let after = reference_s () in
      if not warm_up then
        passes := (p, p.run_cpu /. ((!before +. after) /. 2.)) :: !passes;
      before := after);
  let med f = median (List.map f !passes) in
  {
    ck;
    metrics =
      [
        ("run_ref", med snd, "ref");
        ("setup_s", med (fun (p, _) -> p.setup_cpu), "s");
        ("alloc_mwords", med (fun (p, _) -> p.run_words /. 1e6), "Mwords");
      ];
  }

(* Every span a traced pass opened. *)
let timed_calls sp =
  let su = sp.setup in
  List.fold_left
    (fun acc s -> acc +. s.calls)
    0.
    ([ su.trace_build; su.workload_generate; su.faults_plan; sp.engine;
       sp.evaluate ]
    @ List.concat_map (fun (_, p) -> callback_spans p) sp.per_proto)

(* CPU time of one span on a no-op: the clock and allocation-counter
   reads and the update [timed] adds around each callback. *)
let span_cost_s () =
  let s = span () and n = 1_000_000 in
  let c0 = Sys.time () in
  for _ = 1 to n do
    let t0 = now_ns () and w0 = Gc.minor_words () in
    close s t0 w0
  done;
  (Sys.time () -. c0) /. float_of_int n

(* After the warm-up, one untraced pass gives the allocation the traced
   passes must match, and the rest of the run is traced. The tracing
   overhead is the spans' own cost (calls times the cost of one span)
   over the rest of the pass: on a shared host consecutive passes differ
   by up to a tenth, far more than a direct traced-versus-untraced
   comparison would have to resolve. *)
let traced_run (w : workload) ~seed ~seconds =
  Rapid_core.Rate_cache.register_counters ();
  Faults.register_counters ();
  let ck = checker ~workload:w.name ~seed in
  let untraced_words = ref nan and traced = ref [] in
  let untraced_pass () =
    let p, outputs = run_pass w ~seed ~traced:false (new_spans ()) in
    check_outputs ck outputs;
    p
  in
  loop ~seconds (fun ~warm_up ->
      if warm_up then begin
        ignore (untraced_pass ());
        untraced_words := (untraced_pass ()).run_words
      end
      else begin
        let sp = new_spans () in
        Counter.reset_all ();
        Timer.reset_all ();
        let gc0 = Gc.quick_stat () in
        let p, outputs = run_pass w ~seed ~traced:true sp in
        let gc1 = Gc.quick_stat () in
        check_outputs ck outputs;
        traced :=
          (p, layer_values sp p outputs ~gc0 ~gc1, coverage sp p, timed_calls sp)
          :: !traced
      end);
  let cost = span_cost_s () in
  let overhead =
    median
      (List.map
         (fun (p, _, _, calls) -> calls *. cost /. (p.run_cpu -. (calls *. cost)))
         !traced)
  and alloc_ratio =
    median (List.map (fun (p, _, _, _) -> p.run_words) !traced) /. !untraced_words
  and cover = median (List.map (fun (_, _, c, _) -> c) !traced) in
  record ck (overhead <= 0.05)
    (Printf.sprintf "tracing overhead %.4f > 0.05" overhead);
  record ck (Float.abs (alloc_ratio -. 1.) <= 0.01)
    (Printf.sprintf "traced/untraced allocation %.6f not within 1%%" alloc_ratio);
  record ck (cover >= 0.95) (Printf.sprintf "span coverage %.4f < 0.95" cover);
  let values = List.map (fun (_, v, _, _) -> v) !traced in
  let value name = median (List.map (List.assoc name) values) in
  {
    ck;
    metrics =
      List.map
        (fun lm ->
          let v =
            match lm.name with
            | "bench.trace_overhead_frac" -> overhead
            | "bench.span_coverage_frac" -> cover
            | "gc.heap_peak_mb" ->
                float_of_int
                  ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
                /. 1e6
            | name -> value name
          in
          (lm.name, v, lm.unit))
        layer_metrics;
  }

let result_fields r =
  [
    ("correct", Json.Bool (r.ck.failed = 0));
    ("attempted", Json.Int r.ck.attempted);
    ("failed", Json.Int r.ck.failed);
    ( "metrics",
      Json.Obj
        (List.map
           (fun (name, v, unit) ->
             (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String unit) ]))
           r.metrics) );
  ]

let append_line path line =
  let oc = open_out_gen [ Open_append; Open_creat; Open_text ] 0o644 path in
  output_string oc line;
  output_char oc '\n';
  close_out oc

let run_workload (w : workload) ~seed ~seconds ~trace ~out =
  let r =
    if trace then traced_run w ~seed ~seconds else untraced_run w ~seed ~seconds
  in
  List.iter
    (fun (name, v, unit) -> Printf.printf "%s %s %.17g %s\n" w.name name v unit)
    r.metrics;
  let fields = result_fields r in
  Option.iter
    (fun path ->
      append_line path
        (Json.to_string
           (Json.Obj
              (("workload", Json.String w.name) :: ("seed", Json.Int seed)
              :: ("trace", Json.Bool trace) :: fields))))
    out;
  print_endline (Json.to_string (Json.Obj fields));
  if r.ck.failed = 0 then 0 else 1

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json lint (part of the smoke test) *)

let name_ok s =
  s <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let lint path =
  let errors = ref [] in
  let err fmt = Printf.ksprintf (fun s -> errors := s :: !errors) fmt in
  let j = Json.of_file path in
  let list key =
    match Json.member key j with Some (Json.List l) -> l | _ -> err "no %s list" key; []
  in
  let str key o =
    match Json.member key o with Some (Json.String s) -> s | _ -> err "entry without %s" key; ""
  in
  let better_of = function Lower -> "lower" | Higher -> "higher" in
  let workload_names = List.map (str "name") (list "workloads") in
  List.iter
    (fun o -> if String.trim (str "why" o) = "" then err "workload %s has no reason" (str "name" o))
    (list "workloads");
  if workload_names <> all_workloads then err "workloads differ from benchmark.ml's";
  let e2e = list "end_to_end" and layer = list "per_layer" in
  if List.length e2e > 16 then err "more than 16 end-to-end metrics";
  if List.length layer > 128 then err "more than 128 per-layer metrics";
  let e2e_names = List.map (str "name") e2e in
  if List.map (fun o -> (str "name" o, str "unit" o)) e2e <> end_to_end then
    err "end_to_end differs from benchmark.ml's";
  List.iter
    (fun n -> if not (name_ok n) then err "bad name %S" n)
    (workload_names @ e2e_names @ List.map (str "name") layer);
  if
    List.map (fun o -> (str "name" o, str "unit" o, str "better" o)) layer
    <> List.map (fun lm -> (lm.name, lm.unit, better_of lm.better)) layer_metrics
  then err "per_layer differs from benchmark.ml's layer_metrics";
  List.iter
    (fun lm ->
      match lm.moves with
      | Validates_tracing -> ()
      | Moves (e, ws) ->
          if not (List.mem e e2e_names) then
            err "%s moves unknown metric %s" lm.name e;
          if ws = [] || not (List.for_all (fun w -> List.mem w workload_names) ws)
          then err "%s names no known workload" lm.name)
    layer_metrics;
  List.rev !errors

let smoke path =
  let errors = lint path in
  List.iter (Printf.eprintf "BENCHMARK.json: %s\n") errors;
  let w = List.find (fun (w : workload) -> w.name = "optimal") workloads in
  let ck = checker ~workload:w.name ~seed:Goldens.seed in
  check_outputs ck (snd (run_pass w ~seed:Goldens.seed ~traced:false (new_spans ())));
  let ok = errors = [] && ck.golden <> None && ck.failed = 0 in
  Printf.printf "smoke: %d/%d optimal outputs match, lint %s\n"
    (ck.attempted - ck.failed) ck.attempted
    (if errors = [] then "ok" else "failed");
  if ok then 0 else 1

(* ------------------------------------------------------------------ *)
(* Command line *)

let usage () =
  prerr_endline
    "usage: benchmark.exe [--workload W] [--seed N] [--seconds N] [--trace \
     0|1] [--out FILE] | --smoke BENCHMARK.json";
  exit 2

let int_arg s = match int_of_string_opt s with Some n -> n | None -> usage ()

(* Without --workload, each workload runs in a child process of its own,
   one after the other, so each keeps its own heap and GC state. *)
let run_all args =
  List.fold_left
    (fun status (w : workload) ->
      let argv = Array.of_list (Sys.executable_name :: "--workload" :: w.name :: args) in
      let pid =
        Unix.create_process Sys.executable_name argv Unix.stdin Unix.stdout Unix.stderr
      in
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> status
      | _ -> 1)
    0 workloads

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec go (workload, seed, seconds, trace, out) = function
    | [] -> (workload, seed, seconds, trace, out)
    | "--workload" :: w :: rest -> go (Some w, seed, seconds, trace, out) rest
    | "--seed" :: n :: rest -> go (workload, int_arg n, seconds, trace, out) rest
    | "--seconds" :: n :: rest -> go (workload, seed, int_arg n, trace, out) rest
    | "--trace" :: ("0" | "1" as t) :: rest ->
        go (workload, seed, seconds, t = "1", out) rest
    | "--trace" :: rest -> go (workload, seed, seconds, true, out) rest
    | "--out" :: f :: rest -> go (workload, seed, seconds, trace, Some f) rest
    | _ -> usage ()
  in
  match args with
  | [ "--smoke"; path ] -> exit (smoke path)
  | _ -> (
      let workload, seed, seconds, trace, out = go (None, 42, 20, false, None) args in
      if seconds < 1 then usage ();
      match workload with
      | None -> exit (run_all args)
      | Some name -> (
          match List.find_opt (fun (w : workload) -> w.name = name) workloads with
          | Some w -> exit (run_workload w ~seed ~seconds ~trace ~out)
          | None ->
              Printf.eprintf "unknown workload %S (known: %s)\n" name
                (String.concat ", " all_workloads);
              exit 2))
