(* Tests for Rapid_faults and the engine's fault plumbing: spec parsing,
   plan determinism, fault-rate-0 transparency, reboot semantics, the
   per-contact budget invariants under every protocol with faults on, and
   byte-identity of faulted points across --jobs settings. *)

open Rapid_trace
open Rapid_sim
module Faults = Rapid_faults.Faults
module Pool = Rapid_par.Pool
module Tracer = Rapid_obs.Tracer
open Rapid_experiments

(* ------------------------------------------------------------------ *)
(* Spec parsing *)

let test_parse () =
  (match Faults.parse "" with
  | Ok c -> Alcotest.(check bool) "empty is none" true (Faults.is_none c)
  | Error e -> Alcotest.fail e);
  (match Faults.parse "reboots=2,truncate=0.1,metaloss=0.25,noshow=0.05,seed=9" with
  | Ok c ->
      Alcotest.(check (float 0.0)) "reboots" 2.0 c.Faults.reboots_per_node;
      Alcotest.(check (float 0.0)) "truncate" 0.1 c.Faults.truncate_prob;
      Alcotest.(check (float 0.0)) "metaloss" 0.25 c.Faults.meta_drop_prob;
      Alcotest.(check (float 0.0)) "noshow" 0.05 c.Faults.contact_drop_prob;
      Alcotest.(check int) "seed" 9 c.Faults.seed;
      Alcotest.(check bool) "not none" false (Faults.is_none c)
  | Error e -> Alcotest.fail e);
  (match Faults.parse "seed=7" with
  | Ok c ->
      Alcotest.(check bool) "zero rates are none whatever the seed" true
        (Faults.is_none c)
  | Error e -> Alcotest.fail e);
  (match Faults.parse "bogus=1" with
  | Ok _ -> Alcotest.fail "unknown key accepted"
  | Error _ -> ());
  (match Faults.parse "truncate=1.5" with
  | Ok _ -> Alcotest.fail "probability > 1 accepted"
  | Error _ -> ());
  (* An infinite rate would make Faults.plan's reboot draw loop forever. *)
  List.iter
    (fun spec ->
      match Faults.parse spec with
      | Ok _ -> Alcotest.failf "%s accepted" spec
      | Error e ->
          if not (Astring.String.is_infix ~affix:"reboots" e) then
            Alcotest.failf "%s: %S does not name the rate" spec e)
    [ "reboots=inf"; "reboots=1e400"; "reboots=nan"; "reboots=-1" ];
  match Faults.parse "reboots=2,truncate=0.1,metaloss=0.25,noshow=0.05,seed=9" with
  | Ok c -> (
      (* spec_string round-trips. *)
      match Faults.parse (Faults.spec_string c) with
      | Ok c' -> Alcotest.(check bool) "round trip" true (c = c')
      | Error e -> Alcotest.fail e)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Plan determinism *)

let small_trace ~seed =
  let rng = Rapid_prelude.Rng.create seed in
  Rapid_mobility.Mobility.exponential rng ~num_nodes:6 ~mean_inter_meeting:30.0
    ~duration:300.0 ~opportunity_bytes:50

let severe =
  {
    Faults.seed = 11;
    reboots_per_node = 2.0;
    truncate_prob = 0.3;
    meta_drop_prob = 0.3;
    contact_drop_prob = 0.2;
  }

let test_plan_deterministic () =
  let trace = small_trace ~seed:3 in
  let p1 = Faults.plan severe ~run_seed:5 ~trace in
  let p2 = Faults.plan severe ~run_seed:5 ~trace in
  Alcotest.(check bool) "same reboot schedule" true
    (Faults.reboots p1 = Faults.reboots p2);
  let n = Trace.num_contacts trace in
  for i = 0 to n - 1 do
    Alcotest.(check bool) "same skip" (Faults.contact_skipped p1 i)
      (Faults.contact_skipped p2 i);
    Alcotest.(check int) "same capacity"
      (Faults.contact_capacity p1 i ~bytes:1000)
      (Faults.contact_capacity p2 i ~bytes:1000);
    Alcotest.(check bool) "same meta fate" (Faults.contact_meta_ok p1 i)
      (Faults.contact_meta_ok p2 i)
  done;
  (* A different run seed draws a different realization. *)
  let p3 = Faults.plan severe ~run_seed:6 ~trace in
  Alcotest.(check bool) "run seed matters" false
    (Faults.reboots p1 = Faults.reboots p3);
  (* The schedule is sorted by time. *)
  let r = Faults.reboots p1 in
  Alcotest.(check bool) "some reboots drawn" true (Array.length r > 0);
  Array.iteri
    (fun i (t, _) ->
      if i > 0 then
        Alcotest.(check bool) "sorted" true (fst r.(i - 1) <= t))
    r

let test_null_plan () =
  let trace = small_trace ~seed:3 in
  let p = Faults.plan { Faults.none with seed = 99 } ~run_seed:5 ~trace in
  Alcotest.(check bool) "inactive" false (Faults.active p);
  Alcotest.(check int) "no reboots" 0 (Array.length (Faults.reboots p));
  Alcotest.(check bool) "no skips" false (Faults.contact_skipped p 0);
  Alcotest.(check int) "full capacity" 77 (Faults.contact_capacity p 0 ~bytes:77);
  Alcotest.(check bool) "meta ok" true (Faults.contact_meta_ok p 0)

(* ------------------------------------------------------------------ *)
(* Fault-rate 0 is the plain engine; nonzero severity is not *)

let small_workload ~trace ~seed =
  let rng = Rapid_prelude.Rng.create (seed + 1000) in
  Workload.generate rng ~trace ~pkts_per_hour_per_dest:120.0 ~size:10
    ~lifetime:60.0 ()

let run_with ~faults ~protocol ~trace ~workload =
  (Engine.run
     ~options:
       {
         Engine.buffer_bytes = Some 40;
         meta_cap_frac = None;
         seed = 2;
         faults;
       }
     ~protocol ~trace ~workload ())
    .Engine.report

let test_zero_rate_transparent () =
  let trace = small_trace ~seed:4 in
  let workload = small_workload ~trace ~seed:4 in
  let clean =
    run_with ~faults:Faults.none
      ~protocol:(Rapid_routing.Epidemic.make ())
      ~trace ~workload
  in
  let zero =
    run_with
      ~faults:{ Faults.none with seed = 12345 }
      ~protocol:(Rapid_routing.Epidemic.make ())
      ~trace ~workload
  in
  Alcotest.(check bool) "zero-rate run identical" true (compare clean zero = 0);
  let faulted =
    run_with ~faults:severe
      ~protocol:(Rapid_routing.Epidemic.make ())
      ~trace ~workload
  in
  Alcotest.(check bool) "severe faults change the outcome" true
    (compare clean faulted <> 0)

(* ------------------------------------------------------------------ *)
(* Reboots wipe the buffer before the protocol hears about it *)

type reboot_call = { r_now : float; r_node : int; r_lost : int; r_left : int }

let recording_protocol calls : Protocol.packed =
  (module struct
    type t = Env.t

    let name = "recorder"
    let create env = env
    let on_created _ ~now:_ _ = ()
    let on_contact _ (_ : Protocol.contact_info) = 0
    let next_packet _ ~now:_ ~sender:_ ~receiver:_ ~budget:_ = None
    let on_transfer _ ~now:_ ~sender:_ ~receiver:_ _ ~delivered:_ = ()
    let drop_candidate _ ~now:_ ~node:_ ~incoming:_ = None
    let on_dropped _ ~now:_ ~node:_ _ = ()

    let on_reboot env ~now ~node ~lost =
      calls :=
        {
          r_now = now;
          r_node = node;
          r_lost = List.length lost;
          r_left = Buffer.used env.Env.buffers.(node);
        }
        :: !calls
  end)

let test_reboot_wipes_buffer () =
  let trace =
    Trace.create ~num_nodes:4 ~duration:200.0
      ~active:[ 0; 1; 2; 3 ]
      [ Contact.make ~time:199.0 ~a:0 ~b:1 ~bytes:0 ]
  in
  (* One packet per node, parked forever (the recorder never forwards). *)
  let workload =
    List.init 4 (fun src ->
        {
          Workload.src;
          dst = (src + 1) mod 4;
          size = 10;
          created = 0.5;
          deadline = None;
        })
  in
  let faults = { Faults.none with seed = 11; reboots_per_node = 3.0 } in
  let calls = ref [] in
  let collector = Tracer.Collector.create () in
  let result =
    Engine.run
      ~options:{ Engine.default_options with faults }
      ~tracer:(Tracer.Collector.tracer collector)
      ~protocol:(recording_protocol calls) ~trace ~workload ()
  in
  let calls = List.rev !calls in
  let plan = Faults.plan faults ~run_seed:Engine.default_options.Engine.seed ~trace in
  Alcotest.(check int) "every scheduled reboot fired"
    (Array.length (Faults.reboots plan))
    (List.length calls);
  Alcotest.(check bool) "reboots happened" true (List.length calls > 0);
  List.iter
    (fun c ->
      Alcotest.(check int) "buffer empty when the protocol hears" 0 c.r_left)
    calls;
  (* The hook sees exactly the schedule, in order. *)
  List.iteri
    (fun i c ->
      let t, node = (Faults.reboots plan).(i) in
      Alcotest.(check (float 0.0)) "time" t c.r_now;
      Alcotest.(check int) "node" node c.r_node)
    calls;
  (* Each node's first reboot loses the packet it was holding; losses are
     never storage drops. *)
  let total_lost = List.fold_left (fun acc c -> acc + c.r_lost) 0 calls in
  Alcotest.(check bool) "some copies lost" true (total_lost > 0);
  Alcotest.(check int) "no drops recorded" 0 result.Engine.report.Metrics.drops;
  (* Tracer saw one reboot event per firing. *)
  let reboot_events =
    match List.assoc_opt "reboot" (Tracer.Collector.counts collector) with
    | Some n -> n
    | None -> 0
  in
  Alcotest.(check int) "reboot events" (List.length calls) reboot_events

(* ------------------------------------------------------------------ *)
(* Budget invariants under faults, for every protocol *)

let protocols () =
  [
    Rapid_routing.Epidemic.make ();
    Rapid_routing.Direct.make ();
    Rapid_routing.Random_protocol.make ();
    Rapid_routing.Random_protocol.make ~with_acks:true ~summary_vector:true ();
    Rapid_routing.Spray_wait.make ~l:4 ();
    Rapid_routing.Prophet.make ();
    Rapid_routing.Maxprop.make ();
    Rapid_core.Rapid.make_default Rapid_core.Metric.Average_delay;
  ]

let severity_of = function
  | 0 -> Faults.none
  | 1 -> { Faults.none with seed = 5; meta_drop_prob = 0.5 }
  | 2 ->
      { Faults.none with seed = 5; truncate_prob = 0.5; contact_drop_prob = 0.3 }
  | _ -> { severe with reboots_per_node = 1.0 }

(* Replay the event stream: within each contact, metadata plus transfer
   bytes must fit the effective (possibly truncated) capacity; nothing
   moves during a suppressed contact; global byte totals must agree with
   the report. The engine additionally raises on over-budget or repeated
   offers, so merely completing the run checks the per-offer rules. *)
let prop_faulted_budget_invariants =
  QCheck.Test.make ~name:"faulted contacts respect effective budgets" ~count:40
    QCheck.(pair (int_range 0 10_000) (pair (int_range 0 7) (int_range 0 3)))
    (fun (seed, (proto_idx, sev_idx)) ->
      let trace = small_trace ~seed in
      if Trace.num_contacts trace = 0 then true
      else begin
        let workload = small_workload ~trace ~seed in
        let collector = Tracer.Collector.create ~keep_events:200_000 () in
        let report =
          (Engine.run
             ~options:
               {
                 Engine.buffer_bytes = Some 40;
                 meta_cap_frac = None;
                 seed;
                 faults = severity_of sev_idx;
               }
             ~tracer:(Tracer.Collector.tracer collector)
             ~protocol:(List.nth (protocols ()) proto_idx)
             ~trace ~workload ())
            .Engine.report
        in
        let in_contact = ref false in
        let cap = ref 0 in
        let spent = ref 0 in
        let ok = ref true in
        let total_data = ref 0 in
        let total_meta = ref 0 in
        let close_group () = if !spent > !cap then ok := false in
        List.iter
          (fun ev ->
            match ev with
            | Tracer.Contact { bytes; _ } ->
                close_group ();
                in_contact := true;
                cap := bytes;
                spent := 0
            | Tracer.Contact_suppressed _ ->
                close_group ();
                in_contact := false;
                cap := 0;
                spent := 0
            | Tracer.Contact_truncated { effective; bytes; _ } ->
                if not !in_contact then ok := false;
                if effective > bytes then ok := false;
                cap := effective
            | Tracer.Metadata { bytes; _ } ->
                if not !in_contact then ok := false;
                spent := !spent + bytes;
                total_meta := !total_meta + bytes
            | Tracer.Transfer { bytes; _ } ->
                if not !in_contact then ok := false;
                spent := !spent + bytes;
                total_data := !total_data + bytes
            | Tracer.Metadata_dropped _ | Tracer.Reboot _ | Tracer.Delivery _
            | Tracer.Drop _ | Tracer.Ack_purge _ | Tracer.Store_hit _
            | Tracer.Store_miss _ | Tracer.Store_write _ | Tracer.Store_corrupt _
              ->
                ())
          (Tracer.Collector.events collector);
        close_group ();
        !ok
        && report.Metrics.data_bytes = !total_data
        && report.Metrics.metadata_bytes = !total_meta
        && report.Metrics.delivered <= report.Metrics.created
      end)

(* ------------------------------------------------------------------ *)
(* Faulted points are byte-identical across --jobs settings *)

let quick2 =
  let q = Params.get Params.Quick in
  {
    q with
    Params.days = 2;
    dieselnet =
      {
        q.Params.dieselnet with
        Rapid_trace.Dieselnet.fleet_size = 20;
        mean_scheduled = 6;
        day_seconds = 3600.0;
        meetings_per_day = 40.0;
      };
  }

let with_global_jobs jobs f =
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) f

let faulted_points () =
  Runners.reset_point_cache ();
  List.map
    (fun proto ->
      ( proto.Runners.label,
        Runners.run_trace_point ~params:quick2 ~protocol:proto ~load:6.0
          ~spec:{ Runners.default_spec with Runners.faults = severe }
          () ))
    (Runners.comparison_set Rapid_core.Metric.Average_delay)

let test_faulted_jobs_determinism () =
  let seq = faulted_points () in
  let par = with_global_jobs 4 faulted_points in
  List.iter2
    (fun (label, a) (label', b) ->
      Alcotest.(check string) "same protocol order" label label';
      Alcotest.(check bool)
        (label ^ ": faulted jobs=4 = jobs=1")
        true
        (compare a b = 0))
    seq par

let test_point_cache_keys_faults () =
  (* A faulted point must not alias the clean one in the cache... *)
  Runners.reset_point_cache ();
  let proto = Runners.spray_wait in
  let clean = Runners.run_trace_point ~params:quick2 ~protocol:proto ~load:6.0 () in
  let faulted =
    Runners.run_trace_point ~params:quick2 ~protocol:proto ~load:6.0
      ~spec:{ Runners.default_spec with Runners.faults = severe }
      ()
  in
  Alcotest.(check bool) "distinct cells" true (compare clean faulted <> 0);
  (* ...while an all-zero-rate config aliases it exactly. *)
  let zero =
    Runners.run_trace_point ~params:quick2 ~protocol:proto ~load:6.0
      ~spec:
        {
          Runners.default_spec with
          Runners.faults = { Faults.none with seed = 31 };
        }
      ()
  in
  Alcotest.(check bool) "zero-rate aliases clean" true (compare clean zero = 0)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_faulted_budget_invariants ]

let () =
  Alcotest.run "faults"
    [
      ("spec", [ Alcotest.test_case "parse" `Quick test_parse ]);
      ( "plan",
        [
          Alcotest.test_case "deterministic" `Quick test_plan_deterministic;
          Alcotest.test_case "null plan" `Quick test_null_plan;
        ] );
      ( "engine",
        [
          Alcotest.test_case "zero-rate transparent" `Quick
            test_zero_rate_transparent;
          Alcotest.test_case "reboot wipes buffer" `Quick
            test_reboot_wipes_buffer;
        ] );
      ("invariants", qcheck_cases);
      ( "parallel",
        [
          Alcotest.test_case "faulted points across jobs" `Quick
            test_faulted_jobs_determinism;
          Alcotest.test_case "cache keyed by faults" `Quick
            test_point_cache_keys_faults;
        ] );
    ]
