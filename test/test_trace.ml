(* Tests for Rapid_trace (contacts, traces, workloads, serialization, the
   synthetic DieselNet generator) and Rapid_mobility. *)

open Rapid_prelude
open Rapid_trace
open Rapid_mobility

let check_close ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let check_rel ?(tol = 0.05) what expected actual =
  let denom = max 1e-12 (Float.abs expected) in
  if Float.abs (expected -. actual) /. denom > tol then
    Alcotest.failf "%s: expected ~%.6g, got %.6g" what expected actual

(* ------------------------------------------------------------------ *)
(* Contact *)

let test_contact_validation () =
  List.iter
    (fun time ->
      match Contact.make ~time ~a:0 ~b:1 ~bytes:10 with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "contact time %g accepted" time)
    [ -1.0; Float.nan; Float.infinity ];
  (match Contact.make ~time:1.0 ~a:3 ~b:3 ~bytes:10 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "self-meeting accepted");
  let c = Contact.make ~time:5.0 ~a:1 ~b:2 ~bytes:100 in
  Alcotest.(check int) "peer of 1" 2 (Contact.peer_of c 1);
  Alcotest.(check int) "peer of 2" 1 (Contact.peer_of c 2);
  Alcotest.(check bool) "involves" true (Contact.involves c 1);
  Alcotest.(check bool) "not involves" false (Contact.involves c 0)

(* ------------------------------------------------------------------ *)
(* Trace *)

let mk_trace () =
  Trace.create ~num_nodes:4 ~duration:100.0
    [
      Contact.make ~time:30.0 ~a:1 ~b:2 ~bytes:500;
      Contact.make ~time:10.0 ~a:0 ~b:1 ~bytes:1000;
      Contact.make ~time:50.0 ~a:0 ~b:1 ~bytes:200;
    ]

let test_trace_sorted () =
  let t = mk_trace () in
  Alcotest.(check int) "contacts" 3 (Trace.num_contacts t);
  let times = Array.map (fun (c : Contact.t) -> c.Contact.time) t.contacts in
  Alcotest.(check (array (float 0.0))) "sorted" [| 10.0; 30.0; 50.0 |] times

let test_trace_active_default () =
  let t = mk_trace () in
  Alcotest.(check (array int)) "active = appearing nodes" [| 0; 1; 2 |] t.active

let test_trace_capacity () =
  let t = mk_trace () in
  Alcotest.(check int) "capacity" 1700 (Trace.total_capacity_bytes t)

let test_trace_contacts_between () =
  let t = mk_trace () in
  Alcotest.(check int) "0-1 contacts" 2 (List.length (Trace.contacts_between t 0 1));
  Alcotest.(check int) "1-2 contacts" 1 (List.length (Trace.contacts_between t 1 2));
  Alcotest.(check int) "0-3 contacts" 0 (List.length (Trace.contacts_between t 0 3))

let test_trace_validation () =
  (match
     Trace.create ~num_nodes:2 ~duration:10.0
       [ Contact.make ~time:20.0 ~a:0 ~b:1 ~bytes:1 ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "contact after horizon accepted");
  List.iter
    (fun duration ->
      match Trace.create ~num_nodes:2 ~duration [] with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "duration %g accepted" duration)
    [ 0.0; Float.nan; Float.infinity ];
  match
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:5 ~bytes:1 ]
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range node accepted"

let test_trace_restrict_capacity () =
  let t = mk_trace () in
  let halved = Trace.restrict_capacity t ~f:(fun c -> c.Contact.bytes / 2) in
  Alcotest.(check int) "halved" 850 (Trace.total_capacity_bytes halved)

let test_trace_drop_contacts () =
  let t = mk_trace () in
  let dropped = Trace.drop_contacts t ~keep:(fun c -> c.Contact.time < 40.0) in
  Alcotest.(check int) "kept" 2 (Trace.num_contacts dropped)

(* ------------------------------------------------------------------ *)
(* Workload *)

let test_workload_rate () =
  let rng = Rng.create 1 in
  (* 3 active nodes => 6 ordered pairs; rate 6/h over 2 hours => 72 expected. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:7200.0
      ~active:[ 0; 1; 2 ]
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1 ]
  in
  let total = ref 0 in
  for _ = 1 to 50 do
    let specs =
      Workload.generate rng ~trace ~pkts_per_hour_per_dest:6.0 ~size:1024 ()
    in
    total := !total + List.length specs
  done;
  check_rel ~tol:0.06 "expected packets" 72.0 (float_of_int !total /. 50.0)

let test_workload_sorted_and_valid () =
  let rng = Rng.create 2 in
  let trace =
    Trace.create ~num_nodes:5 ~duration:3600.0
      ~active:[ 0; 2; 4 ]
      [ Contact.make ~time:1.0 ~a:0 ~b:2 ~bytes:1 ]
  in
  let specs =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:20.0 ~size:512
      ~lifetime:100.0 ()
  in
  let rec check_sorted = function
    | (a : Workload.spec) :: (b :: _ as rest) ->
        if a.created > b.created then Alcotest.fail "not sorted";
        check_sorted rest
    | _ -> ()
  in
  check_sorted specs;
  List.iter
    (fun (s : Workload.spec) ->
      if s.src = s.dst then Alcotest.fail "src = dst";
      if not (List.mem s.src [ 0; 2; 4 ]) then Alcotest.fail "inactive src";
      if not (List.mem s.dst [ 0; 2; 4 ]) then Alcotest.fail "inactive dst";
      match s.deadline with
      | Some d -> check_close ~eps:1e-9 "deadline" (s.created +. 100.0) d
      | None -> Alcotest.fail "missing deadline")
    specs

let test_workload_parallel_batch () =
  let rng = Rng.create 3 in
  let trace =
    Trace.create ~num_nodes:6 ~duration:1000.0
      ~active:[ 0; 1; 2; 3 ]
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1 ]
  in
  let batch = Workload.parallel_batch rng ~trace ~n:30 ~at:5.0 ~size:100 () in
  Alcotest.(check int) "count" 30 (List.length batch);
  List.iter
    (fun (s : Workload.spec) ->
      check_close ~eps:0.0 "same creation" 5.0 s.created;
      if s.src = s.dst then Alcotest.fail "src = dst")
    batch

let test_count_pairs () =
  let trace =
    Trace.create ~num_nodes:10 ~duration:10.0 ~active:[ 1; 2; 3; 4 ]
      [ Contact.make ~time:1.0 ~a:1 ~b:2 ~bytes:1 ]
  in
  Alcotest.(check int) "ordered pairs" 12 (Workload.count_pairs trace)

(* ------------------------------------------------------------------ *)
(* Trace_io *)

let test_io_roundtrip () =
  let t = mk_trace () in
  let t' = Trace_io.of_string (Trace_io.to_string t) in
  Alcotest.(check int) "nodes" t.num_nodes t'.num_nodes;
  check_close ~eps:1e-6 "duration" t.duration t'.duration;
  Alcotest.(check int) "contacts" (Trace.num_contacts t) (Trace.num_contacts t');
  Alcotest.(check (array int)) "active" t.active t'.active;
  Array.iteri
    (fun i (c : Contact.t) ->
      let c' = t'.contacts.(i) in
      check_close ~eps:1e-6 "time" c.time c'.Contact.time;
      Alcotest.(check int) "a" c.a c'.Contact.a;
      Alcotest.(check int) "b" c.b c'.Contact.b;
      Alcotest.(check int) "bytes" c.bytes c'.Contact.bytes)
    t.contacts

let test_io_file_roundtrip () =
  let t = mk_trace () in
  let path = Filename.temp_file "rapid_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace_io.save path t;
      let t' = Trace_io.load path in
      Alcotest.(check int) "contacts" (Trace.num_contacts t) (Trace.num_contacts t'))

let test_io_rejects_garbage () =
  (match Trace_io.of_string "nonsense" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "garbage accepted");
  (match Trace_io.of_string "rapid-trace 1\nduration 5.0\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "missing nodes accepted");
  (match Trace_io.of_string "rapid-trace 1\nnodes 2\nduration 5\ncontact x 0 1 5\n" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "bad contact accepted");
  (* Each input fails on its line, with Trace_io's own Failure: never an
     Invalid_argument from the validators behind it. *)
  List.iter
    (fun (what, body, line) ->
      match Trace_io.of_string ("rapid-trace 1\n" ^ body) with
      | exception Failure msg ->
          let want = Printf.sprintf "line %d:" line in
          if not (Astring.String.is_infix ~affix:want msg) then
            Alcotest.failf "%s: %S does not name %s" what msg want
      | _ -> Alcotest.failf "%s accepted" what)
    [
      ("unknown record", "nodes 2\nduration 5\nbogus 1\n", 4);
      ("node id >= nodes", "nodes 2\nduration 5\ncontact 1 0 2 5\n", 4);
      ("nodes 0", "nodes 0\nduration 5\n", 2);
      ("duration inf", "nodes 2\nduration inf\ncontact 1 0 1 5\n", 3);
      ("duration nan", "nodes 2\nduration nan\ncontact 1 0 1 5\n", 3);
      ("contact nan", "nodes 2\nduration 5\ncontact nan 0 1 100\n", 4);
      ("self-meeting", "nodes 2\nduration 5\ncontact 1 1 1 5\n", 4);
      ("contact after duration", "nodes 2\nduration 5\ncontact 9 0 1 5\n", 4);
      ("active id >= nodes", "nodes 2\nduration 5\nactive 0 2\n", 4);
    ]

let test_io_comments_and_blanks () =
  let s =
    "# a comment\nrapid-trace 1\n\nnodes 3\nduration 50\nactive 0 1\n\
     contact 1.5 0 1 100\n# trailing\n"
  in
  let t = Trace_io.of_string s in
  Alcotest.(check int) "nodes" 3 t.num_nodes;
  Alcotest.(check int) "contacts" 1 (Trace.num_contacts t);
  Alcotest.(check (array int)) "active" [| 0; 1 |] t.active

(* ------------------------------------------------------------------ *)
(* One_import *)

let one_sample =
  "# ONE connectivity report\n\
   10.0 CONN n1 n2 up\n\
   25.0 CONN n1 n2 down\n\
   30.0 CONN n3 n1 up\n\
   31.0 CONN n2 n3 up\n\
   40.0 CONN n3 n1 down\n"

let test_one_import_basic () =
  let trace, names = One_import.of_string ~bandwidth_bytes_per_sec:1000 one_sample in
  Alcotest.(check int) "three hosts" 3 trace.num_nodes;
  Alcotest.(check int) "three contacts" 3 (Trace.num_contacts trace);
  Alcotest.(check (list (pair string int)))
    "names in first-appearance order"
    [ ("n1", 0); ("n2", 1); ("n3", 2) ]
    names;
  (* First interval: 15 s * 1000 B/s. *)
  let c = trace.contacts.(0) in
  check_close ~eps:1e-9 "time" 10.0 c.Contact.time;
  Alcotest.(check int) "bytes" 15_000 c.Contact.bytes

let test_one_import_dangling_closed () =
  (* n2-n3 never goes down: closed at the last event (t=40), 9 s long. *)
  let trace, _ = One_import.of_string ~bandwidth_bytes_per_sec:100 one_sample in
  let n2n3 = Trace.contacts_between trace 1 2 in
  match n2n3 with
  | [ c ] -> Alcotest.(check int) "truncated size" 900 c.Contact.bytes
  | _ -> Alcotest.failf "expected one n2-n3 contact, got %d" (List.length n2n3)

let test_one_import_rejects_malformed () =
  (* Each input must fail with the documented line-numbered [Failure],
     naming the line given. *)
  List.iter
    (fun (s, line) ->
      let prefix = Printf.sprintf "One_import: line %d: " line in
      match One_import.of_string s with
      | exception Failure msg
        when String.starts_with ~prefix msg ->
          ()
      | exception e ->
          Alcotest.failf "%S raised %s, wanted %S..." s (Printexc.to_string e)
            prefix
      | _ -> Alcotest.failf "accepted %S" s)
    [
      ("abc CONN n1 n2 up\n", 1);
      ("5 CONN n1 n1 up\n", 1);
      ("5 CONN n1 n2 sideways\n", 1);
      ("5 CONN n1 n2 down\n", 1) (* down without up *);
      ("5 CONN n1 n2 up\n4 CONN n1 n3 up\n", 2) (* out of order *);
      ("5 CONN n1 n2 up\n6 CONN n1 n2 up\n", 2) (* double up *);
      (* Non-finite timestamps (they used to escape as Invalid_argument
         from Contact.make or Trace.create). *)
      ("nan CONN n1 n2 up\n", 1);
      ("inf CONN n1 n2 up\n", 1);
      ("1 CONN n1 n2 up\nnan CONN n1 n2 down\n", 2);
      ("1 CONN n1 n2 up\ninfinity CONN n1 n2 down\n", 2);
      ("1 CONN n1 n2 up\n2 CONN n1 n3 up\ninf CONN n2 n3 up\n", 3);
      (* Intervals whose byte size overflows an int: one used to raise
         Invalid_argument "Contact.make: negative size", a longer one
         became a 0-byte contact. An interval still open at the end is
         blamed on its up line. *)
      ("1 CONN n1 n2 up\n2e13 CONN n1 n2 down\n", 2);
      ("1 CONN n1 n2 up\n1e14 CONN n1 n2 down\n", 2);
      ("1 CONN n1 n2 up\n2 CONN n1 n3 up\n1e14 CONN n1 n3 down\n", 3);
      ("1 CONN n1 n2 up\n2 CONN n1 n3 up\n3 CONN n1 n3 down\n\
        1e14 CONN n2 n4 up\n", 1);
    ]

let test_one_import_runs_through_engine () =
  let trace, _ = One_import.of_string one_sample in
  let rng = Rng.create 1 in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:3600.0 ~size:100 ()
  in
  let report =
    (Rapid_sim.Engine.run
      ~protocol:(Rapid_routing.Epidemic.make ())
      ~trace ~workload ()).Rapid_sim.Engine.report
  in
  Alcotest.(check bool) "some packets created" true
    (report.Rapid_sim.Metrics.created > 0)

(* ------------------------------------------------------------------ *)
(* Dieselnet *)

let test_dieselnet_deterministic () =
  let d1 = Dieselnet.day ~seed:7 ~day:3 () in
  let d2 = Dieselnet.day ~seed:7 ~day:3 () in
  Alcotest.(check int) "same contacts" (Trace.num_contacts d1) (Trace.num_contacts d2);
  Alcotest.(check (array int)) "same schedule" d1.active d2.active;
  let d3 = Dieselnet.day ~seed:7 ~day:4 () in
  if
    Trace.num_contacts d1 = Trace.num_contacts d3
    && d1.active = d3.active
  then Alcotest.fail "different days should differ"

let test_dieselnet_calibration () =
  (* Averaged over many days, meetings and capacity should match the
     deployment's aggregates (Table 3). *)
  let days = Dieselnet.days ~seed:11 ~n:40 () in
  let meetings =
    Stats.mean (List.map (fun d -> float_of_int (Trace.num_contacts d)) days)
  in
  let mb =
    Stats.mean
      (List.map (fun d -> float_of_int (Trace.total_capacity_bytes d) /. 1e6) days)
  in
  check_rel ~tol:0.25 "meetings/day ~147.5" 147.5 meetings;
  check_rel ~tol:0.35 "MB/day ~261" 261.4 mb

let test_dieselnet_scheduled_subset () =
  let d = Dieselnet.day ~seed:1 ~day:0 () in
  let n = Array.length d.active in
  if n < 10 || n > 30 then Alcotest.failf "odd schedule size %d" n;
  Alcotest.(check int) "fleet size" 40 d.num_nodes

let test_dieselnet_some_pairs_never_meet () =
  (* Route structure must leave some active pairs without direct contact,
     exercising transitive meeting estimation. *)
  let d = Dieselnet.days ~seed:3 ~n:5 () |> List.hd in
  let active = d.active in
  let never = ref 0 and total = ref 0 in
  Array.iter
    (fun a ->
      Array.iter
        (fun b ->
          if a < b then begin
            incr total;
            if Trace.contacts_between d a b = [] then incr never
          end)
        active)
    active;
  if !never = 0 then Alcotest.fail "every pair met: no transitivity exercised";
  if !never = !total then Alcotest.fail "no pair ever met"

let test_route_distance_circular () =
  (* Routes loop through town: 0 and num_routes-1 are adjacent. The old
     linear |a - b| put them at distance 7 in an 8-route system, i.e.
     affinity zero, silently disconnecting every wrap-around pair. *)
  let d = Dieselnet.route_distance ~num_routes:8 in
  Alcotest.(check int) "wrap-around adjacency" 1 (d 0 7);
  Alcotest.(check int) "same route" 0 (d 3 3);
  Alcotest.(check int) "antipodal" 4 (d 0 4);
  Alcotest.(check int) "near pair" 2 (d 6 0);
  Alcotest.(check int) "symmetric" (d 2 7) (d 7 2);
  (* Circular distance can never exceed half the loop. *)
  for a = 0 to 7 do
    for b = 0 to 7 do
      if d a b > 4 then Alcotest.failf "distance %d-%d exceeds half loop" a b
    done
  done

let test_dieselnet_wraparound_pairs_meet () =
  (* Fails under the old linear route distance: buses on routes 0 and 7
     would never contact each other even though the routes are adjacent
     on the ground. *)
  let params = Dieselnet.default_params in
  let routes = Dieselnet.route_assignment ~params ~seed:3 in
  let wrap_meetings = ref 0 and checked_days = 10 in
  List.iter
    (fun (t : Trace.t) ->
      Array.iter
        (fun (c : Contact.t) ->
          let ra = routes.(c.Contact.a) and rb = routes.(c.Contact.b) in
          let linear = abs (ra - rb) in
          let circular =
            Dieselnet.route_distance ~num_routes:params.Dieselnet.num_routes ra rb
          in
          (* Every contacting pair must have positive affinity under the
             circular metric... *)
          if Dieselnet.route_affinity circular <= 0.0 then
            Alcotest.failf "contact between affinity-zero routes %d,%d" ra rb;
          (* ...and some contacts must span the wrap-around seam, where
             the linear metric says the pair should never meet. *)
          if linear >= 4 && circular <= 3 then incr wrap_meetings)
        t.Trace.contacts)
    (Dieselnet.days ~seed:3 ~n:checked_days ());
  if !wrap_meetings = 0 then
    Alcotest.fail "no wrap-around pair ever met: route space is not circular"

let test_deployment_noise () =
  let rng = Rng.create 4 in
  let d = Dieselnet.day ~seed:5 ~day:0 () in
  let noisy = Dieselnet.with_deployment_noise rng d in
  if Trace.num_contacts noisy > Trace.num_contacts d then
    Alcotest.fail "noise added contacts";
  if Trace.total_capacity_bytes noisy >= Trace.total_capacity_bytes d then
    Alcotest.fail "noise did not reduce capacity"

(* ------------------------------------------------------------------ *)
(* Mobility *)

let test_exponential_mobility_rate () =
  let rng = Rng.create 6 in
  (* 5 nodes, 10 pairs, mean 50s over 5000s => ~100 meetings/pair... total
     = 10 pairs * 100 = 1000. *)
  let t =
    Mobility.exponential rng ~num_nodes:5 ~mean_inter_meeting:50.0
      ~duration:5000.0 ~opportunity_bytes:100
  in
  check_rel ~tol:0.12 "meeting count" 1000.0 (float_of_int (Trace.num_contacts t))

let test_powerlaw_total_matches_exponential () =
  let rng = Rng.create 7 in
  let rates =
    Mobility.pair_rates_powerlaw rng ~num_nodes:10 ~mean_inter_meeting:30.0 ()
  in
  let total = ref 0.0 in
  for a = 0 to 9 do
    for b = a + 1 to 9 do
      total := !total +. rates.(a).(b)
    done
  done;
  (* 45 pairs at rate 1/30 each. *)
  check_close ~eps:1e-6 "normalized total" (45.0 /. 30.0) !total

let test_powerlaw_skew () =
  let rng = Rng.create 8 in
  let rates =
    Mobility.pair_rates_powerlaw rng ~num_nodes:10 ~mean_inter_meeting:30.0 ()
  in
  let flat = ref [] in
  for a = 0 to 9 do
    for b = a + 1 to 9 do
      flat := rates.(a).(b) :: !flat
    done
  done;
  let arr = Array.of_list !flat in
  Array.sort compare arr;
  let lo = arr.(0) and hi = arr.(Array.length arr - 1) in
  if hi /. lo < 10.0 then
    Alcotest.failf "rates not skewed enough: %g..%g" lo hi

let test_powerlaw_trace_runs () =
  let rng = Rng.create 9 in
  let t =
    Mobility.powerlaw rng ~num_nodes:20 ~mean_inter_meeting:45.0 ~duration:900.0
      ~opportunity_bytes:102400 ()
  in
  Alcotest.(check int) "all nodes" 20 t.num_nodes;
  if Trace.num_contacts t = 0 then Alcotest.fail "no meetings generated"

let test_community_boost () =
  let rng = Rng.create 10 in
  let t =
    Mobility.community rng ~num_nodes:12 ~num_communities:3
      ~mean_inter_meeting:20.0 ~duration:4000.0 ~opportunity_bytes:100 ()
  in
  if Trace.num_contacts t = 0 then Alcotest.fail "no meetings generated"

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_io_roundtrip =
  QCheck.Test.make ~name:"trace io roundtrip" ~count:50
    QCheck.(small_list (triple (int_bound 5) (int_bound 5) (int_bound 10_000)))
    (fun raw ->
      let contacts =
        List.filter_map
          (fun (a, b, bytes) ->
            if a = b then None
            else Some (Contact.make ~time:(float_of_int bytes /. 100.0) ~a ~b ~bytes))
          raw
      in
      let t = Trace.create ~num_nodes:6 ~duration:200.0 contacts in
      let t' = Trace_io.of_string (Trace_io.to_string t) in
      Trace.num_contacts t = Trace.num_contacts t'
      && Trace.total_capacity_bytes t = Trace.total_capacity_bytes t')

let prop_workload_within_horizon =
  QCheck.Test.make ~name:"workload creations within horizon" ~count:50
    QCheck.(pair (int_range 0 1000) (float_range 1.0 20.0))
    (fun (seed, rate) ->
      let rng = Rng.create seed in
      let trace =
        Trace.create ~num_nodes:4 ~duration:1800.0 ~active:[ 0; 1; 2 ]
          [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1 ]
      in
      let specs =
        Workload.generate rng ~trace ~pkts_per_hour_per_dest:rate ~size:10 ()
      in
      List.for_all
        (fun (s : Workload.spec) -> s.created >= 0.0 && s.created < 1800.0)
        specs)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_io_roundtrip; prop_workload_within_horizon ]

let () =
  Alcotest.run "trace"
    [
      ("contact", [ Alcotest.test_case "validation" `Quick test_contact_validation ]);
      ( "trace",
        [
          Alcotest.test_case "sorted" `Quick test_trace_sorted;
          Alcotest.test_case "active default" `Quick test_trace_active_default;
          Alcotest.test_case "capacity" `Quick test_trace_capacity;
          Alcotest.test_case "contacts between" `Quick test_trace_contacts_between;
          Alcotest.test_case "validation" `Quick test_trace_validation;
          Alcotest.test_case "restrict capacity" `Quick test_trace_restrict_capacity;
          Alcotest.test_case "drop contacts" `Quick test_trace_drop_contacts;
        ] );
      ( "workload",
        [
          Alcotest.test_case "rate" `Slow test_workload_rate;
          Alcotest.test_case "sorted and valid" `Quick test_workload_sorted_and_valid;
          Alcotest.test_case "parallel batch" `Quick test_workload_parallel_batch;
          Alcotest.test_case "count pairs" `Quick test_count_pairs;
        ] );
      ( "trace_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_io_rejects_garbage;
          Alcotest.test_case "comments and blanks" `Quick test_io_comments_and_blanks;
        ] );
      ( "one_import",
        [
          Alcotest.test_case "basic" `Quick test_one_import_basic;
          Alcotest.test_case "dangling closed" `Quick test_one_import_dangling_closed;
          Alcotest.test_case "rejects malformed" `Quick
            test_one_import_rejects_malformed;
          Alcotest.test_case "runs through engine" `Quick
            test_one_import_runs_through_engine;
        ] );
      ( "dieselnet",
        [
          Alcotest.test_case "deterministic" `Quick test_dieselnet_deterministic;
          Alcotest.test_case "calibration" `Slow test_dieselnet_calibration;
          Alcotest.test_case "scheduled subset" `Quick test_dieselnet_scheduled_subset;
          Alcotest.test_case "pairs never meet" `Quick
            test_dieselnet_some_pairs_never_meet;
          Alcotest.test_case "route distance circular" `Quick
            test_route_distance_circular;
          Alcotest.test_case "wrap-around pairs meet" `Quick
            test_dieselnet_wraparound_pairs_meet;
          Alcotest.test_case "deployment noise" `Quick test_deployment_noise;
        ] );
      ( "mobility",
        [
          Alcotest.test_case "exponential rate" `Slow test_exponential_mobility_rate;
          Alcotest.test_case "powerlaw normalization" `Quick
            test_powerlaw_total_matches_exponential;
          Alcotest.test_case "powerlaw skew" `Quick test_powerlaw_skew;
          Alcotest.test_case "powerlaw trace" `Quick test_powerlaw_trace_runs;
          Alcotest.test_case "community" `Quick test_community_boost;
        ] );
      ("properties", qcheck_cases);
    ]
