(* Tests for Rapid_core: meeting matrix, Estimate-Delay, replica database,
   and the RAPID protocol end to end (all three metrics, channel variants,
   ack behaviour, storage policy, and "beats Random under contention"). *)

open Rapid_trace
open Rapid_sim
open Rapid_core

let check_close ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let spec ~src ~dst ?(size = 10) ?(created = 0.0) ?deadline () =
  { Workload.src; dst; size; created; deadline }

let packet ~id ~src ~dst ?(size = 10) ?(created = 0.0) ?deadline () =
  Packet.of_spec ~id (spec ~src ~dst ~size ~created ?deadline ())

(* ------------------------------------------------------------------ *)
(* Meeting matrix *)

let test_matrix_direct_average () =
  let m = Meeting_matrix.create ~num_nodes:4 in
  Meeting_matrix.observe m ~now:10.0 ~a:0 ~b:1;
  Meeting_matrix.observe m ~now:30.0 ~a:1 ~b:0;
  (* First gap = 10 (from start), second = 20: average 15. *)
  (match Meeting_matrix.direct_mean m 0 1 with
  | Some v -> check_close "avg gap" 15.0 v
  | None -> Alcotest.fail "no mean");
  Alcotest.(check (option (float 0.0))) "unmet pair" None
    (Meeting_matrix.direct_mean m 2 3)

let test_matrix_symmetry () =
  let m = Meeting_matrix.create ~num_nodes:3 in
  Meeting_matrix.observe m ~now:5.0 ~a:2 ~b:0;
  Alcotest.(check (option (float 1e-9)))
    "symmetric"
    (Meeting_matrix.direct_mean m 0 2)
    (Meeting_matrix.direct_mean m 2 0)

let test_matrix_transitive () =
  let m = Meeting_matrix.create ~num_nodes:4 in
  (* 0-1 mean 10, 1-2 mean 20; 0 never meets 2 directly. *)
  Meeting_matrix.observe m ~now:10.0 ~a:0 ~b:1;
  Meeting_matrix.observe m ~now:20.0 ~a:1 ~b:2;
  check_close "2-hop estimate" 30.0 (Meeting_matrix.expected_meeting_time m 0 2);
  Alcotest.(check bool) "unreachable is infinite" true
    (Meeting_matrix.expected_meeting_time m 0 3 = infinity)

let test_matrix_three_hops () =
  let m = Meeting_matrix.create ~num_nodes:5 in
  Meeting_matrix.observe m ~now:10.0 ~a:0 ~b:1;
  Meeting_matrix.observe m ~now:10.0 ~a:1 ~b:2;
  Meeting_matrix.observe m ~now:10.0 ~a:2 ~b:3;
  (* Chain 0-1-2-3 needs 3 hops: reachable at h=3, not at h=2. *)
  Alcotest.(check bool) "h=2 unreachable" true
    (Meeting_matrix.expected_meeting_time ~h:2 m 0 3 = infinity);
  check_close "h=3 estimate" 30.0
    (Meeting_matrix.expected_meeting_time ~h:3 m 0 3);
  (* 4 is disconnected even at h=3. *)
  Alcotest.(check bool) "h=3 disconnected" true
    (Meeting_matrix.expected_meeting_time ~h:3 m 0 4 = infinity)

let test_matrix_transitive_vs_direct () =
  let m = Meeting_matrix.create ~num_nodes:3 in
  Meeting_matrix.observe m ~now:100.0 ~a:0 ~b:2;
  Meeting_matrix.observe m ~now:10.0 ~a:0 ~b:1;
  Meeting_matrix.observe m ~now:20.0 ~a:1 ~b:2;
  (* Direct 0-2 mean 100 vs via-1 10+20=30: transitive wins. *)
  check_close "min path" 30.0 (Meeting_matrix.expected_meeting_time m 0 2)

let row_builds_counter = Rapid_obs.Counter.create "meeting_matrix.row_builds"

let test_matrix_same_instant_keeps_cache () =
  (* Regression: a same-instant repeat meeting adds no gap observation, so
     no mean changes and the memoized rows must survive — the old code
     dropped the whole closure cache on every observe. *)
  let m = Meeting_matrix.create ~num_nodes:4 in
  Meeting_matrix.observe m ~now:10.0 ~a:0 ~b:1;
  Meeting_matrix.observe m ~now:20.0 ~a:1 ~b:2;
  let before = Meeting_matrix.expected_meeting_time m 0 2 in
  let builds0 = Rapid_obs.Counter.value row_builds_counter in
  Meeting_matrix.observe m ~now:20.0 ~a:1 ~b:2;
  let after = Meeting_matrix.expected_meeting_time m 0 2 in
  Alcotest.(check int) "no row rebuilt" builds0
    (Rapid_obs.Counter.value row_builds_counter);
  check_close "estimate unchanged" before after;
  (* A later (informative) meeting does invalidate. *)
  Meeting_matrix.observe m ~now:30.0 ~a:1 ~b:2;
  ignore (Meeting_matrix.expected_meeting_time m 0 2);
  Alcotest.(check int) "informative gap rebuilds" (builds0 + 1)
    (Rapid_obs.Counter.value row_builds_counter)

(* The seed implementation's full O(h·n³) closure, kept as the reference
   the lazy per-source rows must reproduce bit for bit. *)
let reference_closure m ~n ~h =
  let d1 =
    Array.init n (fun a ->
        Array.init n (fun b ->
            if a = b then 0.0
            else
              match Meeting_matrix.direct_mean m a b with
              | Some v -> v
              | None -> infinity))
  in
  let extend prev =
    Array.init n (fun a ->
        Array.init n (fun b ->
            if a = b then 0.0
            else begin
              let best = ref prev.(a).(b) in
              for y = 0 to n - 1 do
                if y <> a && y <> b then begin
                  let via = d1.(a).(y) +. prev.(y).(b) in
                  if via < !best then best := via
                end
              done;
              !best
            end))
  in
  let rec go acc k = if k >= h then acc else go (extend acc) (k + 1) in
  go d1 1

let prop_lazy_rows_equal_full_closure =
  QCheck.Test.make ~name:"lazy rows = full closure (h=1..3)" ~count:60
    QCheck.(pair (int_range 4 10) (int_range 0 10_000))
    (fun (n, seed) ->
      let rng = Rapid_prelude.Rng.create seed in
      let m = Meeting_matrix.create ~num_nodes:n in
      (* Random sparse meeting history: ~half the pairs never meet (their
         cells stay at infinity), some pairs meet twice so the mean is a
         true average, and means span three orders of magnitude. *)
      for a = 0 to n - 1 do
        for b = a + 1 to n - 1 do
          if Rapid_prelude.Rng.float rng < 0.5 then begin
            let t0 = 1.0 +. (999.0 *. Rapid_prelude.Rng.float rng) in
            Meeting_matrix.observe m ~now:t0 ~a ~b;
            if Rapid_prelude.Rng.float rng < 0.3 then
              Meeting_matrix.observe m
                ~now:(t0 +. 1.0 +. (99.0 *. Rapid_prelude.Rng.float rng))
                ~a ~b
          end
        done
      done;
      List.for_all
        (fun h ->
          let closure = reference_closure m ~n ~h in
          let ok = ref true in
          for a = 0 to n - 1 do
            for b = 0 to n - 1 do
              let want = closure.(a).(b) in
              let got = Meeting_matrix.expected_meeting_time ~h m a b in
              (* Bit-exact, including infinity for unreachable pairs. *)
              if got <> want then ok := false
            done
          done;
          !ok)
        [ 1; 2; 3 ])

let test_matrix_global_mean () =
  let m = Meeting_matrix.create ~num_nodes:3 in
  Alcotest.(check (option (float 0.0))) "empty" None (Meeting_matrix.global_mean m);
  Meeting_matrix.observe m ~now:10.0 ~a:0 ~b:1;
  Meeting_matrix.observe m ~now:30.0 ~a:1 ~b:2;
  match Meeting_matrix.global_mean m with
  | Some v -> check_close "mean of 10 and 30" 20.0 v
  | None -> Alcotest.fail "expected mean"

(* ------------------------------------------------------------------ *)
(* Estimate-Delay *)

let entry ?(received = 0.0) ?(hops = 0) p = { Buffer.packet = p; received; hops }

let test_n_meetings_position () =
  let dst = 9 in
  let mk id created = packet ~id ~src:0 ~dst ~size:100 ~created () in
  let entries = [ entry (mk 1 0.0); entry (mk 2 10.0); entry (mk 3 20.0) ] in
  (* Oldest (head of queue) with B=100: 1 meeting. *)
  Alcotest.(check int) "head" 1
    (Estimate_delay.n_meetings ~entries ~packet:(mk 1 0.0) ~avg_transfer_bytes:100.0);
  (* Last in queue: 300 bytes ahead incl. itself => 3 meetings. *)
  Alcotest.(check int) "tail" 3
    (Estimate_delay.n_meetings ~entries ~packet:(mk 3 20.0) ~avg_transfer_bytes:100.0);
  (* Bigger opportunities help. *)
  Alcotest.(check int) "large B" 1
    (Estimate_delay.n_meetings ~entries ~packet:(mk 3 20.0) ~avg_transfer_bytes:1000.0)

let test_n_meetings_ignores_other_destinations () =
  let mk id dst created = packet ~id ~src:0 ~dst ~size:100 ~created () in
  let entries = [ entry (mk 1 5 0.0); entry (mk 2 9 10.0) ] in
  Alcotest.(check int) "other-dest packets skipped" 1
    (Estimate_delay.n_meetings ~entries ~packet:(mk 2 9 10.0)
       ~avg_transfer_bytes:100.0)

let test_n_meetings_would_be_position () =
  (* Packet not yet buffered: position it would take. *)
  let mk id created = packet ~id ~src:0 ~dst:9 ~size:100 ~created () in
  let entries = [ entry (mk 1 0.0) ] in
  let newcomer = mk 99 50.0 in
  Alcotest.(check int) "behind existing" 2
    (Estimate_delay.n_meetings ~entries ~packet:newcomer ~avg_transfer_bytes:100.0)

let test_rates_and_delay () =
  (* Eq. 8/9: two holders, E=100 n=1 and E=200 n=2 => R = 1/100 + 1/400. *)
  let r =
    Rapid.rate_of_holder ~meeting_time:100.0 ~n_meet:1
    +. Rapid.rate_of_holder ~meeting_time:200.0 ~n_meet:2
  in
  check_close "rate" (0.01 +. 0.0025) r;
  check_close "A(i)" (1.0 /. 0.0125) (Rapid.expected_delay ~rate:r);
  check_close "P within" (1.0 -. exp (-0.0125 *. 50.0))
    (Rapid.delivery_prob_within ~rate:r ~horizon:50.0);
  check_close "dead horizon" 0.0
    (Rapid.delivery_prob_within ~rate:r ~horizon:(-1.0));
  Alcotest.(check bool) "infinite meeting = zero rate" true
    (Rapid.rate_of_holder ~meeting_time:infinity ~n_meet:1 = 0.0);
  Alcotest.(check bool) "zero rate = infinite delay" true
    (Rapid.expected_delay ~rate:0.0 = infinity)

let test_more_replicas_less_delay () =
  let rate k = float_of_int k *. Rapid.rate_of_holder ~meeting_time:100.0 ~n_meet:1 in
  let d k = Rapid.expected_delay ~rate:(rate k) in
  Alcotest.(check bool) "monotone" true (d 1 > d 2 && d 2 > d 4);
  check_close "uniform k replicas" (100.0 /. 4.0) (d 4)

(* ------------------------------------------------------------------ *)
(* Replica db *)

let test_replica_db_basics () =
  let db = Replica_db.create () in
  let p = packet ~id:1 ~src:0 ~dst:2 () in
  Replica_db.set_holder db ~packet:p ~holder_id:0 ~n_meet:1 ~now:1.0;
  Replica_db.set_holder db ~packet:p ~holder_id:3 ~n_meet:2 ~now:2.0;
  Alcotest.(check int) "two holders" 2 (List.length (Replica_db.holders db ~packet_id:1));
  Alcotest.(check int) "size" 2 (Replica_db.size db);
  Replica_db.remove_holder db ~packet_id:1 ~holder_id:0;
  Alcotest.(check int) "one left" 1 (List.length (Replica_db.holders db ~packet_id:1));
  Replica_db.remove_packet db ~packet_id:1;
  Alcotest.(check int) "gone" 0 (List.length (Replica_db.holders db ~packet_id:1))

let test_replica_db_merge_freshness () =
  let db = Replica_db.create () in
  let p = packet ~id:1 ~src:0 ~dst:2 () in
  Replica_db.set_holder db ~packet:p ~holder_id:0 ~n_meet:5 ~now:10.0;
  (* Stale gossip rejected. *)
  let stale = { Replica_db.n_meet = 1; updated_at = 5.0 } in
  Alcotest.(check bool) "stale rejected" false
    (Replica_db.merge db ~packet:p ~holder_id:0 ~holder:stale);
  (* Fresh gossip applied. *)
  let fresh = { Replica_db.n_meet = 2; updated_at = 20.0 } in
  Alcotest.(check bool) "fresh applied" true
    (Replica_db.merge db ~packet:p ~holder_id:0 ~holder:fresh);
  match Replica_db.holders db ~packet_id:1 with
  | [ (0, h) ] -> Alcotest.(check int) "n_meet updated" 2 h.Replica_db.n_meet
  | _ -> Alcotest.fail "unexpected holders"

(* The deduplicated log walk the gossip makes: each (packet, holder) pair
   of the suffix once, as the db holds it now. *)
let entries_since db threshold =
  let seen = Hashtbl.create 16 in
  let acc = ref [] in
  Replica_db.iter_ids_since db threshold (fun ~packet_id ~holder_id ->
      if not (Hashtbl.mem seen (packet_id, holder_id)) then begin
        Hashtbl.replace seen (packet_id, holder_id) ();
        match Replica_db.entry_since db threshold ~packet_id ~holder_id with
        | Some e -> acc := e :: !acc
        | None -> ()
      end);
  List.rev !acc

let test_replica_db_log_truncation () =
  (* The update log is bounded: after far more updates than the cap, the
     db still works and recent entries remain visible. *)
  let db = Replica_db.create () in
  let p = packet ~id:1 ~src:0 ~dst:2 () in
  for i = 1 to 40_000 do
    Replica_db.set_holder db ~packet:p ~holder_id:(i mod 7) ~n_meet:1
      ~now:(float_of_int i)
  done;
  (* Entries newer than t=39_990: holders updated in the last 10 steps. *)
  let recent = entries_since db 39_990.0 in
  Alcotest.(check bool) "recent entries visible" true (List.length recent > 0);
  List.iter
    (fun (e : Replica_db.entry) ->
      if e.Replica_db.holder.Replica_db.updated_at <= 39_990.0 then
        Alcotest.fail "stale entry leaked")
    recent;
  (* All 7 holders still stored (the records table is not truncated). *)
  Alcotest.(check int) "holders intact" 7
    (List.length (Replica_db.holders db ~packet_id:1))

let test_replica_db_entries_since () =
  let db = Replica_db.create () in
  let p = packet ~id:1 ~src:0 ~dst:2 () in
  let q = packet ~id:2 ~src:0 ~dst:3 () in
  Replica_db.set_holder db ~packet:p ~holder_id:0 ~n_meet:1 ~now:1.0;
  Replica_db.set_holder db ~packet:q ~holder_id:0 ~n_meet:1 ~now:5.0;
  Alcotest.(check int) "all" 2 (List.length (entries_since db 0.0));
  Alcotest.(check int) "recent only" 1 (List.length (entries_since db 2.0));
  Alcotest.(check int) "none" 0 (List.length (entries_since db 5.0))

(* ------------------------------------------------------------------ *)
(* RAPID end-to-end *)

let rapid ?(metric = Metric.Average_delay) ?channel ?use_acks () =
  let params = Rapid.default_params metric in
  let params =
    match channel with Some c -> { params with Rapid.channel = c } | None -> params
  in
  let params =
    match use_acks with Some a -> { params with Rapid.use_acks = a } | None -> params
  in
  Rapid.make params

let test_rapid_direct_delivery () =
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:3.0 ~a:0 ~b:1 ~bytes:1000 ]
  in
  let workload = [ spec ~src:0 ~dst:1 () ] in
  let report = (Engine.run ~protocol:(rapid ()) ~trace ~workload ()).Engine.report in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  check_close "delay" 3.0 report.Metrics.avg_delay

let test_rapid_replicates_after_learning () =
  (* Repeating pattern: 0 meets 1, then 1 meets 2. After the first cycle
     the matrix knows 1 meets 2, so the second packet is replicated via 1
     and delivered. *)
  let cycle t = [
    Contact.make ~time:t ~a:0 ~b:1 ~bytes:1000;
    Contact.make ~time:(t +. 5.0) ~a:1 ~b:2 ~bytes:1000;
  ]
  in
  let trace =
    Trace.create ~num_nodes:3 ~duration:100.0
      (cycle 10.0 @ cycle 30.0 @ cycle 50.0)
  in
  let workload = [ spec ~src:0 ~dst:2 ~created:20.0 () ] in
  let report = (Engine.run ~protocol:(rapid ()) ~trace ~workload ()).Engine.report in
  Alcotest.(check int) "delivered via relay" 1 report.Metrics.delivered

let test_rapid_cold_start_direct_only () =
  (* With an empty matrix RAPID must not replicate blindly. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000 ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report = (Engine.run ~protocol:(rapid ()) ~trace ~workload ()).Engine.report in
  Alcotest.(check int) "no blind replication" 0 report.Metrics.transfers

let test_rapid_acks_purge_replicas () =
  let cycle t = [
    Contact.make ~time:t ~a:0 ~b:1 ~bytes:1000;
    Contact.make ~time:(t +. 2.0) ~a:1 ~b:2 ~bytes:1000;
    Contact.make ~time:(t +. 4.0) ~a:0 ~b:2 ~bytes:1000;
  ]
  in
  let trace =
    Trace.create ~num_nodes:3 ~duration:100.0
      (List.concat_map cycle [ 10.0; 20.0; 30.0; 40.0 ])
  in
  let workload = [ spec ~src:0 ~dst:2 ~created:15.0 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(rapid ()) ~trace ~workload ()
  in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  (* After delivery + subsequent contacts, no stale copies remain. *)
  Array.iteri
    (fun node b ->
      if node <> 2 && Buffer.mem b 0 then
        Alcotest.failf "stale copy at node %d" node)
    env.Env.buffers

let test_rapid_deadline_skips_dead_packets () =
  (* A packet whose deadline passed must not be replicated (utility 0). *)
  let cycle t = [
    Contact.make ~time:t ~a:0 ~b:1 ~bytes:1000;
    Contact.make ~time:(t +. 5.0) ~a:1 ~b:2 ~bytes:1000;
  ]
  in
  let trace =
    Trace.create ~num_nodes:3 ~duration:200.0
      (List.concat_map cycle [ 10.0; 30.0; 50.0; 70.0 ])
  in
  (* Deadline at t=35: already dead at the t=50 meeting; alive at t=30. *)
  let workload =
    [ spec ~src:0 ~dst:2 ~created:45.0 ~deadline:46.0 () ]
  in
  let report =
    (Engine.run ~protocol:(rapid ~metric:Metric.Missed_deadlines ()) ~trace
      ~workload ()).Engine.report
  in
  Alcotest.(check int) "dead packet not replicated" 0 report.Metrics.transfers

let test_rapid_metric3_prioritizes_old () =
  (* Under max-delay, when bandwidth admits one packet the older one goes:
     a 1200-byte bottleneck contact fits one 1000-byte packet after
     metadata, and only what crossed it can be delivered at t=55. *)
  let cycle t = [
    Contact.make ~time:t ~a:0 ~b:1 ~bytes:100_000;
    Contact.make ~time:(t +. 5.0) ~a:1 ~b:2 ~bytes:100_000;
  ]
  in
  let trace =
    Trace.create ~num_nodes:3 ~duration:300.0
      (List.concat_map cycle [ 10.0; 30.0 ]
      @ [
          Contact.make ~time:50.0 ~a:0 ~b:1 ~bytes:1200;
          Contact.make ~time:55.0 ~a:1 ~b:2 ~bytes:100_000;
        ])
  in
  let workload =
    [
      spec ~src:0 ~dst:2 ~size:1000 ~created:40.0 ();
      spec ~src:0 ~dst:2 ~size:1000 ~created:45.0 ();
    ]
  in
  let { Engine.report; env } =
    Engine.run
      ~protocol:(rapid ~metric:Metric.Maximum_delay ())
      ~trace ~workload ()
  in
  Alcotest.(check int) "exactly one delivered" 1 report.Metrics.delivered;
  Alcotest.(check bool) "the older one" true (Env.is_delivered env 0);
  Alcotest.(check bool) "not the younger" false (Env.is_delivered env 1)

let test_rapid_storage_own_creation_pressure () =
  (* Node 0's buffer only fits 2 packets and all are its own: a foreign
     arrival could never evict them, but a fresh own creation replaces the
     lowest-utility own packet (otherwise a full source deadlocks). *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:9.0 ~a:0 ~b:1 ~bytes:5 ]
  in
  let workload =
    List.init 3 (fun i -> spec ~src:0 ~dst:1 ~size:10 ~created:(float_of_int i) ())
  in
  let { Engine.report; env } =
    Engine.run
      ~options:{ Engine.default_options with buffer_bytes = Some 20 }
      ~protocol:(rapid ()) ~trace ~workload ()
  in
  Alcotest.(check int) "one own packet displaced" 1 report.Metrics.drops;
  Alcotest.(check int) "buffer holds two" 2 (Buffer.count env.Env.buffers.(0));
  Alcotest.(check bool) "newest kept" true (Buffer.mem env.Env.buffers.(0) 2)

let test_rapid_evicts_foreign_before_own () =
  (* Node 1 buffers its own (never-deliverable) packet plus a foreign
     replica; when a second foreign replica arrives and the buffer is
     full, the foreign one is evicted, never node 1's own packet. *)
  let trace =
    Trace.create ~num_nodes:10 ~duration:100.0
      [
        Contact.make ~time:5.0 ~a:1 ~b:3 ~bytes:0;
        (* teach the matrix that 1 meets 3; no bytes move *)
        Contact.make ~time:10.0 ~a:0 ~b:1 ~bytes:1200;
        (* foreign replica to 1: buffer now full *)
        Contact.make ~time:20.0 ~a:2 ~b:1 ~bytes:1200;
        (* second foreign replica: something must go *)
      ]
  in
  let workload =
    [
      spec ~src:1 ~dst:9 ~size:1000 ~created:0.0 ();
      (* 1's own packet; dst 9 never appears *)
      spec ~src:0 ~dst:3 ~size:1000 ~created:1.0 ();
      spec ~src:2 ~dst:3 ~size:1000 ~created:2.0 ();
    ]
  in
  let { Engine.report; env } =
    Engine.run
      ~options:{ Engine.default_options with buffer_bytes = Some 2000 }
      ~protocol:(rapid ()) ~trace ~workload ()
  in
  Alcotest.(check bool) "own source packet kept" true (Buffer.mem env.Env.buffers.(1) 0);
  Alcotest.(check int) "a foreign replica was evicted" 1 report.Metrics.drops

let test_rapid_global_channel_instant_purge () =
  (* With the instant global channel, a delivered packet's stale replica is
     purged at the next contact even though no ack has propagated. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:100.0
      [
        Contact.make ~time:5.0 ~a:1 ~b:2 ~bytes:1000;
        (* teach matrix *)
        Contact.make ~time:10.0 ~a:0 ~b:1 ~bytes:1000;
        (* replicate to 1 *)
        Contact.make ~time:20.0 ~a:0 ~b:2 ~bytes:1000;
        (* source delivers *)
        Contact.make ~time:30.0 ~a:1 ~b:3 ~bytes:1000;
        (* instant ack: purge at 1 *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 ~created:6.0 () ] in
  let { Engine.report; env } =
    Engine.run
      ~protocol:(rapid ~channel:Control_channel.Instant_global ())
      ~trace ~workload ()
  in
  Alcotest.(check bool) "stale replica purged" false (Buffer.mem env.Env.buffers.(1) 0);
  (* The instant purge must flow through the same accounting hook as
     in-band ack purges and land in the run's report. *)
  Alcotest.(check int) "purge counted in report" 1 report.Metrics.ack_purges

let test_rapid_meta_watermark_no_resend () =
  (* Regression: when a budget cut leaves replica entries unsent, the next
     exchange with that peer must ship only the unsent ones, not rewind the
     watermark and re-ship what already crossed.

     Setup: acks off, table entries free, 1 byte per replica entry. Node 0
     holds two own packets for an unreachable destination, so nothing ever
     moves as data and every metadata byte is a replica entry. First
     contact has a 1-entry metadata budget (1% of 100 bytes): entry A1
     ships, A2 and db(1)'s A1 echo are deferred. The second contact has
     room for everything: A2 and the echo ship, 2 bytes. Total 3. The old
     watermark rewind re-shipped A1 as well, spending 4. *)
  let collector = Rapid_obs.Tracer.Collector.create ~keep_events:16 () in
  let params =
    {
      (Rapid.default_params Metric.Average_delay) with
      Rapid.use_acks = false;
      table_entry_bytes = 0;
      packet_entry_bytes = 1;
      tracer = Rapid_obs.Tracer.Collector.tracer collector;
    }
  in
  let trace =
    Trace.create ~num_nodes:4 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:10_000;
      ]
  in
  let workload =
    [
      spec ~src:0 ~dst:3 ~size:10 ~created:0.5 ();
      spec ~src:0 ~dst:3 ~size:10 ~created:0.5 ();
    ]
  in
  let report =
    (Engine.run
      ~options:{ Engine.default_options with meta_cap_frac = Some 0.01 }
      ~protocol:(Rapid.make params) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "nothing moved as data" 0 report.Metrics.transfers;
  Alcotest.(check int) "each entry shipped exactly once" 3
    report.Metrics.metadata_bytes;
  (* Cross-check through the protocol-level tracer: per-kind breakdown. *)
  let entry_bytes =
    List.fold_left
      (fun acc ev ->
        match ev with
        | Rapid_obs.Tracer.Metadata { bytes; kind = "entries"; _ } ->
            acc + bytes
        | _ -> acc)
      0
      (Rapid_obs.Tracer.Collector.events collector)
  in
  Alcotest.(check int) "tracer agrees on entry bytes" 3 entry_bytes;
  Alcotest.(check (option int)) "two contacts traced, two kinds each"
    (Some 4)
    (List.assoc_opt "metadata" (Rapid_obs.Tracer.Collector.counts collector))

let test_rapid_drop_candidate_own_replacement () =
  (* §3.4 unit check on the eviction policy itself: with only own packets
     buffered, a foreign arrival gets no victim, while a fresh own
     creation may displace an own packet. *)
  let module P = (val rapid () : Protocol.S) in
  let env =
    Env.create ~num_nodes:4 ~duration:100.0 ~buffer_capacity:(Some 20) ~seed:1
  in
  let st = P.create env in
  let own0 = packet ~id:0 ~src:0 ~dst:3 ~size:10 ~created:0.0 () in
  let own1 = packet ~id:1 ~src:0 ~dst:3 ~size:10 ~created:1.0 () in
  List.iter
    (fun p ->
      Buffer.add env.Env.buffers.(0)
        { Buffer.packet = p; received = p.Packet.created; hops = 0 };
      P.on_created st ~now:p.Packet.created p)
    [ own0; own1 ];
  (* Foreign replica arriving at the full source: protected own packets
     yield no candidate. *)
  let foreign = packet ~id:2 ~src:1 ~dst:3 ~size:10 ~created:2.0 () in
  (match P.drop_candidate st ~now:2.0 ~node:0 ~incoming:foreign with
  | None -> ()
  | Some v -> Alcotest.failf "own packet %d offered to a foreign arrival" v.Packet.id);
  (* A new own creation may displace an own packet (else a full source
     deadlocks forever). *)
  let own2 = packet ~id:3 ~src:0 ~dst:3 ~size:10 ~created:3.0 () in
  match P.drop_candidate st ~now:3.0 ~node:0 ~incoming:own2 with
  | Some v -> Alcotest.(check int) "victim is an own packet" 0 v.Packet.src
  | None -> Alcotest.fail "full source refused its own new packet"

let test_rapid_drop_candidate_allocation_flat () =
  (* Eviction scores every buffered entry on every call (§3.4), so its
     per-entry work must allocate nothing. Node 0 buffers foreign replicas
     of packets whose sources also hold them, so every believed rate sums
     two holders. Repeated calls must allocate the same words per call at
     200 entries as at 50. *)
  let words_per_call entries =
    let module P = (val rapid () : Protocol.S) in
    let env =
      Env.create ~num_nodes:4 ~duration:1e6 ~buffer_capacity:None ~seed:1
    in
    let st = P.create env in
    let meet now a b =
      ignore
        (P.on_contact st
           { Protocol.now; a; b; budget = 1_000_000; meta_budget = None;
             meta_ok = true })
    in
    (* Every node meets destination 3, so every rate is finite. *)
    List.iteri
      (fun i (a, b) -> meet (float_of_int (10 * (i + 1))) a b)
      [ (0, 3); (1, 3); (2, 3); (0, 3); (1, 3); (2, 3) ];
    for id = 0 to entries - 1 do
      let src = 1 + (id mod 2) in
      let p =
        packet ~id ~src ~dst:3 ~size:(10 + (id mod 7))
          ~created:(100.0 +. float_of_int id) ()
      in
      Buffer.add env.Env.buffers.(src) (entry p);
      P.on_created st ~now:p.Packet.created p;
      Buffer.add env.Env.buffers.(0) (entry ~hops:1 p);
      P.on_transfer st ~now:p.Packet.created ~sender:src ~receiver:0 p
        ~delivered:false
    done;
    (* Gossip tells node 0 about the sources' own copies. *)
    meet 1000.0 0 1;
    meet 1001.0 0 2;
    let incoming = packet ~id:entries ~src:2 ~dst:3 () in
    let victim () = P.drop_candidate st ~now:1002.0 ~node:0 ~incoming in
    (match victim () with
    | Some v -> Alcotest.(check bool) "a foreign victim" true (v.Packet.src <> 0)
    | None -> Alcotest.fail "no victim among foreign replicas");
    let calls = 50 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      ignore (victim ())
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let small = words_per_call 50 and large = words_per_call 200 in
  if large > small then
    Alcotest.failf
      "drop_candidate allocates %.1f words per call over 200 entries, %.1f \
       over 50: its per-entry scan allocates"
      large small

let test_rapid_on_contact_allocation_flat () =
  (* Every contact re-scores each buffered entry of both peers
     ([refresh_own]) and plans over the sender's buffer, so the per-entry
     work must allocate nothing. Node 0 holds its own packets, half for
     destination 3 (met, so B_j is the pair's mean) and half for
     destination 2 (never met, so B_j is the global mean). Lost exchanges
     and a constant budget keep every estimate still, so repeated
     meetings with node 1 must allocate the same words per call at 200
     entries as at 50. *)
  let words_per_call entries =
    let module P = (val rapid () : Protocol.S) in
    let env =
      Env.create ~num_nodes:4 ~duration:1e6 ~buffer_capacity:None ~seed:1
    in
    let st = P.create env in
    let meet now a b =
      ignore
        (P.on_contact st
           { Protocol.now; a; b; budget = 10_000; meta_budget = None;
             meta_ok = false })
    in
    meet 10.0 0 3;
    for id = 0 to entries - 1 do
      let p =
        packet ~id ~src:0 ~dst:(2 + (id mod 2)) ~size:(10 + (id mod 7))
          ~created:(100.0 +. float_of_int id) ()
      in
      Buffer.add env.Env.buffers.(0) (entry p);
      P.on_created st ~now:p.Packet.created p
    done;
    let clock = ref 1000.0 in
    let contact () =
      clock := !clock +. 10.0;
      meet !clock 0 1
    in
    contact ();
    let calls = 50 in
    let before = Gc.minor_words () in
    for _ = 1 to calls do
      contact ()
    done;
    (Gc.minor_words () -. before) /. float_of_int calls
  in
  let small = words_per_call 50 and large = words_per_call 200 in
  if large > small then
    Alcotest.failf
      "on_contact allocates %.1f words per call over 200 entries, %.1f over \
       50: its per-entry work allocates"
      large small

let contention_scenario ~seed =
  let rng = Rapid_prelude.Rng.create seed in
  let trace =
    Rapid_mobility.Mobility.powerlaw rng ~num_nodes:12 ~mean_inter_meeting:60.0
      ~duration:1200.0 ~opportunity_bytes:3000 ()
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:40.0 ~size:1000
      ~lifetime:300.0 ()
  in
  (trace, workload)

let avg_over seeds f =
  Rapid_prelude.Stats.mean (List.map f seeds)

let test_rapid_beats_random_avg_delay () =
  let seeds = [ 1; 2; 3; 4; 5 ] in
  let run proto seed =
    let trace, workload = contention_scenario ~seed in
    let r =
      (Engine.run
        ~options:{ Engine.default_options with buffer_bytes = Some 20_000; seed }
        ~protocol:proto ~trace ~workload ()).Engine.report
    in
    r.Metrics.avg_delay_all
  in
  let rapid_delay = avg_over seeds (run (rapid ())) in
  let random_delay =
    avg_over seeds (run (Rapid_routing.Random_protocol.make ()))
  in
  if rapid_delay >= random_delay then
    Alcotest.failf "RAPID (%.1fs) should beat Random (%.1fs)" rapid_delay
      random_delay

let test_rapid_deterministic () =
  let trace, workload = contention_scenario ~seed:7 in
  let run () =
    (Engine.run
      ~options:{ Engine.default_options with seed = 11 }
      ~protocol:(rapid ()) ~trace ~workload ()).Engine.report
  in
  let a = run () and b = run () in
  Alcotest.(check int) "same deliveries" a.Metrics.delivered b.Metrics.delivered;
  check_close "same delay" a.Metrics.avg_delay_all b.Metrics.avg_delay_all;
  Alcotest.(check int) "same metadata" a.Metrics.metadata_bytes b.Metrics.metadata_bytes

let test_rapid_metadata_cap_respected () =
  let trace, workload = contention_scenario ~seed:3 in
  let run frac =
    (Engine.run
      ~options:{ Engine.default_options with meta_cap_frac = frac; seed = 1 }
      ~protocol:(rapid ()) ~trace ~workload ()).Engine.report
  in
  let capped = run (Some 0.02) in
  let free = run None in
  if
    float_of_int capped.Metrics.metadata_bytes
    > 0.02 *. float_of_int capped.Metrics.capacity_bytes +. 1.0
  then Alcotest.fail "metadata exceeded the cap";
  Alcotest.(check bool) "uncapped uses more metadata" true
    (free.Metrics.metadata_bytes >= capped.Metrics.metadata_bytes)

let test_rapid_global_no_metadata_cost () =
  let trace, workload = contention_scenario ~seed:4 in
  let r =
    (Engine.run
      ~protocol:(rapid ~channel:Control_channel.Instant_global ())
      ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "oracle channel is free" 0 r.Metrics.metadata_bytes

let test_rapid_local_sends_less_metadata () =
  let trace, workload = contention_scenario ~seed:5 in
  let run channel =
    ((Engine.run ~protocol:(rapid ~channel ()) ~trace ~workload ()).Engine.report)
      .Metrics.metadata_bytes
  in
  let in_band = run Control_channel.In_band in
  let local = run Control_channel.Local_only in
  Alcotest.(check bool) "local <= in-band metadata" true (local <= in_band)

(* Golden fixed-seed runs. The ten report fields below were captured from
   the pre-rewrite engine (full O(h·n³) closure rebuilt on every observe)
   and must stay bit-identical: the lazy-row/dense-matrix hot path is a
   pure perf change, not a behavioural one. Floats printed with %.17g
   round-trip exactly, so [check_close ~eps:0.0] is an equality check. *)
let exponential_scenario ~seed =
  let rng = Rapid_prelude.Rng.create seed in
  let trace =
    Rapid_mobility.Mobility.exponential rng ~num_nodes:10
      ~mean_inter_meeting:50.0 ~duration:1500.0 ~opportunity_bytes:4000
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:30.0 ~size:800
      ~lifetime:250.0 ()
  in
  (trace, workload)

let check_golden name (r : Metrics.report)
    ~(delivered : int) ~(transfers : int) ~(drops : int) ~(ack_purges : int)
    ~(data : int) ~(meta : int) ~(within : int) ~(avg_delay : float)
    ~(avg_delay_all : float) ~(max_delay : float) =
  let ck what = Alcotest.(check int) (name ^ " " ^ what) in
  ck "delivered" delivered r.Metrics.delivered;
  ck "transfers" transfers r.Metrics.transfers;
  ck "drops" drops r.Metrics.drops;
  ck "ack purges" ack_purges r.Metrics.ack_purges;
  ck "data bytes" data r.Metrics.data_bytes;
  ck "metadata bytes" meta r.Metrics.metadata_bytes;
  ck "within deadline" within r.Metrics.within_deadline;
  check_close ~eps:0.0 (name ^ " avg delay") avg_delay r.Metrics.avg_delay;
  check_close ~eps:0.0 (name ^ " avg delay all") avg_delay_all
    r.Metrics.avg_delay_all;
  check_close ~eps:0.0 (name ^ " max delay") max_delay r.Metrics.max_delay

let test_rapid_golden_reports () =
  let t1, w1 = contention_scenario ~seed:7 in
  let r1 =
    (Engine.run
      ~options:
        { Engine.default_options with buffer_bytes = Some 20_000; seed = 11 }
      ~protocol:(Rapid.make_default Metric.Average_delay) ~trace:t1
      ~workload:w1 ()).Engine.report
  in
  check_golden "powerlaw/avg" r1 ~delivered:1214 ~transfers:2615 ~drops:1406
    ~ack_purges:323 ~data:2615000 ~meta:310164 ~within:1086
    ~avg_delay:122.67328088408885 ~avg_delay_all:212.16894533953294
    ~max_delay:1022.8141160740481;
  let t2, w2 = exponential_scenario ~seed:5 in
  let r2 =
    (Engine.run
      ~options:
        { Engine.default_options with buffer_bytes = Some 16_000; seed = 3 }
      ~protocol:(Rapid.make_default Metric.Missed_deadlines) ~trace:t2
      ~workload:w2 ()).Engine.report
  in
  check_golden "exponential/deadline" r2 ~delivered:1133 ~transfers:4815
    ~drops:0 ~ack_purges:3637 ~data:3852000 ~meta:401480 ~within:1133
    ~avg_delay:22.640752200477063 ~avg_delay_all:22.504559343422542
    ~max_delay:105.25903834844821;
  let t3, w3 = contention_scenario ~seed:9 in
  let r3 =
    (Engine.run
      ~options:
        { Engine.default_options with buffer_bytes = Some 12_000; seed = 2 }
      ~protocol:(Rapid.make_default Metric.Maximum_delay) ~trace:t3
      ~workload:w3 ()).Engine.report
  in
  check_golden "powerlaw/max" r3 ~delivered:1057 ~transfers:2494 ~drops:1708
    ~ack_purges:279 ~data:2494000 ~meta:294816 ~within:1051
    ~avg_delay:80.632460869601246 ~avg_delay_all:244.37462959613663
    ~max_delay:384.35386238667138

let test_rapid_faulted_runs_deterministic () =
  (* Reboots wipe buffers mid-run (the position index rebuilds from the
     moved buffer epoch, like after any other mutation): two identical
     faulted runs must still give identical reports. *)
  let trace, workload = contention_scenario ~seed:21 in
  let run () =
    (Engine.run
      ~options:
        {
          Engine.default_options with
          buffer_bytes = Some 20_000;
          seed = 21;
          faults =
            { Rapid_faults.Faults.none with seed = 5; reboots_per_node = 3.0 };
        }
      ~protocol:(rapid ()) ~trace ~workload ())
      .Engine.report
  in
  let r1 = run () in
  let r2 = run () in
  Alcotest.(check bool) "deterministic across identical faulted runs" true
    (r1 = r2);
  Alcotest.(check bool) "simulation progressed" true (r1.Metrics.delivered > 0)

(* ------------------------------------------------------------------ *)
(* Properties *)

let prop_rapid_meta_cap_respected =
  QCheck.Test.make ~name:"rapid respects any metadata cap" ~count:10
    QCheck.(pair (int_range 0 1000) (float_range 0.0 0.3))
    (fun (seed, cap) ->
      let trace, workload = contention_scenario ~seed in
      let r =
        (Engine.run
          ~options:
            { Engine.buffer_bytes = Some 20_000; meta_cap_frac = Some cap;
              seed; faults = Rapid_faults.Faults.none }
          ~protocol:(rapid ()) ~trace ~workload ()).Engine.report
      in
      float_of_int r.Metrics.metadata_bytes
      <= (cap *. float_of_int r.Metrics.capacity_bytes) +. 1.0)

let prop_nmeet_monotone_in_position =
  QCheck.Test.make ~name:"deeper buffer position needs more meetings" ~count:100
    QCheck.(pair (int_range 1 20) (float_range 50.0 500.0))
    (fun (depth, b) ->
      let dst = 9 in
      let mk id created = packet ~id ~src:0 ~dst ~size:100 ~created () in
      let entries =
        List.init depth (fun i -> entry (mk i (float_of_int i)))
      in
      let n_at i =
        Estimate_delay.n_meetings ~entries
          ~packet:(mk i (float_of_int i))
          ~avg_transfer_bytes:b
      in
      let rec monotone i = i >= depth || (n_at (i - 1) <= n_at i && monotone (i + 1)) in
      monotone 1)

let prop_more_holders_never_slower =
  QCheck.Test.make ~name:"adding a holder never increases A(i)" ~count:100
    QCheck.(list_of_size Gen.(int_range 1 8) (pair (float_range 10.0 1000.0) (int_range 1 5)))
    (fun holders ->
      let rate hs =
        List.fold_left
          (fun acc (e, n) ->
            acc +. Rapid.rate_of_holder ~meeting_time:e ~n_meet:n)
          0.0 hs
      in
      match holders with
      | [] -> true
      | _ :: rest ->
          Rapid.expected_delay ~rate:(rate holders)
          <= Rapid.expected_delay ~rate:(rate rest))

let prop_position_index_matches_scan =
  (* RAPID's position indexes against Estimate_delay's reference scan.
     Two buffers' indexes share one scratch, as all of one RAPID
     instance's do, and are synced in random interleaved order after 0, 1,
     a few or 50 mutations (adds, removals, clears, and an id removed and
     re-added between syncs). Every packet of the pool, buffered or not,
     must then sit behind exactly the bytes the scan counts (with B = 1
     the scan's n_meet is those bytes plus the packet's size). Ids are
     sparse and large, so syncs grow the shared stamp array; the pool has
     few creation times, so ties must fall back to ids. *)
  QCheck.Test.make ~name:"position index = reference scan" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module Rng = Rapid_prelude.Rng in
      let rng = Rng.create seed in
      let pool =
        Array.init 40 (fun k ->
            let dst = Rng.int rng 4 and size = 1 + Rng.int rng 50 in
            packet ~id:((k * 5_003) + Rng.int rng 5_000) ~src:4 ~dst ~size
              ~created:(float_of_int (Rng.int rng 8))
              ())
      in
      let shared = Position_index.scratch () in
      let sides =
        Array.init 2 (fun _ ->
            (Buffer.create ~capacity:None, Position_index.create shared, ref (-1)))
      in
      let ok = ref true in
      let expect b = if not b then ok := false in
      let check (buffer, index, synced) =
        let moved = Buffer.epoch buffer <> !synced in
        expect (Position_index.sync index buffer = moved);
        synced := Buffer.epoch buffer;
        expect (not (Position_index.sync index buffer));
        let entries =
          Buffer.fold_unordered buffer ~init:[] ~f:(fun acc e -> e :: acc)
        in
        let scan (q : Packet.t) =
          Estimate_delay.n_meetings ~entries ~packet:q ~avg_transfer_bytes:1.0
          - q.Packet.size
        in
        Array.iter
          (fun q -> expect (Position_index.bytes_before index q = scan q))
          pool;
        let visited = ref 0 in
        Position_index.iter index (fun q ~ahead ->
            incr visited;
            expect (Buffer.mem buffer q.Packet.id && ahead = scan q));
        expect (!visited = Buffer.count buffer)
      in
      let mutate () =
        let buffer, _, _ = sides.(Rng.int rng 2) in
        let p = pool.(Rng.int rng 40) in
        let id = p.Packet.id in
        match Rng.int rng 30 with
        | 0 -> ignore (Buffer.clear buffer)
        | k when k < 5 ->
            if Buffer.mem buffer id then begin
              ignore (Buffer.remove buffer id);
              Buffer.add buffer (entry p)
            end
        | k when k < 18 -> if not (Buffer.mem buffer id) then Buffer.add buffer (entry p)
        | _ -> ignore (Buffer.remove buffer id)
      in
      for _ = 1 to 30 do
        let m =
          match Rng.int rng 4 with 0 -> 0 | 1 -> 1 | 2 -> 50 | _ -> Rng.int rng 6
        in
        for _ = 1 to m do
          mutate ()
        done;
        let first = Rng.int rng 2 in
        List.iter
          (fun side -> if Rng.int rng 4 > 0 then check sides.(side))
          [ first; 1 - first ]
      done;
      !ok)

(* The metadata delta as §4.2 states it, with nothing cached: a Hashtbl
   backlog per directed pair, every candidate materialized (the backlog's
   surviving entries, then every entry updated after the pair's
   watermark, found by a full scan instead of the update log; the two
   agree until the log is truncated, far beyond the property's 150
   steps), the whole list sorted and the first [budget] merged. *)
module Ref_gossip = struct
  type t = {
    last : float array array;
    backlog : (int * int, unit) Hashtbl.t array array;
  }

  let create n =
    {
      last = Array.make_matrix n n neg_infinity;
      backlog =
        Array.init n (fun _ -> Array.init n (fun _ -> Hashtbl.create 4));
    }

  let send t (pool : Packet.t array) ~now ~sender ~receiver ~src ~dst ~only
      ~budget =
    let since = t.last.(sender).(receiver) in
    let backlog = t.backlog.(sender).(receiver) in
    let offered = Hashtbl.create 16 in
    let offer pid hid (h : Replica_db.holder) =
      let wanted =
        match only with None -> true | Some b -> Buffer.mem b pid
      in
      if wanted then Hashtbl.replace offered (pid, hid) h
    in
    Hashtbl.iter
      (fun (pid, hid) () ->
        Option.iter
          (fun (e : Replica_db.entry) -> offer pid hid e.Replica_db.holder)
          (Replica_db.entry_since src neg_infinity ~packet_id:pid
             ~holder_id:hid))
      backlog;
    Array.iter
      (fun (p : Packet.t) ->
        List.iter
          (fun (hid, (h : Replica_db.holder)) ->
            if h.Replica_db.updated_at > since then offer p.Packet.id hid h)
          (Replica_db.holders src ~packet_id:p.Packet.id))
      pool;
    let sorted =
      Hashtbl.fold (fun k h acc -> (k, h) :: acc) offered []
      |> List.sort (fun ((p, i), (h : Replica_db.holder)) ((q, j), h') ->
             compare (h.Replica_db.updated_at, p, i)
               (h'.Replica_db.updated_at, q, j))
    in
    Hashtbl.reset backlog;
    List.iteri
      (fun rank ((pid, hid), holder) ->
        if rank < budget then
          ignore
            (Replica_db.merge dst ~packet:pool.(pid) ~holder_id:hid ~holder)
        else Hashtbl.replace backlog (pid, hid) ())
      sorted;
    t.last.(sender).(receiver) <- now;
    min budget (List.length sorted)

  let forget_sender t node =
    Array.fill t.last.(node) 0 (Array.length t.last.(node)) neg_infinity;
    Array.iter Hashtbl.reset t.backlog.(node)
end

let prop_gossip_matches_reference =
  (* Two copies of four nodes' DBs see the same random history: first-hand
     writes, merges stamped up to 20 s in the past (late relays),
     removals, buffer churn for the local-only filter, sender reboots and
     sends with budgets of 0-3 entries, so backlogs build up. One copy
     gossips through [Gossip], the other through the reference. Integer
     clock steps, some of them 0, make updated_at ties common, so the
     (packet, holder) tie-breaks are exercised. *)
  QCheck.Test.make ~name:"gossip = reference model" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module Rng = Rapid_prelude.Rng in
      let rng = Rng.create seed in
      let n = 4 and np = 8 in
      let pool = Array.init np (fun id -> packet ~id ~src:0 ~dst:1 ()) in
      let g_dbs = Array.init n (fun _ -> Replica_db.create ()) in
      let r_dbs = Array.init n (fun _ -> Replica_db.create ()) in
      let buffers = Array.init n (fun _ -> Buffer.create ~capacity:None) in
      let gossip = Gossip.create ~num_nodes:n in
      let reference = Ref_gossip.create n in
      let now = ref 0.0 in
      let ok = ref true in
      let both f = f g_dbs; f r_dbs in
      for _ = 1 to 150 do
        now := !now +. float_of_int (Rng.int rng 3);
        let x = Rng.int rng n and pid = Rng.int rng np in
        let hid = Rng.int rng n in
        match Rng.int rng 12 with
        | 0 | 1 ->
            let n_meet = 1 + Rng.int rng 5 in
            both (fun dbs ->
                Replica_db.set_holder dbs.(x) ~packet:pool.(pid) ~holder_id:hid
                  ~n_meet ~now:!now)
        | 2 | 3 ->
            let holder =
              {
                Replica_db.n_meet = 1 + Rng.int rng 5;
                updated_at = !now -. float_of_int (Rng.int rng 21);
              }
            in
            both (fun dbs ->
                ignore
                  (Replica_db.merge dbs.(x) ~packet:pool.(pid) ~holder_id:hid
                     ~holder))
        | 4 ->
            both (fun dbs ->
                Replica_db.remove_holder dbs.(x) ~packet_id:pid ~holder_id:hid)
        | 5 -> both (fun dbs -> Replica_db.remove_packet dbs.(x) ~packet_id:pid)
        | 6 ->
            if Buffer.mem buffers.(x) pid then
              ignore (Buffer.remove buffers.(x) pid)
            else Buffer.add buffers.(x) (entry pool.(pid))
        | 7 ->
            if Rng.int rng 3 = 0 then begin
              Gossip.forget_sender gossip x;
              Ref_gossip.forget_sender reference x
            end
        | _ ->
            let receiver = (x + 1 + Rng.int rng (n - 1)) mod n in
            let budget = Rng.int rng 4 in
            let only = if Rng.bool rng then Some buffers.(x) else None in
            let got =
              Gossip.send gossip ~now:!now ~sender:x ~receiver ~src:g_dbs.(x)
                ~dst:g_dbs.(receiver) ~only ~budget
            in
            let want =
              Ref_gossip.send reference pool ~now:!now ~sender:x ~receiver
                ~src:r_dbs.(x) ~dst:r_dbs.(receiver) ~only ~budget
            in
            if got <> want then ok := false;
            for node = 0 to n - 1 do
              for packet_id = 0 to np - 1 do
                if
                  Replica_db.holders g_dbs.(node) ~packet_id
                  <> Replica_db.holders r_dbs.(node) ~packet_id
                then ok := false
              done
            done
      done;
      !ok)

(* The replica DB as it stood before its records went flat: a Hashtbl of
   records, each with a [Hashtbl.create 4] of holders, plus the same
   update log. [Replica_db] must answer every query exactly
   as this does, fold order included: RAPID's Eq. 9 sum visits holders in
   fold order, so the order fixes the rounding of every believed rate. *)
module Ref_replica_db = struct
  type record = { packet : Packet.t; holders : (int, Replica_db.holder) Hashtbl.t }

  type t = {
    records : (int, record) Hashtbl.t;
    mutable log : (float * int * int) list; (* newest first *)
    mutable newest : float;
  }

  let create () = { records = Hashtbl.create 256; log = []; newest = neg_infinity }

  let log t time pid hid =
    t.newest <- Float.max time t.newest;
    t.log <- (t.newest, pid, hid) :: t.log

  let record_of t (packet : Packet.t) =
    match Hashtbl.find_opt t.records packet.Packet.id with
    | Some r -> r
    | None ->
        let r = { packet; holders = Hashtbl.create 4 } in
        Hashtbl.replace t.records packet.Packet.id r;
        r

  let set_holder t ~packet ~holder_id ~n_meet ~now =
    let r = record_of t packet in
    Hashtbl.replace r.holders holder_id { Replica_db.n_meet; updated_at = now };
    log t now packet.Packet.id holder_id

  let merge t ~packet ~holder_id ~(holder : Replica_db.holder) =
    let r = record_of t packet in
    match Hashtbl.find_opt r.holders holder_id with
    | Some (e : Replica_db.holder)
      when e.Replica_db.updated_at >= holder.Replica_db.updated_at ->
        false
    | Some _ | None ->
        Hashtbl.replace r.holders holder_id holder;
        log t holder.Replica_db.updated_at packet.Packet.id holder_id;
        true

  let remove_holder t ~packet_id ~holder_id =
    match Hashtbl.find_opt t.records packet_id with
    | Some r when Hashtbl.mem r.holders holder_id ->
        Hashtbl.remove r.holders holder_id;
        if Hashtbl.length r.holders = 0 then Hashtbl.remove t.records packet_id
    | Some _ | None -> ()

  let remove_packet t ~packet_id =
    Hashtbl.remove t.records packet_id

  let fold_sequence t ~packet_id =
    match Hashtbl.find_opt t.records packet_id with
    | None -> []
    | Some r -> List.rev (Hashtbl.fold (fun id h acc -> (id, h) :: acc) r.holders [])

  let find t ~packet_id ~holder_id =
    Option.bind (Hashtbl.find_opt t.records packet_id) (fun r ->
        Hashtbl.find_opt r.holders holder_id)

  let ids_since t threshold =
    List.rev
      (List.filter_map
         (fun (time, pid, hid) -> if time > threshold then Some (pid, hid) else None)
         t.log)

  let size t =
    Hashtbl.fold (fun _ r acc -> acc + Hashtbl.length r.holders) t.records 0
end

let prop_replica_db_matches_reference =
  (* Random histories of writes on a few packets with holder ids up to 99,
     so a packet can collect more than 32 and then more than 64 holders
     and the emulated buckets double twice; removals and forgotten
     packets make records shrink and restart. After every step each
     query is compared with the reference: the exact fold sequence (ids
     and holder records), the sorted holder list, the count, the n_meet
     read of a present and of a random holder, entry_since at a random
     threshold, the log suffix and the size. *)
  QCheck.Test.make ~name:"replica db = reference model" ~count:60
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let module Rng = Rapid_prelude.Rng in
      let rng = Rng.create seed in
      let np = 1 + Rng.int rng 3 in
      let pool = Array.init np (fun id -> packet ~id ~src:0 ~dst:1 ()) in
      (* Half the histories never forget a packet, so holder sets can
         grow past 64; the other half forget one every ~160 steps. *)
      let forgets = Rng.bool rng in
      let db = Replica_db.create () and model = Ref_replica_db.create () in
      let now = ref 0.0 in
      let ok = ref true in
      let expect b = if not b then ok := false in
      for _ = 1 to 400 do
        now := !now +. float_of_int (Rng.int rng 3);
        let pid = Rng.int rng np and hid = Rng.int rng 100 in
        (match Rng.int rng 40 with
        | 39 when not forgets -> ()
        | k when k < 16 ->
            let n_meet = 1 + Rng.int rng 5 in
            Replica_db.set_holder db ~packet:pool.(pid) ~holder_id:hid ~n_meet
              ~now:!now;
            Ref_replica_db.set_holder model ~packet:pool.(pid) ~holder_id:hid
              ~n_meet ~now:!now
        | k when k < 30 ->
            let holder =
              {
                Replica_db.n_meet = 1 + Rng.int rng 5;
                updated_at = !now -. float_of_int (Rng.int rng 21);
              }
            in
            expect
              (Replica_db.merge db ~packet:pool.(pid) ~holder_id:hid ~holder
              = Ref_replica_db.merge model ~packet:pool.(pid) ~holder_id:hid
                  ~holder)
        | k when k < 39 ->
            Replica_db.remove_holder db ~packet_id:pid ~holder_id:hid;
            Ref_replica_db.remove_holder model ~packet_id:pid ~holder_id:hid
        | _ ->
            if Rng.int rng 4 = 0 then begin
              Replica_db.remove_packet db ~packet_id:pid;
              Ref_replica_db.remove_packet model ~packet_id:pid
            end);
        for packet_id = 0 to np - 1 do
          let seq = Ref_replica_db.fold_sequence model ~packet_id in
          expect
            (List.rev
               (Replica_db.fold_holders db ~packet_id ~init:[]
                  ~f:(fun acc id h -> (id, h) :: acc))
            = seq);
          expect
            (Replica_db.holders db ~packet_id
            = List.sort (fun (a, _) (b, _) -> Int.compare a b) seq);
          expect (Replica_db.holder_count db ~packet_id = List.length seq);
          List.iteri
            (fun i (id, (h : Replica_db.holder)) ->
              expect (Replica_db.holder_id_at db ~packet_id i = id);
              expect (Replica_db.n_meet_at db ~packet_id i = h.Replica_db.n_meet))
            seq;
          let n_meet holder_id =
            match Ref_replica_db.find model ~packet_id ~holder_id with
            | Some h -> h.Replica_db.n_meet
            | None -> -1
          in
          (match seq with
          | [] -> ()
          | _ ->
              let holder_id, _ = List.nth seq (Rng.int rng (List.length seq)) in
              expect (Replica_db.n_meet db ~packet_id ~holder_id = n_meet holder_id));
          let holder_id = Rng.int rng 100 in
          expect (Replica_db.n_meet db ~packet_id ~holder_id = n_meet holder_id);
          let threshold = !now -. float_of_int (Rng.int rng 30) in
          let want =
            match Ref_replica_db.find model ~packet_id ~holder_id with
            | Some h when h.Replica_db.updated_at > threshold -> Some (holder_id, h)
            | Some _ | None -> None
          in
          expect
            (Option.map
               (fun (e : Replica_db.entry) ->
                 (e.Replica_db.holder_id, e.Replica_db.holder))
               (Replica_db.entry_since db threshold ~packet_id ~holder_id)
            = want)
        done;
        let threshold = !now -. float_of_int (Rng.int rng 30) in
        let got = ref [] in
        Replica_db.iter_ids_since db threshold (fun ~packet_id ~holder_id ->
            got := (packet_id, holder_id) :: !got);
        expect (List.rev !got = Ref_replica_db.ids_since model threshold);
        expect (Replica_db.size db = Ref_replica_db.size model)
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [ prop_nmeet_monotone_in_position; prop_more_holders_never_slower;
      prop_rapid_meta_cap_respected; prop_lazy_rows_equal_full_closure;
      prop_position_index_matches_scan; prop_gossip_matches_reference;
      prop_replica_db_matches_reference ]

let () =
  Alcotest.run "core"
    [
      ( "meeting_matrix",
        [
          Alcotest.test_case "direct average" `Quick test_matrix_direct_average;
          Alcotest.test_case "symmetry" `Quick test_matrix_symmetry;
          Alcotest.test_case "transitive" `Quick test_matrix_transitive;
          Alcotest.test_case "three hops" `Quick test_matrix_three_hops;
          Alcotest.test_case "transitive vs direct" `Quick
            test_matrix_transitive_vs_direct;
          Alcotest.test_case "global mean" `Quick test_matrix_global_mean;
          Alcotest.test_case "same-instant keeps cache" `Quick
            test_matrix_same_instant_keeps_cache;
        ] );
      ( "estimate_delay",
        [
          Alcotest.test_case "queue position" `Quick test_n_meetings_position;
          Alcotest.test_case "other destinations" `Quick
            test_n_meetings_ignores_other_destinations;
          Alcotest.test_case "would-be position" `Quick
            test_n_meetings_would_be_position;
          Alcotest.test_case "rates and delay" `Quick test_rates_and_delay;
          Alcotest.test_case "replicas reduce delay" `Quick
            test_more_replicas_less_delay;
        ] );
      ( "replica_db",
        [
          Alcotest.test_case "basics" `Quick test_replica_db_basics;
          Alcotest.test_case "merge freshness" `Quick test_replica_db_merge_freshness;
          Alcotest.test_case "entries since" `Quick test_replica_db_entries_since;
          Alcotest.test_case "log truncation" `Quick test_replica_db_log_truncation;
        ] );
      ( "rapid",
        [
          Alcotest.test_case "direct delivery" `Quick test_rapid_direct_delivery;
          Alcotest.test_case "replicates after learning" `Quick
            test_rapid_replicates_after_learning;
          Alcotest.test_case "cold start" `Quick test_rapid_cold_start_direct_only;
          Alcotest.test_case "acks purge replicas" `Quick
            test_rapid_acks_purge_replicas;
          Alcotest.test_case "deadline skips dead" `Quick
            test_rapid_deadline_skips_dead_packets;
          Alcotest.test_case "metric3 prioritizes old" `Quick
            test_rapid_metric3_prioritizes_old;
          Alcotest.test_case "own creation pressure" `Quick
            test_rapid_storage_own_creation_pressure;
          Alcotest.test_case "evicts foreign before own" `Quick
            test_rapid_evicts_foreign_before_own;
          Alcotest.test_case "global channel purge" `Quick
            test_rapid_global_channel_instant_purge;
          Alcotest.test_case "beats random" `Slow test_rapid_beats_random_avg_delay;
          Alcotest.test_case "deterministic" `Quick test_rapid_deterministic;
          Alcotest.test_case "metadata cap" `Quick test_rapid_metadata_cap_respected;
          Alcotest.test_case "global channel free" `Quick
            test_rapid_global_no_metadata_cost;
          Alcotest.test_case "local channel lighter" `Quick
            test_rapid_local_sends_less_metadata;
          Alcotest.test_case "meta watermark no resend" `Quick
            test_rapid_meta_watermark_no_resend;
          Alcotest.test_case "faulted runs deterministic" `Quick
            test_rapid_faulted_runs_deterministic;
          Alcotest.test_case "drop candidate own replacement" `Quick
            test_rapid_drop_candidate_own_replacement;
          Alcotest.test_case "drop candidate allocation flat" `Quick
            test_rapid_drop_candidate_allocation_flat;
          Alcotest.test_case "on contact allocation flat" `Quick
            test_rapid_on_contact_allocation_flat;
          Alcotest.test_case "golden fixed-seed reports" `Slow
            test_rapid_golden_reports;
        ] );
      ("properties", qcheck_cases);
    ]
