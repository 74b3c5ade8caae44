(* Tests for Rapid_routing: protocol-specific behaviours (spray tokens,
   prophet predictability gating, maxprop priorities, ack purging) and the
   Optimal evaluator against brute force. *)

open Rapid_trace
open Rapid_sim
open Rapid_routing

let check_close ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let spec ~src ~dst ?(size = 10) ?(created = 0.0) ?deadline () =
  { Workload.src; dst; size; created; deadline }

(* ------------------------------------------------------------------ *)
(* Spray and Wait *)

let test_spray_wait_limits_copies () =
  (* Star: source 0 meets relays 1..8 in sequence; dst 9 never appears.
     Binary spraying with L=4: the source gives 2 tokens to the first
     relay and 1 to the second, then holds a single token and waits — so
     exactly 2 transfers and 3 physical copies. *)
  let contacts =
    List.init 8 (fun i ->
        Contact.make ~time:(float_of_int (i + 1)) ~a:0 ~b:(i + 1) ~bytes:100)
  in
  let trace = Trace.create ~num_nodes:10 ~duration:20.0 contacts in
  let workload = [ spec ~src:0 ~dst:9 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Spray_wait.make ~l:4 ()) ~trace ~workload ()
  in
  let holders =
    Array.fold_left
      (fun acc b -> if Buffer.mem b 0 then acc + 1 else acc)
      0 env.Env.buffers
  in
  Alcotest.(check int) "copies limited by L" 2 report.Metrics.transfers;
  Alcotest.(check int) "holders = 3 (src + 2)" 3 holders

let test_spray_wait_single_copy_waits () =
  (* L=1: pure direct delivery; relay never gets the packet. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report =
    (Engine.run ~protocol:(Spray_wait.make ~l:1 ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "no relay, no delivery" 0 report.Metrics.delivered

let test_spray_wait_direct_delivery_always () =
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let workload = [ spec ~src:0 ~dst:1 () ] in
  let report =
    (Engine.run ~protocol:(Spray_wait.make ~l:1 ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "direct delivered" 1 report.Metrics.delivered

(* ------------------------------------------------------------------ *)
(* PROPHET *)

let test_prophet_requires_predictability () =
  (* Node 1 has never met dst 2 when it first meets 0, so no replication;
     after 1 meets 2 (raising P(1,2)), a later meeting with 0 replicates. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:100.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* no transfer expected: P(1,2)=0 = P(0,2) *)
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:0;
        (* 1 meets dst (zero-byte contact still updates predictability) *)
        Contact.make ~time:3.0 ~a:0 ~b:1 ~bytes:100;
        (* now P(1,2) > P(0,2): replicate *)
        Contact.make ~time:4.0 ~a:1 ~b:2 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report = (Engine.run ~protocol:(Prophet.make ()) ~trace ~workload ()).Engine.report in
  Alcotest.(check int) "delivered via predictable relay" 1 report.Metrics.delivered;
  check_close "delay" 4.0 report.Metrics.avg_delay

let test_prophet_aging () =
  (* Verify that gamma-aging decays predictability: same scenario but with a
     huge gap before the second 0-1 meeting; P(1,2) decays to ~0 and the
     relay is no better than the source, so no replication happens. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:1e7
      [
        Contact.make ~time:1.0 ~a:1 ~b:2 ~bytes:0;
        Contact.make ~time:9e6 ~a:0 ~b:1 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report =
    (Engine.run ~protocol:(Prophet.make ~time_unit:30.0 ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "no transfer after decay" 0 report.Metrics.transfers

let test_prophet_encounter_update_symmetric () =
  (* The transitivity pass must read predictability snapshots taken at the
     start of the encounter: with in-place updates the (a, b) loop could
     feed its own freshly-raised entries back into the (b, a) half, making
     the result depend on argument order. Swapping a and b must be a
     no-op. *)
  let n = 5 in
  let mk () =
    Array.init n (fun i ->
        Array.init n (fun j ->
            if i = j then 0.0
            else float_of_int (((i * 7) + (j * 3)) mod 10) /. 12.5))
  in
  let check ~p_init ~beta a b =
    let p1 = mk () and p2 = mk () in
    Prophet.encounter_update ~p_init ~beta p1 a b;
    Prophet.encounter_update ~p_init ~beta p2 b a;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        check_close
          (Printf.sprintf "beta=%g p.(%d).(%d)" beta i j)
          p1.(i).(j) p2.(i).(j)
      done
    done
  in
  check ~p_init:0.75 ~beta:0.25 1 3;
  (* beta > 1 is out of PROPHET's range but maximally exposes the
     in-place feedback: with live rows the two argument orders disagree
     here, with snapshots they cannot. *)
  check ~p_init:0.9 ~beta:1.25 1 3;
  check ~p_init:0.9 ~beta:1.25 0 4

(* ------------------------------------------------------------------ *)
(* MaxProp *)

let test_maxprop_acks_purge () =
  (* After delivery, the ack must reach the other carrier and purge its
     stale copy. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000;
        (* replicate to 1 *)
        Contact.make ~time:2.0 ~a:0 ~b:3 ~bytes:1000;
        (* source delivers to dst 3 *)
        Contact.make ~time:3.0 ~a:0 ~b:1 ~bytes:1000;
        (* ack flows 0 -> 1; 1 purges *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload ()
  in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  Alcotest.(check bool) "stale copy purged" false (Buffer.mem env.Env.buffers.(1) 0);
  Alcotest.(check bool) "ack purge recorded" true (report.Metrics.ack_purges >= 1)

let test_maxprop_delivers_chain () =
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:1000;
        Contact.make ~time:3.0 ~a:2 ~b:3 ~bytes:1000;
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let report = (Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload ()).Engine.report in
  Alcotest.(check int) "delivered over 3 hops" 1 report.Metrics.delivered

let test_maxprop_metadata_charged () =
  let trace =
    Trace.create ~num_nodes:3 ~duration:20.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000 ]
  in
  let report =
    (Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload:[] ()).Engine.report
  in
  Alcotest.(check bool) "vectors cost bytes" true (report.Metrics.metadata_bytes > 0)

let test_maxprop_no_acks_without_delivery () =
  (* Acks exist only for delivered packets: a replication-only run must
     never purge, even across repeated meetings of the carriers. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:20.0
      ~active:[ 0; 1; 2 ]
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000;
        Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:1000;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Maxprop.make ()) ~trace ~workload ()
  in
  Alcotest.(check int) "nothing delivered" 0 report.Metrics.delivered;
  Alcotest.(check int) "no ack purges" 0 report.Metrics.ack_purges;
  Alcotest.(check bool) "source keeps copy" true (Buffer.mem env.Env.buffers.(0) 0);
  Alcotest.(check bool) "relay keeps copy" true (Buffer.mem env.Env.buffers.(1) 0)

let test_maxprop_reboot_forgets_costs () =
  (* A reboot resets the node's likelihood vectors, so the path costs it
     cached at its last contact must go too. Meeting node 1 leaves node 0
     a cost row of 3/7 to dst 1 and 6/7 to dst 2, which would evict id 6
     (dst 2); after the reboot node 0 is a node that never met anyone,
     whose costs tie both at 2/3, so the smaller id 5 goes. *)
  let env =
    Env.create ~num_nodes:4 ~duration:100.0 ~buffer_capacity:None ~seed:1
  in
  let (module P) = Maxprop.make () in
  let st = P.create env in
  ignore
    (P.on_contact st
       {
         Protocol.now = 1.0;
         a = 0;
         b = 1;
         budget = 1000;
         meta_budget = None;
         meta_ok = true;
       });
  let lost = Buffer.clear env.Env.buffers.(0) in
  P.on_reboot st ~now:2.0 ~node:0 ~lost;
  List.iter
    (fun (id, dst) ->
      Buffer.add env.Env.buffers.(0)
        {
          Buffer.packet = Packet.of_spec ~id (spec ~src:0 ~dst ());
          received = 2.0;
          hops = 0;
        })
    [ (5, 1); (6, 2) ];
  let victim st =
    let incoming = Packet.of_spec ~id:7 (spec ~src:0 ~dst:3 ()) in
    match P.drop_candidate st ~now:2.0 ~node:0 ~incoming with
    | Some p -> p.Packet.id
    | None -> Alcotest.fail "no victim"
  in
  Alcotest.(check int) "never-met node evicts the smaller id" 5
    (victim (P.create env));
  Alcotest.(check int) "rebooted node ranks like a never-met one" 5 (victim st)

(* ------------------------------------------------------------------ *)
(* Spray tickets across duplicate meetings *)

let test_spray_wait_duplicate_meeting_keeps_tokens () =
  (* Ticket halving happens only when a copy is actually accepted. Meeting
     the same relay twice must not burn tokens: after the duplicate
     meeting the source still holds 2 tokens and sprays the next relay. *)
  let trace =
    Trace.create ~num_nodes:10 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* L=4: give 2, keep 2 *)
        Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:100;
        (* relay already holds it: no transfer, no halving *)
        Contact.make ~time:3.0 ~a:0 ~b:2 ~bytes:100;
        (* still 2 tokens: give 1, keep 1 *)
        Contact.make ~time:4.0 ~a:0 ~b:3 ~bytes:100;
        (* 1 token left: wait phase, no spray *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:9 () ] in
  let { Engine.report; env } =
    Engine.run ~protocol:(Spray_wait.make ~l:4 ()) ~trace ~workload ()
  in
  Alcotest.(check int) "two sprays" 2 report.Metrics.transfers;
  Alcotest.(check bool) "second relay got a copy" true
    (Buffer.mem env.Env.buffers.(2) 0);
  Alcotest.(check bool) "wait phase holds" false (Buffer.mem env.Env.buffers.(3) 0)

(* ------------------------------------------------------------------ *)
(* Random with acks vs without *)

let test_random_acks_reduce_waste () =
  (* Under storage pressure, purging delivered copies frees buffer space;
     opportunities are large enough that ack bytes are a minor cost. *)
  let rng = Rapid_prelude.Rng.create 5 in
  let trace =
    Rapid_mobility.Mobility.exponential rng ~num_nodes:8 ~mean_inter_meeting:20.0
      ~duration:600.0 ~opportunity_bytes:400
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:240.0 ~size:10 ()
  in
  let run protocol =
    (Engine.run
      ~options:{ Engine.default_options with buffer_bytes = Some 100; seed = 1 }
      ~protocol ~trace ~workload ()).Engine.report
  in
  let plain = run (Random_protocol.make ()) in
  let acked = run (Random_protocol.make ~with_acks:true ()) in
  Alcotest.(check bool) "acks purge something" true (acked.Metrics.ack_purges > 0);
  Alcotest.(check bool) "acks never hurt delivery badly" true
    (acked.Metrics.delivered * 10 >= plain.Metrics.delivered * 9)

(* ------------------------------------------------------------------ *)
(* Oracle forwarding *)

let test_oracle_forwards_single_copy () =
  (* Chain 0-1-2-3; the oracle must forward along it, keeping one copy. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:100;
        Contact.make ~time:3.0 ~a:2 ~b:3 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let { Engine.report; env } =
    Engine.run
      ~protocol:(Oracle_forwarding.make ~trace ())
      ~trace ~workload ()
  in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  check_close "delay" 3.0 report.Metrics.avg_delay;
  (* Single copy: no node still holds it after delivery. *)
  Array.iter
    (fun b -> if Buffer.mem b 0 then Alcotest.fail "stray copy left behind")
    env.Env.buffers

let test_oracle_refuses_dead_end () =
  (* Node 1 never reaches dst 3 later; the oracle must not forward to it. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* dead end: 1 meets nobody afterwards *)
        Contact.make ~time:5.0 ~a:0 ~b:3 ~bytes:100;
        (* source delivers directly later *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 () ] in
  let report =
    (Engine.run ~protocol:(Oracle_forwarding.make ~trace ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "delivered directly" 1 report.Metrics.delivered;
  check_close "kept for the direct contact" 5.0 report.Metrics.avg_delay;
  Alcotest.(check int) "exactly one transfer" 1 report.Metrics.transfers

let test_oracle_no_future_no_forward () =
  (* No path to the destination at all: the packet never moves. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let workload = [ spec ~src:0 ~dst:2 () ] in
  let report =
    (Engine.run ~protocol:(Oracle_forwarding.make ~trace ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "no transfers" 0 report.Metrics.transfers

(* ------------------------------------------------------------------ *)
(* drop_candidate tie-breaks: victims are found by a slot-order scan, so
   equal scores must fall to the smaller packet id explicitly, whatever
   order the buffer's slots hold. *)

(* Node 0 buffers ids 7, 3, 9, 5 (all to dst 2); removing 7 swaps 5
   into slot 0, so slot order (5, 3, 9) starts with neither the smallest
   nor the largest id. [hops] gives the replication depth per id. *)
let tie_env ?(hops = fun _ -> 0) () =
  let env =
    Env.create ~num_nodes:4 ~duration:100.0 ~buffer_capacity:None ~seed:1
  in
  List.iter
    (fun id ->
      Buffer.add env.Env.buffers.(0)
        {
          Buffer.packet = Packet.of_spec ~id (spec ~src:1 ~dst:2 ());
          received = 0.0;
          hops = hops id;
        })
    [ 7; 3; 9; 5 ];
  ignore (Buffer.remove env.Env.buffers.(0) 7);
  env

let drop_victim (protocol : Protocol.packed) env =
  let (module P) = protocol in
  let st = P.create env in
  let incoming = Packet.of_spec ~id:20 (spec ~src:3 ~dst:2 ()) in
  match P.drop_candidate st ~now:0.0 ~node:0 ~incoming with
  | Some p -> p.Packet.id
  | None -> Alcotest.fail "no victim"

let test_maxprop_drop_tie_smallest_id () =
  Alcotest.(check int) "equal hops and cost: smallest id" 3
    (drop_victim (Maxprop.make ()) (tie_env ()));
  (* Hops still dominate: the most-replicated copy goes first. *)
  Alcotest.(check int) "highest hops first" 9
    (drop_victim (Maxprop.make ())
       (tie_env ~hops:(fun id -> if id = 9 then 2 else 1) ()));
  Alcotest.(check int) "hop tie among the top falls to the smaller id" 5
    (drop_victim (Maxprop.make ())
       (tie_env ~hops:(fun id -> if id = 3 then 0 else 2) ()))

let test_prophet_drop_tie_smallest_id () =
  (* A fresh node's predictabilities are all 0: every copy ties. *)
  Alcotest.(check int) "equal predictability: smallest id" 3
    (drop_victim (Prophet.make ()) (tie_env ()))

(* ------------------------------------------------------------------ *)
(* Eviction goldens: every protocol's drop_candidate under binding
   storage. One short power-law run with 20 KB buffers (20 packets of
   1 KB) evicts on every protocol; each run is pinned by the MD5 of its
   report JSON followed by its full tracer event stream, so drop and
   ack-purge order are pinned too, not only the totals. Retune only for a
   deliberate behaviour change. *)

let eviction_goldens =
  let module R = Rapid_core.Rapid in
  let module M = Rapid_core.Metric in
  let rapid ?(channel = Rapid_core.Control_channel.In_band) metric =
    R.make { (R.default_params metric) with R.channel }
  in
  [
    ("rapid avg", (fun _ -> rapid M.Average_delay), "c2c12aa2a7e65af7a3a9e1082d34bc66");
    ("rapid max", (fun _ -> rapid M.Maximum_delay), "2d107642bd6b48a53576a2b35b1122f9");
    ("rapid deadline", (fun _ -> rapid M.Missed_deadlines), "c63343377fc78e16d2df558f56cab9bd");
    ( "rapid global",
      (fun _ ->
        rapid ~channel:Rapid_core.Control_channel.Instant_global
          M.Average_delay),
      "cf00ebc405abdc3ee17ed879fe755052" );
    ("maxprop", (fun _ -> Maxprop.make ()), "3f919b479d5e29c91a3a730b840590f0");
    ("spraywait", (fun _ -> Spray_wait.make ~l:12 ()), "a4bbdf3d3d7fd9a156ad284d41b8d6be");
    ("prophet", (fun _ -> Prophet.make ()), "3ef5acfda1dc792052203f42d04d07f6");
    ("random", (fun _ -> Random_protocol.make ()), "81121ab2c7872edc44a9f81be9594a1c");
    ("random acks", (fun _ -> Random_protocol.make ~with_acks:true ()), "09e133a110e1ef99534200806601b5d3");
    ( "random sv",
      (fun _ -> Random_protocol.make ~with_acks:true ~summary_vector:true ()),
      "19d1a42075bc16c32d3e9c1fc8950a8c" );
    ("epidemic", (fun _ -> Epidemic.make ()), "cd634eecb6fccb19f9eaa0581351f55a");
    ("direct", (fun _ -> Direct.make ()), "565677cddd8a7e5bff9553467110a1bc");
    ("oracle", (fun trace -> Oracle_forwarding.make ~trace ()), "90c6d1f83eb2e7eeb6b916c8e0dec42e");
  ]

let eviction_run =
  lazy
    (let rng = Rapid_prelude.Rng.create 7 in
     let trace =
       Rapid_mobility.Mobility.powerlaw rng ~num_nodes:12
         ~mean_inter_meeting:60.0 ~duration:300.0 ~opportunity_bytes:20_480 ()
     in
     let workload =
       Workload.generate rng ~trace ~pkts_per_hour_per_dest:120.0 ~size:1024
         ~lifetime:120.0 ()
     in
     (trace, workload))

let test_eviction_golden (label, make, want) () =
  let trace, workload = Lazy.force eviction_run in
  let events = Stdlib.Buffer.create 4096 in
  let tracer =
    Rapid_obs.Tracer.make (fun ev ->
        Stdlib.Buffer.add_string events
          (Rapid_obs.Json.to_string (Rapid_obs.Tracer.event_to_json ev));
        Stdlib.Buffer.add_char events '\n')
  in
  let options =
    { Engine.default_options with buffer_bytes = Some 20_480; seed = 3 }
  in
  let report =
    (Engine.run ~options ~tracer ~protocol:(make trace) ~trace ~workload ())
      .Engine.report
  in
  if report.Metrics.drops = 0 then
    Alcotest.failf "%s: the golden run never evicted" label;
  let got =
    Digest.to_hex
      (Digest.string
         (Rapid_obs.Json.to_string (Metrics.report_to_json report)
         ^ "\n"
         ^ Stdlib.Buffer.contents events))
  in
  Alcotest.(check string) (label ^ " digest") want got

(* ------------------------------------------------------------------ *)
(* Optimal *)

let test_contention_free_simple () =
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:10;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:10;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 ~size:10 () ] in
  let v = Optimal.contention_free ~trace ~workload in
  Alcotest.(check int) "delivered" 1 v.Optimal.delivered;
  check_close "delay" 2.0 v.Optimal.avg_delay_all

let test_contention_free_size_limit () =
  (* Packet bigger than any opportunity cannot move. *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:5 ]
  in
  let workload = [ spec ~src:0 ~dst:1 ~size:10 () ] in
  let v = Optimal.contention_free ~trace ~workload in
  Alcotest.(check int) "undeliverable" 0 v.Optimal.delivered;
  check_close "penalty" 10.0 v.Optimal.avg_delay_all

let test_ilp_contention () =
  (* One unit opportunity, two unit packets to the same dst: only one can
     cross; the ILP must pick exactly one and charge the other the horizon. *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:1 ]
  in
  let workload =
    [ spec ~src:0 ~dst:1 ~size:1 (); spec ~src:0 ~dst:1 ~size:1 () ]
  in
  let v = Optimal.evaluate ~trace ~workload () in
  Alcotest.(check int) "one delivered" 1 v.Optimal.delivered;
  (* delays: delivered 2.0, undelivered 10.0 => avg 6.0 *)
  check_close "avg" 6.0 v.Optimal.avg_delay_all;
  (match v.Optimal.how with
  | Optimal.Ilp_exact -> ()
  | Optimal.Ilp_incumbent | Optimal.Bound -> Alcotest.fail "expected exact ILP")

let test_ilp_prefers_two_late_over_one_early () =
  (* Min total delay: delivering both packets late (t=5, delays 5+5=10) beats
     one early (t=1, delay 1) + one undelivered (10): 10 < 11. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:2 ~bytes:1;
        Contact.make ~time:5.0 ~a:0 ~b:2 ~bytes:1;
        Contact.make ~time:5.5 ~a:0 ~b:2 ~bytes:1;
      ]
  in
  let workload =
    [ spec ~src:0 ~dst:2 ~size:1 (); spec ~src:0 ~dst:2 ~size:1 () ]
  in
  let v = Optimal.evaluate ~trace ~workload () in
  Alcotest.(check int) "both delivered" 2 v.Optimal.delivered

let test_ilp_multi_hop_with_contention () =
  (* Two packets, relay chain with a shared bottleneck link of size 1. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:20.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:2;
        Contact.make ~time:2.0 ~a:1 ~b:3 ~bytes:1;
        (* bottleneck *)
        Contact.make ~time:5.0 ~a:0 ~b:3 ~bytes:1;
        (* direct fallback for the other *)
      ]
  in
  let workload =
    [ spec ~src:0 ~dst:3 ~size:1 (); spec ~src:0 ~dst:3 ~size:1 () ]
  in
  let v = Optimal.evaluate ~trace ~workload () in
  Alcotest.(check int) "both delivered" 2 v.Optimal.delivered;
  (* One at t=2 via relay, one at t=5 direct: avg 3.5. *)
  check_close "avg delay" 3.5 v.Optimal.avg_delay_all

let test_ilp_fallback_on_big_instance () =
  let rng = Rapid_prelude.Rng.create 1 in
  let trace =
    Rapid_mobility.Mobility.exponential rng ~num_nodes:10 ~mean_inter_meeting:5.0
      ~duration:500.0 ~opportunity_bytes:10
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:200.0 ~size:1 ()
  in
  let v = Optimal.evaluate ~max_vars:50 ~trace ~workload () in
  match v.Optimal.how with
  | Optimal.Bound -> ()
  | Optimal.Ilp_exact | Optimal.Ilp_incumbent ->
      Alcotest.fail "expected fallback to the bound"

let test_optimal_lower_bounds_protocols () =
  (* Optimal (even the bound) must not be worse than a protocol run. *)
  let rng = Rapid_prelude.Rng.create 9 in
  let trace =
    Rapid_mobility.Mobility.exponential rng ~num_nodes:6 ~mean_inter_meeting:40.0
      ~duration:600.0 ~opportunity_bytes:5000
  in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:30.0 ~size:10 ()
  in
  if workload <> [] then begin
    let bound = Optimal.contention_free ~trace ~workload in
    let epidemic =
      (Engine.run ~protocol:(Epidemic.make ()) ~trace ~workload ()).Engine.report
    in
    if bound.Optimal.avg_delay_all > epidemic.Metrics.avg_delay_all +. 1e-6 then
      Alcotest.failf "bound %.2f worse than epidemic %.2f"
        bound.Optimal.avg_delay_all epidemic.Metrics.avg_delay_all
  end

(* ------------------------------------------------------------------ *)
(* Property: ILP delivery count equals brute force on tiny instances. *)

let prop_ilp_matches_brute_deliveries =
  QCheck.Test.make ~name:"optimal ILP = brute force deliveries" ~count:25
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rapid_prelude.Rng.create seed in
      let num_nodes = 4 in
      let n_contacts = 2 + Rapid_prelude.Rng.int rng 4 in
      let contacts =
        List.init n_contacts (fun i ->
            let a = Rapid_prelude.Rng.int rng num_nodes in
            let rec pick () =
              let b = Rapid_prelude.Rng.int rng num_nodes in
              if b = a then pick () else b
            in
            Contact.make ~time:(float_of_int (i + 1)) ~a ~b:(pick ()) ~bytes:1)
      in
      let trace =
        Trace.create ~num_nodes ~duration:(float_of_int (n_contacts + 2)) contacts
      in
      let n_packets = 1 + Rapid_prelude.Rng.int rng 3 in
      let workload =
        List.init n_packets (fun _ ->
            let src = Rapid_prelude.Rng.int rng num_nodes in
            let rec pick () =
              let dst = Rapid_prelude.Rng.int rng num_nodes in
              if dst = src then pick () else dst
            in
            spec ~src ~dst:(pick ()) ~size:1 ())
      in
      let brute = Rapid_hardness.Edp_reduction.max_deliveries_brute trace workload in
      match
        Optimal.evaluate ~objective:Optimal.Max_deliveries ~max_bb_nodes:2000
          ~trace ~workload ()
      with
      | v -> v.Optimal.delivered = brute)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest [ prop_ilp_matches_brute_deliveries ]

let () =
  Alcotest.run "routing"
    [
      ( "spray_wait",
        [
          Alcotest.test_case "copies limited" `Quick test_spray_wait_limits_copies;
          Alcotest.test_case "single copy waits" `Quick
            test_spray_wait_single_copy_waits;
          Alcotest.test_case "direct always" `Quick
            test_spray_wait_direct_delivery_always;
          Alcotest.test_case "duplicate meeting keeps tokens" `Quick
            test_spray_wait_duplicate_meeting_keeps_tokens;
        ] );
      ( "prophet",
        [
          Alcotest.test_case "predictability gate" `Quick
            test_prophet_requires_predictability;
          Alcotest.test_case "aging" `Quick test_prophet_aging;
          Alcotest.test_case "encounter update symmetric" `Quick
            test_prophet_encounter_update_symmetric;
        ] );
      ( "maxprop",
        [
          Alcotest.test_case "acks purge" `Quick test_maxprop_acks_purge;
          Alcotest.test_case "chain delivery" `Quick test_maxprop_delivers_chain;
          Alcotest.test_case "metadata charged" `Quick test_maxprop_metadata_charged;
          Alcotest.test_case "no acks without delivery" `Quick
            test_maxprop_no_acks_without_delivery;
          Alcotest.test_case "reboot forgets costs" `Quick
            test_maxprop_reboot_forgets_costs;
        ] );
      ( "random",
        [ Alcotest.test_case "acks reduce waste" `Slow test_random_acks_reduce_waste ] );
      ( "oracle",
        [
          Alcotest.test_case "single copy chain" `Quick
            test_oracle_forwards_single_copy;
          Alcotest.test_case "refuses dead end" `Quick test_oracle_refuses_dead_end;
          Alcotest.test_case "no path no forward" `Quick
            test_oracle_no_future_no_forward;
        ] );
      ( "drop ties",
        [
          Alcotest.test_case "maxprop smallest id" `Quick
            test_maxprop_drop_tie_smallest_id;
          Alcotest.test_case "prophet smallest id" `Quick
            test_prophet_drop_tie_smallest_id;
        ] );
      ( "goldens",
        List.map
          (fun ((label, _, _) as golden) ->
            Alcotest.test_case label `Quick (test_eviction_golden golden))
          eviction_goldens );
      ( "optimal",
        [
          Alcotest.test_case "contention free" `Quick test_contention_free_simple;
          Alcotest.test_case "size limit" `Quick test_contention_free_size_limit;
          Alcotest.test_case "ilp contention" `Quick test_ilp_contention;
          Alcotest.test_case "two late beat one early" `Quick
            test_ilp_prefers_two_late_over_one_early;
          Alcotest.test_case "multi-hop contention" `Quick
            test_ilp_multi_hop_with_contention;
          Alcotest.test_case "fallback on big instance" `Quick
            test_ilp_fallback_on_big_instance;
          Alcotest.test_case "bound below protocols" `Quick
            test_optimal_lower_bounds_protocols;
        ] );
      ("properties", qcheck_cases);
    ]
