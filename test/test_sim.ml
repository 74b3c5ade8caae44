(* Tests for Rapid_sim: packets, buffers, the engine's feasibility
   guarantees (bandwidth and storage), delivery accounting, metadata
   capping, ack stores, and the per-contact send-queue planner. *)

open Rapid_trace
open Rapid_sim

let check_close ?(eps = 1e-9) what expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9g, got %.9g" what expected actual

let spec ~src ~dst ?(size = 10) ?(created = 0.0) ?deadline () =
  { Workload.src; dst; size; created; deadline }

let packet ~id ~src ~dst ?(size = 10) ?(created = 0.0) ?deadline () =
  Packet.of_spec ~id (spec ~src ~dst ~size ~created ?deadline ())

(* ------------------------------------------------------------------ *)
(* Packet *)

let test_packet_age_deadline () =
  let p = packet ~id:0 ~src:0 ~dst:1 ~created:10.0 ~deadline:30.0 () in
  check_close "age" 15.0 (Packet.age p ~now:25.0);
  (match Packet.remaining_lifetime p ~now:25.0 with
  | Some r -> check_close "remaining" 5.0 r
  | None -> Alcotest.fail "deadline lost");
  Alcotest.(check bool) "not missed" false (Packet.missed_deadline p ~now:25.0);
  Alcotest.(check bool) "missed" true (Packet.missed_deadline p ~now:31.0)

let test_packet_validation () =
  (match packet ~id:0 ~src:1 ~dst:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "src=dst accepted");
  match packet ~id:0 ~src:0 ~dst:1 ~size:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero size accepted"

(* ------------------------------------------------------------------ *)
(* Buffer *)

let entry ?(received = 0.0) ?(hops = 0) p = { Buffer.packet = p; received; hops }

let test_buffer_capacity () =
  let b = Buffer.create ~capacity:(Some 25) in
  Buffer.add b (entry (packet ~id:0 ~src:0 ~dst:1 ~size:10 ()));
  Buffer.add b (entry (packet ~id:1 ~src:0 ~dst:1 ~size:10 ()));
  Alcotest.(check int) "used" 20 (Buffer.used b);
  Alcotest.(check bool) "no room for 10" false (Buffer.would_fit b 10);
  Alcotest.(check bool) "room for 5" true (Buffer.would_fit b 5);
  (match Buffer.add b (entry (packet ~id:2 ~src:0 ~dst:1 ~size:10 ())) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "over-capacity add accepted");
  ignore (Buffer.remove b 0);
  Alcotest.(check int) "used after remove" 10 (Buffer.used b);
  Alcotest.(check bool) "now fits" true (Buffer.would_fit b 10)

let test_buffer_duplicate () =
  let b = Buffer.create ~capacity:None in
  let p = packet ~id:5 ~src:0 ~dst:1 () in
  Buffer.add b (entry p);
  match Buffer.add b (entry p) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_buffer_entries_sorted () =
  let b = Buffer.create ~capacity:None in
  List.iter
    (fun id -> Buffer.add b (entry (packet ~id ~src:0 ~dst:1 ())))
    [ 5; 1; 3 ];
  let ids =
    List.map (fun (e : Buffer.entry) -> e.packet.Packet.id) (Buffer.entries b)
  in
  Alcotest.(check (list int)) "sorted" [ 1; 3; 5 ] ids;
  Alcotest.(check int) "count" 3 (Buffer.count b);
  Alcotest.(check int) "rank 1 by id" 3
    (Buffer.nth_by_id b 1).Buffer.packet.Packet.id;
  Alcotest.check_raises "rank out of range"
    (Invalid_argument "Buffer.nth_by_id: index out of range") (fun () ->
      ignore (Buffer.nth_by_id b 3))

let test_buffer_entries_radix () =
  (* [entries] orders by an LSD radix sort on the id, one pass per byte
     of the largest id. Each round caps the ids so that one to five
     passes run, with the ids on byte boundaries among them, and scrambles
     the slot order with removals and re-additions first: [entries] must
     be the slot-order walk sorted by id, one counted rebuild per call. *)
  let rng = Rapid_prelude.Rng.create 11 in
  let rebuilds () =
    Option.value ~default:0
      (List.assoc_opt "buffer.rebuilds" (Rapid_obs.Counter.snapshot ()))
  in
  let boundary = [ 0; 255; 256; 65_535; 65_536; 1 lsl 24; (1 lsl 24) + 7; 1 lsl 32 ] in
  List.iter
    (fun limit ->
      let ids = Hashtbl.create 64 in
      List.iter (fun id -> if id < limit then Hashtbl.replace ids id ()) boundary;
      while Hashtbl.length ids < 80 do
        Hashtbl.replace ids (Rapid_prelude.Rng.int rng limit) ()
      done;
      let ids = Array.of_seq (Hashtbl.to_seq_keys ids) in
      Array.sort Int.compare ids;
      Rapid_prelude.Rng.shuffle rng ids;
      let b = Buffer.create ~capacity:None in
      let add id = Buffer.add b (entry (packet ~id ~src:0 ~dst:1 ())) in
      Array.iter add ids;
      for _ = 1 to 60 do
        let id = ids.(Rapid_prelude.Rng.int rng (Array.length ids)) in
        if Buffer.mem b id then ignore (Buffer.remove b id) else add id
      done;
      let walk =
        Buffer.fold_unordered b ~init:[] ~f:(fun acc e -> e :: acc)
        |> List.sort (fun (x : Buffer.entry) (y : Buffer.entry) ->
               Int.compare x.packet.Packet.id y.packet.Packet.id)
      in
      let before = rebuilds () in
      let sorted = Buffer.entries b in
      Alcotest.(check int) "one rebuild per call" (before + 1) (rebuilds ());
      Alcotest.(check (list int))
        (Printf.sprintf "id order below %d" limit)
        (List.map (fun (e : Buffer.entry) -> e.packet.Packet.id) walk)
        (List.map (fun (e : Buffer.entry) -> e.packet.Packet.id) sorted);
      Alcotest.(check bool) "the buffered entries themselves" true
        (List.for_all2 ( == ) walk sorted))
    [ 256; 65_536; 1 lsl 24; 1 lsl 32; 1 lsl 40 ]

let test_buffer_dst_bytes () =
  (* The incremental per-destination byte totals must track every
     mutation path (add, remove, clear) — RAPID's O(1) queue-position
     estimate for fresh packets reads them instead of scanning. The
     random walk cross-checks against a from-scratch fold after each
     step. *)
  let b = Buffer.create ~capacity:None in
  let rng = Rapid_prelude.Rng.create 11 in
  let next_id = ref 0 in
  let check_all () =
    for dst = 0 to 3 do
      let want =
        Buffer.fold_unordered b ~init:0 ~f:(fun acc (e : Buffer.entry) ->
            if e.packet.Packet.dst = dst then acc + e.packet.Packet.size
            else acc)
      in
      Alcotest.(check int)
        (Printf.sprintf "dst %d bytes" dst)
        want (Buffer.dst_bytes b dst)
    done
  in
  for _ = 1 to 200 do
    (match Rapid_prelude.Rng.int rng 5 with
    | 0 | 1 | 2 ->
        let id = !next_id in
        incr next_id;
        let dst = 1 + Rapid_prelude.Rng.int rng 3 in
        let size = 1 + Rapid_prelude.Rng.int rng 50 in
        Buffer.add b (entry (packet ~id ~src:0 ~dst ~size ()))
    | 3 ->
        if !next_id > 0 then
          ignore (Buffer.remove b (Rapid_prelude.Rng.int rng !next_id))
    | _ -> if Rapid_prelude.Rng.int rng 10 = 0 then ignore (Buffer.clear b));
    check_all ()
  done;
  ignore (Buffer.clear b);
  check_all ()

(* ------------------------------------------------------------------ *)
(* Ack store *)

let mk_env ?(num_nodes = 4) ?(capacity = None) () =
  Env.create ~num_nodes ~duration:100.0 ~buffer_capacity:capacity ~seed:1

let test_ack_store () =
  let env = mk_env () in
  let acks = Protocol.Ack_store.create ~num_nodes:4 in
  Protocol.Ack_store.learn acks ~node:0 ~packet_id:7;
  Alcotest.(check bool) "knows" true (Protocol.Ack_store.knows acks ~node:0 ~packet_id:7);
  Alcotest.(check bool) "peer unaware" false
    (Protocol.Ack_store.knows acks ~node:1 ~packet_id:7);
  let fresh = Protocol.Ack_store.exchange acks ~a:0 ~b:1 in
  Alcotest.(check int) "one new entry" 1 fresh;
  Alcotest.(check bool) "peer now knows" true
    (Protocol.Ack_store.knows acks ~node:1 ~packet_id:7);
  let fresh2 = Protocol.Ack_store.exchange acks ~a:0 ~b:1 in
  Alcotest.(check int) "idempotent" 0 fresh2;
  (* Purge removes buffered delivered copies, notifying both the caller's
     [on_purge] and the env hook (the engine points the latter at
     Metrics.record_ack_purge). *)
  let p = packet ~id:7 ~src:2 ~dst:3 () in
  Buffer.add env.Env.buffers.(1) (entry p);
  let purged = ref [] in
  let hooked = ref [] in
  env.Env.on_ack_purge <-
    (fun ~now ~node p -> hooked := (now, node, p.Packet.id) :: !hooked);
  Protocol.Ack_store.purge acks env ~now:42.0 ~node:1 ~on_purge:(fun p ->
      purged := p :: !purged);
  Alcotest.(check int) "purged one" 1 (List.length !purged);
  Alcotest.(check bool) "buffer cleared" false (Buffer.mem env.Env.buffers.(1) 7);
  Alcotest.(check (list (triple (float 0.0) int int)))
    "hook saw the purge" [ (42.0, 1, 7) ] !hooked

(* ------------------------------------------------------------------ *)
(* Buffer epoch and clear *)

let test_buffer_epoch_and_clear () =
  let b = Buffer.create ~capacity:None in
  let e0 = Buffer.epoch b in
  Buffer.add b (entry (packet ~id:0 ~src:0 ~dst:1 ()));
  Buffer.add b (entry (packet ~id:1 ~src:0 ~dst:1 ()));
  Alcotest.(check bool) "adds bump epoch" true (Buffer.epoch b > e0);
  (* [entries] is an uncached on-demand sort: every call is one counted
     sort and a fresh list, mutation or not. *)
  let rebuilds () =
    Option.value ~default:0
      (List.assoc_opt "buffer.rebuilds" (Rapid_obs.Counter.snapshot ()))
  in
  let s0 = rebuilds () in
  let snap1 = Buffer.entries b in
  let snap2 = Buffer.entries b in
  Alcotest.(check int) "each entries call is one sort" (s0 + 2) (rebuilds ());
  Alcotest.(check bool) "fresh list per call" true (snap1 != snap2);
  let ep = Buffer.epoch b in
  ignore (Buffer.remove b 0);
  Alcotest.(check bool) "remove bumps epoch" true (Buffer.epoch b > ep);
  Alcotest.(check (list int)) "earlier list untouched by mutation" [ 0; 1 ]
    (List.map (fun (e : Buffer.entry) -> e.packet.Packet.id) snap1);
  Buffer.add b (entry (packet ~id:2 ~src:0 ~dst:1 ()));
  let ep = Buffer.epoch b in
  let lost = Buffer.clear b in
  Alcotest.(check (list int)) "clear returns the stored packets" [ 1; 2 ]
    (List.sort Int.compare (List.map (fun (p : Packet.t) -> p.Packet.id) lost));
  Alcotest.(check int) "empty after clear" 0 (Buffer.count b);
  Alcotest.(check int) "no bytes after clear" 0 (Buffer.used b);
  Alcotest.(check bool) "clear bumps epoch" true (Buffer.epoch b > ep)

(* ------------------------------------------------------------------ *)
(* Send queue *)

let plan_packets ?check_peer env ~sender ~receiver packets =
  let q = Send_queue.create () in
  Send_queue.begin_contact q;
  Send_queue.begin_plan ?check_peer q env ~sender ~receiver;
  List.iter (Send_queue.push q) packets;
  Send_queue.finish_plan q;
  q

let test_send_queue_serves_in_order () =
  let env = mk_env () in
  let p1 = packet ~id:1 ~src:0 ~dst:3 () in
  let p2 = packet ~id:2 ~src:0 ~dst:3 () in
  Buffer.add env.Env.buffers.(0) (entry p1);
  Buffer.add env.Env.buffers.(0) (entry p2);
  let q = plan_packets env ~sender:0 ~receiver:1 [ p2; p1 ] in
  (match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "first" 2 p.Packet.id
  | None -> Alcotest.fail "empty");
  (* p1 dropped from the buffer mid-contact: must be skipped. *)
  ignore (Buffer.remove env.Env.buffers.(0) 1);
  Alcotest.(check bool) "exhausted" true
    (Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 = None)

let test_send_queue_budget_filter () =
  let env = mk_env () in
  let big = packet ~id:1 ~src:0 ~dst:3 ~size:50 () in
  let small = packet ~id:2 ~src:0 ~dst:3 ~size:5 () in
  Buffer.add env.Env.buffers.(0) (entry big);
  Buffer.add env.Env.buffers.(0) (entry small);
  let q = plan_packets env ~sender:0 ~receiver:1 [ big; small ] in
  match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:10 with
  | Some p -> Alcotest.(check int) "small served" 2 p.Packet.id
  | None -> Alcotest.fail "small should fit"

let test_send_queue_candidates_skip_duplicates_at_peer () =
  (* The peer-has-it filter runs at plan time (protocols plan over
     [candidates]), not per pop. *)
  let env = mk_env () in
  let p = packet ~id:1 ~src:0 ~dst:3 () in
  Buffer.add env.Env.buffers.(0) (entry p);
  Buffer.add env.Env.buffers.(1) (entry p);
  Alcotest.(check int) "duplicate filtered" 0
    (List.length (Send_queue.candidates env ~sender:0 ~receiver:1))

let test_send_queue_delivery_keeps_tail () =
  (* The common case: the engine retires the just-served packet (delivery
     or single-copy forward). The rest of the plan is still buffered, so
     the next pop serves it. *)
  let env = mk_env () in
  let p1 = packet ~id:1 ~src:0 ~dst:3 () in
  let p2 = packet ~id:2 ~src:0 ~dst:3 () in
  Buffer.add env.Env.buffers.(0) (entry p1);
  Buffer.add env.Env.buffers.(0) (entry p2);
  let q = plan_packets env ~sender:0 ~receiver:1 [ p1; p2 ] in
  (match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "p1 first" 1 p.Packet.id
  | None -> Alcotest.fail "empty");
  ignore (Buffer.remove env.Env.buffers.(0) 1);
  match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "tail intact" 2 p.Packet.id
  | None -> Alcotest.fail "tail lost after serving p1"

let test_send_queue_pop_skips_evicted_and_held () =
  (* Mid-contact invalidation regression: an UNSERVED planned packet that
     left the sender (storage pressure, ack purge) is skipped when its
     turn comes, and so is one the receiver has since gained. *)
  let env = mk_env () in
  let p1 = packet ~id:1 ~src:0 ~dst:3 () in
  let p2 = packet ~id:2 ~src:0 ~dst:3 () in
  let p3 = packet ~id:3 ~src:0 ~dst:3 () in
  let p4 = packet ~id:4 ~src:0 ~dst:3 () in
  List.iter (fun p -> Buffer.add env.Env.buffers.(0) (entry p)) [ p1; p2; p3; p4 ];
  let q = plan_packets env ~sender:0 ~receiver:1 [ p1; p2; p3; p4 ] in
  (match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "p1 first" 1 p.Packet.id
  | None -> Alcotest.fail "empty");
  (* The served p1 leaves (delivery) AND p2 is evicted. *)
  ignore (Buffer.remove env.Env.buffers.(0) 1);
  ignore (Buffer.remove env.Env.buffers.(0) 2);
  (* Meanwhile the receiver gained p3 from elsewhere. *)
  Buffer.add env.Env.buffers.(1) (entry p3);
  match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "p2 and p3 skipped" 4 p.Packet.id
  | None -> Alcotest.fail "p4 should still be served"

let test_send_queue_pop_skips_held_without_removal () =
  (* The receiver gains a planned packet while nothing leaves the sender:
     the pop-time check skips it all the same. (The engine cannot do
     this: within a contact the receiver gains a planned packet only by
     being sent it, which moves the cursor past it.) *)
  let env = mk_env () in
  let p1 = packet ~id:1 ~src:0 ~dst:3 () in
  let p2 = packet ~id:2 ~src:0 ~dst:3 () in
  Buffer.add env.Env.buffers.(0) (entry p1);
  Buffer.add env.Env.buffers.(0) (entry p2);
  let q = plan_packets env ~sender:0 ~receiver:1 [ p1; p2 ] in
  Buffer.add env.Env.buffers.(1) (entry p1);
  (match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "held p1 skipped" 2 p.Packet.id
  | None -> Alcotest.fail "p2 should be served");
  Alcotest.(check bool) "exhausted" true
    (Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 = None)

let test_send_queue_no_peer_check_revalidates_pops () =
  (* check_peer:false (Random without summary vectors): after a removal,
     an evicted packet that reappears at the sender (duplicate push back)
     must still be offered — eager tail filtering would lose it. *)
  let env = mk_env () in
  let p1 = packet ~id:1 ~src:0 ~dst:3 () in
  let p2 = packet ~id:2 ~src:0 ~dst:3 () in
  Buffer.add env.Env.buffers.(0) (entry p1);
  Buffer.add env.Env.buffers.(0) (entry p2);
  let q = plan_packets ~check_peer:false env ~sender:0 ~receiver:1 [ p1; p2 ] in
  (* p2 evicted before its turn... *)
  ignore (Buffer.remove env.Env.buffers.(0) 2);
  (match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "p1 served" 1 p.Packet.id
  | None -> Alcotest.fail "p1 buffered and planned");
  (* ...and pushed back: the plan must still offer it. *)
  Buffer.add env.Env.buffers.(0) (entry p2);
  match Send_queue.next q env ~sender:0 ~receiver:1 ~budget:100 with
  | Some p -> Alcotest.(check int) "restored p2 offered" 2 p.Packet.id
  | None -> Alcotest.fail "restored packet lost"

(* ------------------------------------------------------------------ *)
(* Property: the indexed buffer is observably equivalent to the seed's
   Hashtbl implementation under arbitrary add/remove/clear sequences. *)

module Buffer_model = struct
  type t = {
    capacity : int option;
    mutable used : int;
    table : (int, Buffer.entry) Hashtbl.t;
  }

  let create ~capacity = { capacity; used = 0; table = Hashtbl.create 16 }
  let mem t id = Hashtbl.mem t.table id

  let would_fit t size =
    match t.capacity with None -> true | Some c -> t.used + size <= c

  let add t (e : Buffer.entry) =
    Hashtbl.replace t.table e.packet.Packet.id e;
    t.used <- t.used + e.packet.Packet.size

  let remove t id =
    match Hashtbl.find_opt t.table id with
    | None -> None
    | Some e ->
        Hashtbl.remove t.table id;
        t.used <- t.used - e.packet.Packet.size;
        Some e

  let entries t =
    Hashtbl.fold (fun _ e acc -> e :: acc) t.table []
    |> List.sort (fun (a : Buffer.entry) (b : Buffer.entry) ->
           Int.compare a.packet.Packet.id b.packet.Packet.id)

  let clear t =
    let ps = List.map (fun (e : Buffer.entry) -> e.packet) (entries t) in
    Hashtbl.reset t.table;
    t.used <- 0;
    ps
end

let prop_buffer_matches_model =
  QCheck.Test.make ~name:"indexed buffer matches Hashtbl model" ~count:200
    QCheck.(list (pair (int_range 0 20) (int_range 0 9)))
    (fun ops ->
      let capacity = Some 120 in
      let buf = Buffer.create ~capacity in
      let model = Buffer_model.create ~capacity in
      let ids = 16 in
      let agree () =
        Buffer.count buf = List.length (Buffer_model.entries model)
        && Buffer.used buf = model.Buffer_model.used
        && List.for_all
             (fun id -> Buffer.mem buf id = Buffer_model.mem model id)
             (List.init ids Fun.id)
        && List.map
             (fun (e : Buffer.entry) -> e.packet.Packet.id)
             (Buffer.entries buf)
           = List.map
               (fun (e : Buffer.entry) -> e.packet.Packet.id)
               (Buffer_model.entries model)
      in
      List.for_all
        (fun (raw_id, op) ->
          let id = raw_id mod ids in
          (match op with
          | 0 | 1 | 2 | 3 ->
              let size = 10 + (op * 7) in
              let e = entry (packet ~id ~src:0 ~dst:1 ~size ()) in
              let fits =
                (not (Buffer.mem buf id)) && Buffer.would_fit buf size
              in
              let model_fits =
                (not (Buffer_model.mem model id))
                && Buffer_model.would_fit model size
              in
              assert (fits = model_fits);
              if fits then begin
                Buffer.add buf e;
                Buffer_model.add model e
              end
          | 4 | 5 | 6 | 7 ->
              let a = Buffer.remove buf id and b = Buffer_model.remove model id in
              assert (Option.is_some a = Option.is_some b)
          | _ ->
              let a =
                List.sort Int.compare
                  (List.map (fun (p : Packet.t) -> p.Packet.id) (Buffer.clear buf))
              in
              let b =
                List.sort Int.compare
                  (List.map
                     (fun (p : Packet.t) -> p.Packet.id)
                     (Buffer_model.clear model))
              in
              assert (a = b));
          agree ())
        ops)

(* ------------------------------------------------------------------ *)
(* Engine with simple protocols *)

let flood_trace =
  (* 0 -1-> 1 -2-> 2: relay chain. *)
  Trace.create ~num_nodes:3 ~duration:10.0
    [
      Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
      Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:100;
    ]

let test_engine_relay_delivery () =
  let workload = [ spec ~src:0 ~dst:2 ~size:10 ~created:0.0 () ] in
  let report =
    (Engine.run
      ~protocol:(Rapid_routing.Epidemic.make ())
      ~trace:flood_trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  check_close "delay" 2.0 report.Metrics.avg_delay;
  Alcotest.(check int) "two transfers" 2 report.Metrics.transfers

let test_engine_direct_protocol_no_relay () =
  let workload = [ spec ~src:0 ~dst:2 ~size:10 ~created:0.0 () ] in
  let report =
    (Engine.run
      ~protocol:(Rapid_routing.Direct.make ())
      ~trace:flood_trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "not delivered" 0 report.Metrics.delivered;
  check_close "avg delay all counts horizon" 10.0 report.Metrics.avg_delay_all

let test_engine_bandwidth_respected () =
  (* Opportunity of 25 bytes, packets of 10: at most 2 cross. *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:25 ]
  in
  let workload =
    List.init 5 (fun i ->
        spec ~src:0 ~dst:1 ~size:10 ~created:(0.1 *. float_of_int i) ())
  in
  let report =
    (Engine.run ~protocol:(Rapid_routing.Epidemic.make ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "two delivered" 2 report.Metrics.delivered;
  Alcotest.(check int) "data bytes" 20 report.Metrics.data_bytes;
  if report.Metrics.data_bytes + report.Metrics.metadata_bytes > 25 then
    Alcotest.fail "opportunity size exceeded"

let test_engine_storage_respected () =
  (* Relay buffer of 15 bytes can hold one 10-byte packet. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:1000;
      ]
  in
  let workload =
    List.init 4 (fun i ->
        spec ~src:0 ~dst:2 ~size:10 ~created:(0.1 *. float_of_int i) ())
  in
  let options = { Engine.default_options with buffer_bytes = Some 15 } in
  let { Engine.report; env } =
    Engine.run ~options ~protocol:(Rapid_routing.Epidemic.make ())
      ~trace ~workload ()
  in
  (* Source buffer also capped: only one packet survives creation. *)
  Array.iter
    (fun b ->
      if Buffer.used b > 15 then Alcotest.fail "buffer capacity exceeded")
    env.Env.buffers;
  if report.Metrics.delivered > 1 then
    Alcotest.failf "impossible deliveries: %d" report.Metrics.delivered

let test_engine_conservation () =
  (* created = delivered + still buffered somewhere + dropped(evicted). *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:50;
        Contact.make ~time:2.0 ~a:1 ~b:2 ~bytes:50;
      ]
  in
  let workload =
    List.init 6 (fun i ->
        spec ~src:0 ~dst:2 ~size:10 ~created:(0.05 *. float_of_int i) ())
  in
  let { Engine.report; env } =
    Engine.run ~protocol:(Rapid_routing.Epidemic.make ()) ~trace
      ~workload ()
  in
  let module S = Set.Make (Int) in
  let buffered =
    Array.fold_left
      (fun acc b ->
        List.fold_left
          (fun acc (e : Buffer.entry) -> S.add e.packet.Packet.id acc)
          acc (Buffer.entries b))
      S.empty env.Env.buffers
  in
  let delivered = Hashtbl.length env.Env.delivered in
  (* With no storage cap nothing is lost: every created packet is delivered
     or still buffered at its source at least. *)
  Alcotest.(check int) "created" 6 report.Metrics.created;
  Alcotest.(check int) "nothing vanished" 6
    (S.cardinal (S.union buffered (Hashtbl.fold (fun k _ s -> S.add k s) env.Env.delivered S.empty)));
  Alcotest.(check int) "report matches env" delivered report.Metrics.delivered

let test_engine_deadline_accounting () =
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:5.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let workload =
    [
      spec ~src:0 ~dst:1 ~size:10 ~created:0.0 ~deadline:6.0 ();
      (* delivered at 5, deadline 6: hit *)
      spec ~src:0 ~dst:1 ~size:10 ~created:0.0 ~deadline:3.0 ();
      (* delivered at 5, deadline 3: miss *)
    ]
  in
  let report =
    (Engine.run ~protocol:(Rapid_routing.Epidemic.make ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "delivered both" 2 report.Metrics.delivered;
  Alcotest.(check int) "one within deadline" 1 report.Metrics.within_deadline;
  check_close "rate" 0.5 report.Metrics.within_deadline_rate

let test_engine_meta_cap () =
  (* MaxProp always emits vector metadata; capping must bound it. *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:1000 ]
  in
  let workload = [ spec ~src:0 ~dst:1 ~size:10 () ] in
  let capped =
    (Engine.run
      ~options:{ Engine.default_options with meta_cap_frac = Some 0.01 }
      ~protocol:(Rapid_routing.Maxprop.make ())
      ~trace ~workload ()).Engine.report
  in
  if capped.Metrics.metadata_bytes > 10 then
    Alcotest.failf "metadata above cap: %d" capped.Metrics.metadata_bytes;
  let free =
    (Engine.run ~protocol:(Rapid_routing.Maxprop.make ()) ~trace ~workload ()).Engine.report
  in
  if free.Metrics.metadata_bytes <= capped.Metrics.metadata_bytes then
    Alcotest.fail "uncapped should exceed capped metadata"

let test_engine_duplicate_delivery_counted_once () =
  (* Two carriers deliver the same packet; metrics count one delivery. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* 0 and 1 both hold the packet; both meet 3 later. *)
        Contact.make ~time:2.0 ~a:0 ~b:3 ~bytes:100;
        Contact.make ~time:3.0 ~a:1 ~b:3 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 ~size:10 () ] in
  (* Epidemic without acks: node 1 will push the stale copy again at t=3,
     but Env.has_packet treats a delivered packet as present at its
     destination, so it is not re-sent. *)
  let report =
    (Engine.run ~protocol:(Rapid_routing.Epidemic.make ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "one delivery" 1 report.Metrics.delivered;
  check_close "delay is first arrival" 2.0 report.Metrics.avg_delay

let test_engine_duplicate_push_wastes_bandwidth () =
  (* Without summary vectors, Random may push a packet the peer already
     has: the engine must charge the bytes and discard the copy. Node 0
     and 1 both hold the packet; they meet; dst 3 is absent, so any
     replication attempt between them is a duplicate. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:10;
        (* 0 replicates to 1 (Random has no better idea) *)
        Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:10;
        (* now both hold it: one duplicate push, 10 wasted bytes *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:3 ~size:10 () ] in
  let report =
    (Engine.run
      ~protocol:(Rapid_routing.Random_protocol.make ())
      ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "two transfers (one wasted)" 2 report.Metrics.transfers;
  Alcotest.(check int) "bytes charged for both" 20 report.Metrics.data_bytes;
  (* With summary vectors the duplicate is skipped. *)
  let smart =
    (Engine.run
      ~protocol:(Rapid_routing.Random_protocol.make ~summary_vector:true ())
      ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "sv: single transfer" 1 smart.Metrics.transfers

let test_engine_determinism () =
  let days = Dieselnet.days ~seed:2 ~n:1 () in
  let trace = List.hd days in
  let rng = Rapid_prelude.Rng.create 3 in
  let workload =
    Workload.generate rng ~trace ~pkts_per_hour_per_dest:1.0 ~size:1024 ()
  in
  let run () =
    (Engine.run
      ~options:{ Engine.default_options with seed = 42 }
      ~protocol:(Rapid_routing.Random_protocol.make ~with_acks:true ())
      ~trace ~workload ()).Engine.report
  in
  let r1 = run () and r2 = run () in
  Alcotest.(check int) "same deliveries" r1.Metrics.delivered r2.Metrics.delivered;
  check_close "same delay" r1.Metrics.avg_delay_all r2.Metrics.avg_delay_all;
  Alcotest.(check int) "same bytes" r1.Metrics.data_bytes r2.Metrics.data_bytes

let test_engine_empty_workload () =
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let report =
    (Engine.run ~protocol:(Rapid_routing.Epidemic.make ()) ~trace ~workload:[] ()).Engine.report
  in
  Alcotest.(check int) "nothing created" 0 report.Metrics.created;
  Alcotest.(check int) "nothing moved" 0 report.Metrics.transfers;
  Alcotest.(check int) "contact observed" 1 report.Metrics.num_contacts

let test_engine_zero_byte_contact () =
  (* A zero-size opportunity carries nothing but still counts as a meeting
     (protocols learn from it). *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:0 ]
  in
  let workload = [ spec ~src:0 ~dst:1 ~size:10 () ] in
  let report =
    (Engine.run ~protocol:(Rapid_routing.Epidemic.make ()) ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "no transfer" 0 report.Metrics.transfers;
  Alcotest.(check int) "no delivery" 0 report.Metrics.delivered

let test_engine_packet_bigger_than_buffer () =
  (* A packet that can never fit its source's buffer is dropped at
     creation. *)
  let trace =
    Trace.create ~num_nodes:2 ~duration:10.0
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let workload = [ spec ~src:0 ~dst:1 ~size:50 () ] in
  let report =
    (Engine.run
      ~options:{ Engine.default_options with buffer_bytes = Some 20 }
      ~protocol:(Rapid_routing.Epidemic.make ())
      ~trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "dropped at creation" 1 report.Metrics.drops;
  Alcotest.(check int) "never delivered" 0 report.Metrics.delivered

(* ------------------------------------------------------------------ *)
(* Eviction paths: a minimal protocol whose drop_candidate we control. *)

let stub_protocol ?drop () : Protocol.packed =
  (module struct
    type t = Env.t

    let name = "stub"
    let create env = env
    let on_created _ ~now:_ _ = ()
    let on_contact _ (_ : Protocol.contact_info) = 0
    let next_packet _ ~now:_ ~sender:_ ~receiver:_ ~budget:_ = None
    let on_transfer _ ~now:_ ~sender:_ ~receiver:_ _ ~delivered:_ = ()

    let drop_candidate env ~now:_ ~node ~incoming =
      match drop with None -> None | Some f -> f env ~node ~incoming

    let on_dropped _ ~now:_ ~node:_ _ = ()
    let on_reboot _ ~now:_ ~node:_ ~lost:_ = ()
  end)

let stub_trace =
  Trace.create ~num_nodes:2 ~duration:10.0
    [ Contact.make ~time:5.0 ~a:0 ~b:1 ~bytes:0 ]

(* Two creations into a 15-byte buffer: the second needs an eviction. *)
let stub_workload =
  [
    spec ~src:0 ~dst:1 ~size:10 ~created:0.0 ();
    spec ~src:0 ~dst:1 ~size:10 ~created:0.1 ();
  ]

let stub_options = { Engine.default_options with buffer_bytes = Some 15 }

let test_eviction_refusal_none () =
  (* drop_candidate = None refuses the incoming packet: it is dropped and
     counted, the incumbent survives. *)
  let { Engine.report; env } =
    Engine.run ~options:stub_options ~protocol:(stub_protocol ())
      ~trace:stub_trace ~workload:stub_workload ()
  in
  Alcotest.(check int) "created" 2 report.Metrics.created;
  Alcotest.(check int) "one drop" 1 report.Metrics.drops;
  Alcotest.(check bool) "incumbent kept" true (Buffer.mem env.Env.buffers.(0) 0);
  Alcotest.(check bool) "newcomer refused" false (Buffer.mem env.Env.buffers.(0) 1)

let test_eviction_self_candidate_refuses () =
  (* Returning the incoming packet itself is the protocol's way of saying
     "the newcomer loses": same outcome as None, not an eviction loop. *)
  let drop _env ~node:_ ~incoming = Some incoming in
  let { Engine.report; env } =
    Engine.run ~options:stub_options ~protocol:(stub_protocol ~drop ())
      ~trace:stub_trace ~workload:stub_workload ()
  in
  Alcotest.(check int) "one drop" 1 report.Metrics.drops;
  Alcotest.(check bool) "incumbent kept" true (Buffer.mem env.Env.buffers.(0) 0);
  Alcotest.(check bool) "newcomer refused" false (Buffer.mem env.Env.buffers.(0) 1)

let test_eviction_replaces_incumbent () =
  let drop env ~node ~incoming:_ =
    match Env.buffered_entries env node with
    | [] -> None
    | e :: _ -> Some e.Buffer.packet
  in
  let { Engine.report; env } =
    Engine.run ~options:stub_options ~protocol:(stub_protocol ~drop ())
      ~trace:stub_trace ~workload:stub_workload ()
  in
  Alcotest.(check int) "eviction counted" 1 report.Metrics.drops;
  Alcotest.(check bool) "incumbent evicted" false (Buffer.mem env.Env.buffers.(0) 0);
  Alcotest.(check bool) "newcomer stored" true (Buffer.mem env.Env.buffers.(0) 1)

let test_eviction_unbuffered_victim_rejected () =
  (* Naming a victim that is not in the buffer is a protocol bug the
     engine must fail loudly on, not a silent no-op. *)
  let drop _env ~node:_ ~incoming:_ = Some (packet ~id:99 ~src:0 ~dst:1 ()) in
  match
    (Engine.run ~options:stub_options ~protocol:(stub_protocol ~drop ())
      ~trace:stub_trace ~workload:stub_workload ()).Engine.report
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbuffered drop candidate accepted"

let test_oversized_incoming_skips_evictions () =
  (* A packet larger than the whole buffer must be refused up front: the
     engine may not consult drop_candidate and drain incumbents only to
     refuse anyway. Regression for the early-bail in make_room. *)
  let drop_calls = ref 0 in
  let drop env ~node ~incoming:_ =
    incr drop_calls;
    match Env.buffered_entries env node with
    | [] -> None
    | e :: _ -> Some e.Buffer.packet
  in
  let workload =
    [
      spec ~src:0 ~dst:1 ~size:10 ~created:0.0 ();
      spec ~src:0 ~dst:1 ~size:20 ~created:0.1 ();
      (* 20 > capacity 15: can never fit *)
    ]
  in
  let { Engine.report; env } =
    Engine.run ~options:stub_options ~protocol:(stub_protocol ~drop ())
      ~trace:stub_trace ~workload ()
  in
  Alcotest.(check int) "drop_candidate never consulted" 0 !drop_calls;
  Alcotest.(check int) "only the refused creation counted" 1 report.Metrics.drops;
  Alcotest.(check bool) "incumbent kept" true (Buffer.mem env.Env.buffers.(0) 0);
  Alcotest.(check bool) "oversized newcomer refused" false
    (Buffer.mem env.Env.buffers.(0) 1)

(* ------------------------------------------------------------------ *)
(* The on_transfer contract: fires only for deliveries and accepted
   stores — never for duplicate pushes or storage refusals. Protocols
   (Spray's ticket halving, MaxProp's path bookkeeping) rely on this. *)

let contract_stub calls : Protocol.packed =
  (module struct
    type t = { env : Env.t; offered : (int * int, unit) Hashtbl.t }

    let name = "contract-stub"
    let create env = { env; offered = Hashtbl.create 16 }
    let on_created _ ~now:_ _ = ()

    let on_contact t (_ : Protocol.contact_info) =
      Hashtbl.reset t.offered;
      0

    (* Offer every buffered packet once per contact, duplicates at the
       peer included — the engine decides their fate. *)
    let next_packet t ~now:_ ~sender ~receiver:_ ~budget =
      List.find_map
        (fun (e : Buffer.entry) ->
          let p = e.Buffer.packet in
          if
            p.Packet.size <= budget
            && not (Hashtbl.mem t.offered (sender, p.Packet.id))
          then begin
            Hashtbl.replace t.offered (sender, p.Packet.id) ();
            Some p
          end
          else None)
        (Env.buffered_entries t.env sender)

    let on_transfer _ ~now:_ ~sender ~receiver (p : Packet.t) ~delivered =
      calls := (sender, receiver, p.Packet.id, delivered) :: !calls

    let drop_candidate _ ~now:_ ~node:_ ~incoming:_ = None
    let on_dropped _ ~now:_ ~node:_ _ = ()
    let on_reboot _ ~now:_ ~node:_ ~lost:_ = ()
  end)

let test_on_transfer_skips_duplicate_push () =
  (* 0 copies to 1; at the second meeting both directions push the copy
     the peer already has. Bytes are charged, but on_transfer must not
     fire. The final meeting delivers. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      ~active:[ 0; 1; 2 ]
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        Contact.make ~time:2.0 ~a:0 ~b:1 ~bytes:100;
        Contact.make ~time:3.0 ~a:0 ~b:2 ~bytes:100;
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 ~size:10 () ] in
  let calls = ref [] in
  let report =
    (Engine.run ~protocol:(contract_stub calls) ~trace ~workload ()).Engine.report
  in
  (* t=1 store + the fresh copy pushed straight back (duplicate), t=2 two
     more duplicate pushes, t=3 delivery. *)
  Alcotest.(check int) "five transfers charged" 5 report.Metrics.transfers;
  Alcotest.(check int) "all bytes counted" 50 report.Metrics.data_bytes;
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  Alcotest.(check (list (pair (pair int int) (pair int bool))))
    "on_transfer saw only the store and the delivery"
    [ ((0, 1), (0, false)); ((0, 2), (0, true)) ]
    (List.rev_map (fun (s, r, id, d) -> ((s, r), (id, d))) !calls)

let test_on_transfer_skips_storage_refusal () =
  (* Both peers' buffers are full and drop_candidate refuses: offers cross
     in both directions, get refused, and on_transfer never fires — nor do
     the refusals consume bandwidth or count as drops. *)
  let trace =
    Trace.create ~num_nodes:4 ~duration:10.0
      ~active:[ 0; 1; 2; 3 ]
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  let workload =
    [
      spec ~src:0 ~dst:3 ~size:10 ~created:0.0 ();
      spec ~src:1 ~dst:3 ~size:10 ~created:0.1 ();
    ]
  in
  let calls = ref [] in
  let { Engine.report; env } =
    Engine.run
      ~options:{ Engine.default_options with buffer_bytes = Some 15 }
      ~protocol:(contract_stub calls) ~trace ~workload ()
  in
  Alcotest.(check int) "no transfers" 0 report.Metrics.transfers;
  Alcotest.(check int) "no bytes" 0 report.Metrics.data_bytes;
  Alcotest.(check int) "no drops" 0 report.Metrics.drops;
  Alcotest.(check (list (pair (pair int int) (pair int bool))))
    "on_transfer silent" []
    (List.rev_map (fun (s, r, id, d) -> ((s, r), (id, d))) !calls);
  Alcotest.(check bool) "0 keeps its packet" true (Buffer.mem env.Env.buffers.(0) 0);
  Alcotest.(check bool) "1 keeps its packet" true (Buffer.mem env.Env.buffers.(1) 1)

let test_engine_rejects_double_offer () =
  (* The duplicate-offer guard: a protocol that re-offers the same
     (sender, packet) within one contact must be failed loudly, not left
     to spin the budget down on duplicate pushes. The guard table is
     run-lifetime scratch cleared per contact, so this also pins the
     clearing — a reuse bug that leaked offers across contacts would
     break the legal re-offer in [test_on_transfer_skips_duplicate_push],
     while one that stopped clearing state WITHIN a contact breaks here. *)
  let evil : Protocol.packed =
    (module struct
      type t = Env.t

      let name = "evil-stub"
      let create env = env
      let on_created _ ~now:_ _ = ()
      let on_contact _ (_ : Protocol.contact_info) = 0

      (* Always re-offer the first buffered packet, ignoring history. *)
      let next_packet t ~now:_ ~sender ~receiver:_ ~budget =
        List.find_map
          (fun (e : Buffer.entry) ->
            if e.Buffer.packet.Packet.size <= budget then Some e.Buffer.packet
            else None)
          (Env.buffered_entries t sender)

      let on_transfer _ ~now:_ ~sender:_ ~receiver:_ _ ~delivered:_ = ()
      let drop_candidate _ ~now:_ ~node:_ ~incoming:_ = None
      let on_dropped _ ~now:_ ~node:_ _ = ()
      let on_reboot _ ~now:_ ~node:_ ~lost:_ = ()
    end)
  in
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      ~active:[ 0; 1; 2 ]
      [ Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100 ]
  in
  (* dst is node 2 (absent from the contact): the first offer relays the
     copy to node 1 and the sender keeps its own, so the second offer is
     the same packet from the same sender. *)
  let workload = [ spec ~src:0 ~dst:2 ~size:10 () ] in
  Alcotest.check_raises "double offer rejected"
    (Invalid_argument "protocol evil-stub: packet 0 offered twice")
    (fun () -> ignore (Engine.run ~protocol:evil ~trace ~workload ()))

let test_engine_max_delay_nan_when_undelivered () =
  (* No deliveries: max_delay must be nan (unknown), not a misleading
     0.0 that sorts below every real run. *)
  let workload = [ spec ~src:0 ~dst:2 ~size:10 ~created:0.0 () ] in
  let report =
    (Engine.run
      ~protocol:(Rapid_routing.Direct.make ())
      ~trace:flood_trace ~workload ()).Engine.report
  in
  Alcotest.(check int) "none delivered" 0 report.Metrics.delivered;
  Alcotest.(check bool) "max_delay is nan" true
    (Float.is_nan report.Metrics.max_delay)

let test_engine_ack_purge_accounting () =
  (* Ack purges are counted through Metrics via the env hook (the only
     path), and the tracer sees exactly the same events. *)
  let trace =
    Trace.create ~num_nodes:3 ~duration:10.0
      [
        Contact.make ~time:1.0 ~a:0 ~b:1 ~bytes:100;
        (* 0 replicates to 1 *)
        Contact.make ~time:2.0 ~a:0 ~b:2 ~bytes:100;
        (* 0 delivers to dst 2; 0 and 2 learn the ack *)
        Contact.make ~time:3.0 ~a:0 ~b:1 ~bytes:100;
        (* acks reach 1: its stale copy is purged *)
      ]
  in
  let workload = [ spec ~src:0 ~dst:2 ~size:10 () ] in
  let run tracer =
    (Engine.run ?tracer
      ~protocol:(Rapid_routing.Random_protocol.make ~with_acks:true ())
      ~trace ~workload ()).Engine.report
  in
  let module Collector = Rapid_obs.Tracer.Collector in
  let collector = Collector.create () in
  let report = run (Some (Collector.tracer collector)) in
  Alcotest.(check int) "delivered" 1 report.Metrics.delivered;
  Alcotest.(check int) "purge counted in metrics" 1 report.Metrics.ack_purges;
  let count label =
    Option.value ~default:0 (List.assoc_opt label (Collector.counts collector))
  in
  Alcotest.(check int) "ack_purge events" report.Metrics.ack_purges
    (count "ack_purge");
  Alcotest.(check int) "delivery events" report.Metrics.delivered
    (count "delivery");
  Alcotest.(check int) "contact events" report.Metrics.num_contacts
    (count "contact");
  Alcotest.(check int) "transfer events" report.Metrics.transfers
    (count "transfer");
  (* Tracing must not perturb the run itself. *)
  let plain = run None in
  Alcotest.(check int) "same deliveries" plain.Metrics.delivered
    report.Metrics.delivered;
  Alcotest.(check int) "same purges" plain.Metrics.ack_purges
    report.Metrics.ack_purges;
  Alcotest.(check int) "same bytes" plain.Metrics.data_bytes
    report.Metrics.data_bytes

(* ------------------------------------------------------------------ *)
(* Property: feasibility holds for every protocol on random small runs. *)

let protocols () =
  [
    Rapid_routing.Epidemic.make ();
    Rapid_routing.Random_protocol.make ();
    Rapid_routing.Random_protocol.make ~with_acks:true ();
    Rapid_routing.Spray_wait.make ();
    Rapid_routing.Prophet.make ();
    Rapid_routing.Maxprop.make ();
    Rapid_routing.Direct.make ();
  ]

let prop_feasibility =
  QCheck.Test.make ~name:"schedules are always feasible" ~count:30
    QCheck.(pair (int_range 0 10_000) (int_range 0 6))
    (fun (seed, proto_idx) ->
      let rng = Rapid_prelude.Rng.create seed in
      let trace =
        Rapid_mobility.Mobility.exponential rng ~num_nodes:6 ~mean_inter_meeting:30.0
          ~duration:300.0 ~opportunity_bytes:50
      in
      if Trace.num_contacts trace = 0 then true
      else begin
        let workload =
          Workload.generate rng ~trace ~pkts_per_hour_per_dest:120.0 ~size:10
            ~lifetime:60.0 ()
        in
        let protocol = List.nth (protocols ()) proto_idx in
        let { Engine.report; env } =
          Engine.run
            ~options:
              {
                Engine.buffer_bytes = Some 40;
                meta_cap_frac = None;
                seed;
                faults = Rapid_faults.Faults.none;
              }
            ~protocol ~trace ~workload ()
        in
        (* Storage. *)
        Array.for_all (fun b -> Buffer.used b <= 40) env.Env.buffers
        (* Aggregate bandwidth. *)
        && report.Metrics.data_bytes + report.Metrics.metadata_bytes
           <= Trace.total_capacity_bytes trace
        && report.Metrics.delivered <= report.Metrics.created
      end)

(* [nth_by_id] selects ranks without sorting; it must agree with the
   sorted list at every rank, whatever slot layout the add / remove /
   clear history left behind. *)
let prop_nth_by_id_matches_entries =
  QCheck.Test.make ~name:"nth_by_id agrees with sorted entries" ~count:300
    QCheck.(list (pair (int_range 0 63) (int_range 0 9)))
    (fun ops ->
      let buf = Buffer.create ~capacity:None in
      let agree () =
        let sorted = Buffer.entries buf in
        List.length sorted = Buffer.count buf
        && List.for_all2
             (fun k (e : Buffer.entry) -> Buffer.nth_by_id buf k == e)
             (List.init (Buffer.count buf) Fun.id)
             sorted
      in
      List.for_all
        (fun (id, op) ->
          (match op with
          | 0 | 1 | 2 | 3 | 4 ->
              if not (Buffer.mem buf id) then
                Buffer.add buf (entry (packet ~id ~src:0 ~dst:1 ()))
          | 5 | 6 | 7 | 8 -> ignore (Buffer.remove buf id)
          | _ -> ignore (Buffer.clear buf));
          agree ())
        ops)

(* The send queue's semantics with eager ordering: each segment sorted
   whole ([List.sort]; every order here is total), the segments
   concatenated and walked by a cursor, and the same pop rule (fits the
   budget, still at the sender, and under [check_peer] not at the
   receiver), every packet passed over discarded for good. *)
module Ref_queue = struct
  type t = { mutable tail : Packet.t list; check_peer : bool }

  let next t (env : Env.t) ~budget =
    let rec go = function
      | [] ->
          t.tail <- [];
          None
      | (p : Packet.t) :: rest ->
          if
            p.Packet.size <= budget
            && Buffer.mem env.Env.buffers.(0) p.Packet.id
            && not (t.check_peer && Env.has_packet env ~node:1 ~packet:p)
          then begin
            t.tail <- rest;
            Some p
          end
          else go rest
    in
    go t.tail
end

(* Random plans over a pool of packets with varied sizes and tied
   creation times, planned from node 0 to node 1 as the queue's three
   kinds of segment (entries under a total order, decorated items, and
   runs of plain pushes), then drained at shrinking budgets while the
   sender loses and regains packets and the receiver gains some. The
   served sequence, and the call where [None] first comes, must match the
   eager reference at every step. Budgets are sometimes set to exactly
   the smallest planned size, which must still be served. *)
let prop_send_queue_matches_reference =
  QCheck.Test.make ~name:"send queue = eager reference" ~count:400
    QCheck.(pair (int_range 0 1_000_000) bool)
    (fun (seed, check_peer) ->
      let module Rng = Rapid_prelude.Rng in
      let rng = Rng.create seed in
      let env = mk_env () in
      let pool =
        Array.init 48 (fun id ->
            entry ~hops:(Rng.int rng 3)
              (packet ~id ~src:2 ~dst:3
                 ~size:(1 + Rng.int rng 24)
                 ~created:(float_of_int (Rng.int rng 4))
                 ()))
      in
      Array.iter
        (fun (e : Buffer.entry) ->
          if Rng.int rng 5 > 0 then Buffer.add env.Env.buffers.(0) e)
        pool;
      let by_hops (x : Buffer.entry) (y : Buffer.entry) =
        match Int.compare x.hops y.hops with
        | 0 -> Send_queue.by_age x y
        | n -> n
      in
      let by_key (kx, (x : Buffer.entry)) (ky, y) =
        match Int.compare ky kx with 0 -> Send_queue.by_age x y | n -> n
      in
      let q = Send_queue.create () in
      Send_queue.begin_contact q;
      Send_queue.begin_plan ~check_peer q env ~sender:0 ~receiver:1;
      let order = Array.copy pool in
      Rng.shuffle rng order;
      let planned = ref [] and at = ref 0 in
      while !at < Array.length order do
        let n = min (Array.length order - !at) (1 + Rng.int rng 14) in
        let seg = Array.to_list (Array.sub order !at n) in
        at := !at + n;
        let packets = List.map (fun (e : Buffer.entry) -> e.packet) in
        let served =
          match Rng.int rng 4 with
          | 0 ->
              Send_queue.push_entries q ~cmp:Send_queue.by_age seg;
              packets (List.sort Send_queue.by_age seg)
          | 1 ->
              Send_queue.push_entries q ~cmp:by_hops seg;
              packets (List.sort by_hops seg)
          | 2 ->
              let items = List.map (fun e -> (Rng.int rng 3, e)) seg in
              Send_queue.push_items q ~cmp:by_key
                ~packet:(fun (_, (e : Buffer.entry)) -> e.packet)
                (fun add -> List.iter add items);
              List.map (fun (_, (e : Buffer.entry)) -> e.packet)
                (List.sort by_key items)
          | _ ->
              List.iter (fun (p : Packet.t) -> Send_queue.push q p) (packets seg);
              packets seg
        in
        planned := !planned @ served
      done;
      Send_queue.finish_plan q;
      let reference = { Ref_queue.tail = !planned; check_peer } in
      let min_size =
        List.fold_left (fun m (p : Packet.t) -> min m p.Packet.size) max_int !planned
      in
      let budget = ref (30 + Rng.int rng 200) in
      let ok = ref true in
      for _ = 1 to 80 do
        match Rng.int rng 10 with
        | 0 | 1 | 2 | 3 | 4 -> (
            let got = Send_queue.next q env ~sender:0 ~receiver:1 ~budget:!budget in
            let want = Ref_queue.next reference env ~budget:!budget in
            match (got, want) with
            | Some p, Some p' when p == p' ->
                budget := !budget - p.Packet.size;
                (* The engine's two outcomes: a delivery retires the
                   sender's copy, a replication adds the receiver's. *)
                if Rng.bool rng then ignore (Buffer.remove env.Env.buffers.(0) p.Packet.id)
                else if not (Buffer.mem env.Env.buffers.(1) p.Packet.id) then
                  Buffer.add env.Env.buffers.(1) (entry p)
            | None, None -> ()
            | _ -> ok := false)
        | 5 -> budget := max 0 (!budget - Rng.int rng 12)
        | 6 -> if min_size <= !budget then budget := min_size
        | 7 -> ignore (Buffer.remove env.Env.buffers.(0) (Rng.int rng 48))
        | 8 ->
            let e = pool.(Rng.int rng 48) in
            if not (Buffer.mem env.Env.buffers.(0) e.packet.Packet.id) then
              Buffer.add env.Env.buffers.(0) e
        | _ ->
            let e = pool.(Rng.int rng 48) in
            if not (Buffer.mem env.Env.buffers.(1) e.packet.Packet.id) then
              Buffer.add env.Env.buffers.(1) e
      done;
      !ok)

let qcheck_cases =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_feasibility; prop_buffer_matches_model; prop_nth_by_id_matches_entries;
      prop_send_queue_matches_reference;
    ]

let () =
  Alcotest.run "sim"
    [
      ( "packet",
        [
          Alcotest.test_case "age and deadline" `Quick test_packet_age_deadline;
          Alcotest.test_case "validation" `Quick test_packet_validation;
        ] );
      ( "buffer",
        [
          Alcotest.test_case "capacity" `Quick test_buffer_capacity;
          Alcotest.test_case "duplicate" `Quick test_buffer_duplicate;
          Alcotest.test_case "entries sorted" `Quick test_buffer_entries_sorted;
          Alcotest.test_case "entries radix" `Quick test_buffer_entries_radix;
          Alcotest.test_case "dst bytes tracked" `Quick test_buffer_dst_bytes;
        ] );
      ("acks", [ Alcotest.test_case "ack store" `Quick test_ack_store ]);
      ( "send queue",
        [
          Alcotest.test_case "buffer epoch and clear" `Quick
            test_buffer_epoch_and_clear;
          Alcotest.test_case "serves in order" `Quick
            test_send_queue_serves_in_order;
          Alcotest.test_case "budget filter" `Quick test_send_queue_budget_filter;
          Alcotest.test_case "candidates skip duplicates" `Quick
            test_send_queue_candidates_skip_duplicates_at_peer;
          Alcotest.test_case "delivery keeps tail" `Quick
            test_send_queue_delivery_keeps_tail;
          Alcotest.test_case "pop skips evicted and held" `Quick
            test_send_queue_pop_skips_evicted_and_held;
          Alcotest.test_case "pop skips held without removal" `Quick
            test_send_queue_pop_skips_held_without_removal;
          Alcotest.test_case "no peer check revalidates pops" `Quick
            test_send_queue_no_peer_check_revalidates_pops;
        ] );
      ( "engine",
        [
          Alcotest.test_case "relay delivery" `Quick test_engine_relay_delivery;
          Alcotest.test_case "direct no relay" `Quick
            test_engine_direct_protocol_no_relay;
          Alcotest.test_case "bandwidth respected" `Quick
            test_engine_bandwidth_respected;
          Alcotest.test_case "storage respected" `Quick test_engine_storage_respected;
          Alcotest.test_case "conservation" `Quick test_engine_conservation;
          Alcotest.test_case "deadline accounting" `Quick
            test_engine_deadline_accounting;
          Alcotest.test_case "metadata cap" `Quick test_engine_meta_cap;
          Alcotest.test_case "duplicate delivery once" `Quick
            test_engine_duplicate_delivery_counted_once;
          Alcotest.test_case "duplicate push wastes bandwidth" `Quick
            test_engine_duplicate_push_wastes_bandwidth;
          Alcotest.test_case "determinism" `Quick test_engine_determinism;
          Alcotest.test_case "empty workload" `Quick test_engine_empty_workload;
          Alcotest.test_case "zero byte contact" `Quick test_engine_zero_byte_contact;
          Alcotest.test_case "packet bigger than buffer" `Quick
            test_engine_packet_bigger_than_buffer;
          Alcotest.test_case "max delay nan when undelivered" `Quick
            test_engine_max_delay_nan_when_undelivered;
          Alcotest.test_case "rejects double offer" `Quick
            test_engine_rejects_double_offer;
          Alcotest.test_case "ack purge accounting" `Quick
            test_engine_ack_purge_accounting;
        ] );
      ( "eviction",
        [
          Alcotest.test_case "refusal via None" `Quick test_eviction_refusal_none;
          Alcotest.test_case "self candidate refuses" `Quick
            test_eviction_self_candidate_refuses;
          Alcotest.test_case "replaces incumbent" `Quick
            test_eviction_replaces_incumbent;
          Alcotest.test_case "unbuffered victim rejected" `Quick
            test_eviction_unbuffered_victim_rejected;
          Alcotest.test_case "oversized incoming skips evictions" `Quick
            test_oversized_incoming_skips_evictions;
        ] );
      ( "on_transfer contract",
        [
          Alcotest.test_case "skips duplicate push" `Quick
            test_on_transfer_skips_duplicate_push;
          Alcotest.test_case "skips storage refusal" `Quick
            test_on_transfer_skips_storage_refusal;
        ] );
      ("properties", qcheck_cases);
    ]
