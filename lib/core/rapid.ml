open Rapid_prelude
open Rapid_sim

type params = {
  metric : Metric.t;
  channel : Control_channel.t;
  use_acks : bool;
  ack_entry_bytes : int;
  table_entry_bytes : int;
  packet_entry_bytes : int;
  h_hops : int;
  meta_self_cap_frac : float;
  tracer : Rapid_obs.Tracer.t;
}

let default_params metric =
  {
    metric;
    channel = Control_channel.In_band;
    use_acks = true;
    ack_entry_bytes = 8;
    table_entry_bytes = 12;
    packet_entry_bytes = 20;
    h_hops = 3;
    meta_self_cap_frac = 0.08;
    tracer = Rapid_obs.Tracer.null;
  }

(* Stand-in for an infinite expected delay when ordering improvements:
   replicating a packet nobody can currently deliver dominates any finite
   improvement. *)
let big_delay = 1e15

(* "No victim" for [drop_candidate]'s min-scan accumulator. *)
let no_packet =
  { Packet.id = -1; src = 0; dst = 0; size = 0; created = 0.0; deadline = None }

(* Eq. 9's scalar formulas (§4.1.1), inlined into the scoring loops
   below. They are defined here rather than in Estimate_delay because the
   dev build compiles library modules -opaque: a float returned by (or
   passed to) another module's function is boxed on every call, and these
   run per scored candidate. *)
let[@inline] rate_of_holder ~meeting_time ~n_meet =
  if Float.is_finite meeting_time && meeting_time > 0.0 then
    1.0 /. (meeting_time *. float_of_int (if n_meet > 1 then n_meet else 1))
  else 0.0

let[@inline] expected_delay ~rate = if rate > 0.0 then 1.0 /. rate else infinity

let[@inline] delivery_prob_within ~rate ~horizon =
  if horizon <= 0.0 || rate <= 0.0 then 0.0 else 1.0 -. exp (-.rate *. horizon)

(* Hot-path counters (process-global by name; see lib/obs). Snapshots land
   in the CLI's --json output and in BENCH.json. *)
let c_rank_calls = Rapid_obs.Counter.create "rapid.rank_calls"
let t_rank = Rapid_obs.Timer.create "rapid.rank"
let c_position_index_builds = Rapid_obs.Counter.create "rapid.position_index_builds"
let c_meta_ack_bytes = Rapid_obs.Counter.create "rapid.meta_ack_bytes"
let c_meta_table_bytes = Rapid_obs.Counter.create "rapid.meta_table_bytes"
let c_meta_entry_bytes = Rapid_obs.Counter.create "rapid.meta_entry_bytes"

let make params : Protocol.packed =
  (* Hoisted: passing [~h:params.h_hops] to [Meeting_matrix]'s optional
     argument would allocate a [Some] per call. *)
  let h = Some params.h_hops in
  (module struct
    type t = {
      env : Env.t;
      queue : Send_queue.t;
      acks : Protocol.Ack_store.t;
      matrix : Meeting_matrix.t;
      (* Expected transfer-opportunity bytes per pair and globally
         (Algorithm 2 step 3). *)
      pair_transfer : Dense.Cumulative_grid.t;
      global_transfer : Moving_average.Cumulative.t;
      (* [global_transfer]'s mean (1e6 before any contact), written by
         [on_contact] right after its only [add], so [b_avg] reads it
         without a boxed float. *)
      global_avg : float array;
      (* Per-node believed replica locations; [truth] is ground truth,
         maintained from first-hand events, read only by the
         instant-global channel. *)
      dbs : Replica_db.t array;
      truth : Replica_db.t;
      (* The replica-metadata delta: watermarks and backlogs per directed
         pair. *)
      gossip : Gossip.t;
      (* meet_count.(x): meetings x has participated in; last_table_sync
         tracks the counter at the last exchange with each peer, pricing
         the "expected meeting times with nodes" row delta (§4.2). *)
      meet_count : int array;
      last_table_sync : Dense.Int_mat.t;
      (* Per-node buffer positions, rebuilt when the buffer's epoch moved.
         [plan] syncs the receiver's; [on_transfer] reads it unsynced, so
         a contact's transfers see the positions its plan ranked by. *)
      pos : Position_index.t array;
      (* One-slot float results: [believed_rate] writes [rate.(0)],
         [local_loss] writes [loss.(0)], and
         [drop_candidate]'s min-scan keeps its best score in [best.(0)].
         A float returned from a function that is not inlined is boxed;
         a float array slot is not. *)
      rate : float array;
      loss : float array;
      best : float array;
      (* Scratch: (packet, new n_meet) pairs a refresh must write. *)
      refresh_changed : (Packet.t * int) Sortbuf.t;
      (* Flat per-plan scoring scratch: candidate packets and their
         ranking key in parallel growable arrays, ranked by sorting an
         index permutation through the shared Sortbuf arena — no boxed
         (packet, float, float) tuples, no per-plan list churn. *)
      mutable plan_pkts : Packet.t array;
      mutable plan_key : float array;
      mutable plan_len : int;
      plan_order : int Sortbuf.t;
    }

    let name =
      Printf.sprintf "RAPID(%s%s%s)"
        (Metric.to_string params.metric)
        (match params.channel with
        | Control_channel.In_band -> ""
        | c -> "," ^ Control_channel.to_string c)
        (if params.use_acks then "" else ",no-acks")

    let create env =
      let n = env.Env.num_nodes in
      {
        env;
        queue = Send_queue.create ();
        acks = Protocol.Ack_store.create ~num_nodes:n;
        matrix = Meeting_matrix.create ~num_nodes:n;
        pair_transfer = Dense.Cumulative_grid.create n;
        global_transfer = Moving_average.Cumulative.create ();
        global_avg = [| 1e6 |];
        dbs = Array.init n (fun _ -> Replica_db.create ());
        truth = Replica_db.create ();
        gossip = Gossip.create ~num_nodes:n;
        meet_count = Array.make n 0;
        last_table_sync = Dense.Int_mat.create n;
        pos = Array.init n (fun _ -> Position_index.create ());
        rate = [| 0.0 |];
        loss = [| 0.0 |];
        best = [| 0.0 |];
        refresh_changed = Sortbuf.create ();
        plan_pkts = [||];
        plan_key = [||];
        plan_len = 0;
        plan_order = Sortbuf.create ();
      }

    (* -------------------------------------------------------------- *)
    (* Estimation helpers *)

    let view t node =
      match params.channel with
      | Control_channel.Instant_global -> t.truth
      | Control_channel.In_band | Control_channel.Local_only -> t.dbs.(node)

    (* B_j: expected transfer opportunity between [holder] and [dst], the
       global mean for a pair that never met. The same floats as
       [Dense.Cumulative_grid.value_or] with the global mean as default,
       but no float crosses a module boundary, so nothing is boxed. *)
    let[@inline] b_avg t ~holder ~dst =
      let x, y = if holder < dst then (holder, dst) else (dst, holder) in
      let c = Dense.Cumulative_grid.count t.pair_transfer x y in
      if c = 0 then t.global_avg.(0)
      else
        Array.unsafe_get
          (Dense.Cumulative_grid.sums t.pair_transfer)
          ((x * t.env.Env.num_nodes) + y)
        /. float_of_int c

    (* "When two nodes never meet, even via three intermediate nodes, we
       set the expected inter-meeting time to infinity" (§4.1.2): an
       infinite estimate yields a zero delivery rate and hence zero
       marginal utility, so RAPID does not replicate toward destinations
       it has no evidence of reaching. Read from [b]'s row, the cell
       [Meeting_matrix.expected_meeting_time] returns (same lazy build),
       without boxing it. *)
    let[@inline] meeting_time t a b =
      if a = b then 0.0
      else Array.unsafe_get (Meeting_matrix.row ?h t.matrix b) a

    (* n_j(i) for a freshly created packet, O(1): only the bytes of
       same-destination packets ahead in delivery order (created, then id)
       matter, and a just-created packet is strictly last among them —
       the engine hands out ids in workload order and both workload
       generators emit specs sorted by creation time, so every other copy
       anywhere carries a smaller (created, id). The per-destination byte
       total the buffer maintains is therefore exactly "bytes ahead plus
       the packet itself" once the packet's own copy is counted once. *)
    let n_meet_created t ~node ~(packet : Packet.t) =
      let dst = packet.Packet.dst in
      let buffer = t.env.Env.buffers.(node) in
      let bytes =
        Buffer.dst_bytes buffer dst
        + (if Buffer.mem buffer packet.Packet.id then 0 else packet.Packet.size)
      in
      let avg = Float.max 1.0 (b_avg t ~holder:node ~dst) in
      max 1 (int_of_float (Float.ceil (float_of_int bytes /. avg)))

    (* Total delivery rate R over the believed holders of [packet] as seen
       by [observer] (Eq. 9 summation), written to [t.rate.(0)]. With no
       holders the matrix is not touched, so a packet nobody holds builds
       no row. The sum reads the destination's borrowed row directly:
       [row.(holder)] is the exact cell [meeting_time t holder dst] reads
       (0.0 on the diagonal), minus the per-holder revalidation; nothing
       in the loop observes the matrix, so the row cannot move mid-sum.
       Holders come in Replica_db's fold order, which fixes the rounding
       the golden reports pin. *)
    let believed_rate t ~observer ~(packet : Packet.t) =
      let db = view t observer in
      let id = packet.Packet.id in
      let n = Replica_db.holder_count db ~packet_id:id in
      if n = 0 then t.rate.(0) <- 0.0
      else begin
        let dst = packet.Packet.dst in
        let row = Meeting_matrix.row ?h t.matrix dst in
        let r = ref 0.0 in
        for i = 0 to n - 1 do
          let holder_id = Replica_db.holder_id_at db ~packet_id:id i in
          let mt =
            if holder_id = dst then 0.0 else Array.unsafe_get row holder_id
          in
          r :=
            !r
            +. rate_of_holder ~meeting_time:mt
                 ~n_meet:(Replica_db.n_meet_at db ~packet_id:id i)
        done;
        t.rate.(0) <- !r
      end

    (* Rebuild [node]'s position index if its buffer moved since the last
       sync; [c_position_index_builds] counts the rebuilds. *)
    let sync_index t node =
      if Position_index.sync t.pos.(node) t.env.Env.buffers.(node) then
        Rapid_obs.Counter.incr c_position_index_builds

    let n_meet_from_index t ~node (packet : Packet.t) =
      let b = Position_index.bytes_before t.pos.(node) packet in
      let avg =
        Float.max 1.0 (b_avg t ~holder:node ~dst:packet.Packet.dst)
      in
      max 1
        (int_of_float
           (Float.ceil (float_of_int (b + packet.Packet.size) /. avg)))

    let[@inline] delay_improvement ~r ~r_recv =
      let a = expected_delay ~rate:r in
      let a' = expected_delay ~rate:(r +. r_recv) in
      if not (Float.is_finite a') then 0.0
      else if not (Float.is_finite a) then big_delay -. a'
      else a -. a'

    let on_created t ~now (p : Packet.t) =
      let n = n_meet_created t ~node:p.Packet.src ~packet:p in
      Replica_db.set_holder t.truth ~packet:p ~holder_id:p.Packet.src ~n_meet:n
        ~now;
      Replica_db.set_holder t.dbs.(p.Packet.src) ~packet:p
        ~holder_id:p.Packet.src ~n_meet:n ~now

    (* -------------------------------------------------------------- *)
    (* Selection: one send-queue plan per direction *)

    (* Direct-delivery segment of a plan; every comparator is a total
       order (id tie-breaks) because the scratch sort is not stable. *)
    let push_direct t ~now entries =
      match params.metric with
      | Metric.Average_delay | Metric.Maximum_delay ->
          Send_queue.push_entries t.queue ~cmp:Send_queue.by_age entries
      | Metric.Missed_deadlines ->
          (* Alive packets by nearest deadline, then the expired ones. *)
          let alive, dead =
            List.partition
              (fun (e : Buffer.entry) ->
                not (Packet.missed_deadline e.packet ~now))
              entries
          in
          let by_deadline (x : Buffer.entry) (y : Buffer.entry) =
            match (x.packet.Packet.deadline, y.packet.Packet.deadline) with
            | Some dx, Some dy -> (
                match Float.compare dx dy with
                | 0 -> Send_queue.by_age x y
                | n -> n)
            | Some _, None -> -1
            | None, Some _ -> 1
            | None, None -> Send_queue.by_age x y
          in
          Send_queue.push_entries t.queue ~cmp:by_deadline alive;
          Send_queue.push_entries t.queue ~cmp:Send_queue.by_age dead

    let[@inline] plan_push t p key =
      let cap = Array.length t.plan_key in
      if t.plan_len = cap then begin
        let n = max 64 (2 * cap) in
        let pk = Array.make n p in
        Array.blit t.plan_pkts 0 pk 0 t.plan_len;
        t.plan_pkts <- pk;
        let kk = Array.make n 0.0 in
        Array.blit t.plan_key 0 kk 0 t.plan_len;
        t.plan_key <- kk
      end;
      t.plan_pkts.(t.plan_len) <- p;
      t.plan_key.(t.plan_len) <- key;
      t.plan_len <- t.plan_len + 1

    let plan t ~now ~sender ~receiver =
      Rapid_obs.Counter.incr c_rank_calls;
      Rapid_obs.Timer.time t_rank @@ fun () ->
      Send_queue.begin_plan t.queue t.env ~sender ~receiver;
      sync_index t receiver;
      t.plan_len <- 0;
      (* One slot-order walk over the sender's buffer — no materialized
         candidate / direct / rest lists. Sound because every downstream
         order is a total-order sort (id tie-breaks everywhere), so the
         walk order never shows in the output. Direct-to-receiver packets
         are collected aside (few); every other candidate the receiver
         lacks is scored straight into the flat arrays: one slot per
         shippable candidate, keyed by marginal utility per byte (metrics
         1/3') or expected delay D(i) (metric 2) — the only value the
         ranking below reads. Both orders are "key descending, id
         ascending", so one comparator serves every metric. *)
      let direct =
        Buffer.fold_unordered t.env.Env.buffers.(sender) ~init:[]
          ~f:(fun direct (e : Buffer.entry) ->
            let p = e.packet in
            if Env.has_packet t.env ~node:receiver ~packet:p then direct
            else if p.Packet.dst = receiver then e :: direct
            else begin
              let dst = p.Packet.dst in
              (* The receiver's expected meeting time with the destination
                 and its clamped expected transfer size: row and grid
                 reads, the same floats for every candidate to [dst]. *)
              let mt_rd = meeting_time t receiver dst in
              let avg_rd = Float.max 1.0 (b_avg t ~holder:receiver ~dst) in
              (* Current believed rate and the rate the receiver would
                 add, from the sender's knowledge (the deciding node is
                 the sender, §3.4). The receiver is not currently a
                 holder (checked above), so any stale holder entry for it
                 is excluded from the baseline — otherwise its rate would
                 be counted twice. *)
              believed_rate t ~observer:sender ~packet:p;
              let r0 = t.rate.(0) in
              let stale =
                Replica_db.n_meet (view t sender) ~packet_id:p.Packet.id
                  ~holder_id:receiver
              in
              let r =
                if stale < 0 then r0
                else
                  Float.max 0.0
                    (r0 -. rate_of_holder ~meeting_time:mt_rd ~n_meet:stale)
              in
              let b = Position_index.bytes_before t.pos.(receiver) p in
              let n_recv =
                max 1
                  (int_of_float
                     (Float.ceil
                        (float_of_int (b + p.Packet.size) /. avg_rd)))
              in
              let r_recv = rate_of_holder ~meeting_time:mt_rd ~n_meet:n_recv in
              if r_recv > 0.0 then begin
                let delta =
                  match params.metric with
                  | Metric.Average_delay | Metric.Maximum_delay ->
                      delay_improvement ~r ~r_recv
                  | Metric.Missed_deadlines -> (
                      (* Remaining lifetime L(i) - T(i), read inline:
                         [Packet.remaining_lifetime] boxes it. *)
                      match p.Packet.deadline with
                      | None -> delay_improvement ~r ~r_recv
                      | Some d ->
                          let rem = d -. now in
                          delivery_prob_within ~rate:(r +. r_recv)
                            ~horizon:rem
                          -. delivery_prob_within ~rate:r ~horizon:rem)
                in
                if delta > 0.0 then begin
                  let key =
                    match params.metric with
                    | Metric.Average_delay | Metric.Missed_deadlines ->
                        delta /. float_of_int p.Packet.size
                    | Metric.Maximum_delay ->
                        (* Work conservation: serve highest expected delay
                           D(i) first; replication only changes the served
                           packet's own D(i), so a static descending order
                           is equivalent within one contact. *)
                        let a = expected_delay ~rate:r in
                        (now -. p.Packet.created) +. Float.min a big_delay
                  in
                  plan_push t p key
                end
              end;
              direct
            end)
      in
      push_direct t ~now direct;
      (* Rank an index permutation through the shared arena; key and id
         make the order total, so the (unstable) heapsort reproduces the
         stable sort it replaces byte for byte. *)
      let order = t.plan_order in
      Sortbuf.clear order;
      for i = 0 to t.plan_len - 1 do
        Sortbuf.push order i
      done;
      let key = t.plan_key and pkts = t.plan_pkts in
      Sortbuf.sort order ~cmp:(fun i j ->
          match Float.compare key.(j) key.(i) with
          | 0 -> Int.compare pkts.(i).Packet.id pkts.(j).Packet.id
          | n -> n);
      Sortbuf.iteri order (fun _ i -> Send_queue.push t.queue pkts.(i));
      Send_queue.finish_plan t.queue

    (* -------------------------------------------------------------- *)
    (* Control channel *)

    let refresh_own t ~now node =
      (* Re-estimate n_meet for every buffered packet, but only mark an
         entry changed when the estimate moved — "the node only sends
         information about packets whose information changed since the
         last exchange" (§4.2). *)
      sync_index t node;
      let db = t.dbs.(node) in
      let changed = t.refresh_changed in
      Sortbuf.clear changed;
      Position_index.iter t.pos.(node) (fun p ~ahead ->
          let avg =
            Float.max 1.0 (b_avg t ~holder:node ~dst:p.Packet.dst)
          in
          let n =
            max 1
              (int_of_float
                 (Float.ceil (float_of_int (ahead + p.Packet.size) /. avg)))
          in
          (* Hysteresis: deep-queue jitter (17 <-> 18 meetings) barely
             moves the estimate but would flood the channel; small n
             changes matter and are always shipped. [old] is what the
             node last recorded for its own buffered copy: gossip merges
             only strictly newer stamps, and every peer's copy of this
             entry carries a stamp the node wrote itself. *)
          let old =
            Replica_db.n_meet db ~packet_id:p.Packet.id ~holder_id:node
          in
          let unchanged =
            old >= 0 && (old = n || (old > 3 && abs (old - n) < 2))
          in
          if not unchanged then Sortbuf.push changed (p, n));
      (* Apply in ascending packet id — the order of the buffer-entry
         walk this replaces — so the update log (and every ordering
         derived from it downstream) is byte-identical. *)
      Sortbuf.sort changed ~cmp:(fun ((a : Packet.t), _) ((b : Packet.t), _) ->
          Int.compare a.Packet.id b.Packet.id);
      Sortbuf.iteri changed (fun _ (p, n) ->
          Replica_db.set_holder t.truth ~packet:p ~holder_id:node ~n_meet:n
            ~now;
          Replica_db.set_holder db ~packet:p ~holder_id:node ~n_meet:n ~now)

    let purge_delivered_instantly t ~now ~node =
      (* Instant-global acknowledgments: any buffered copy of an
         already-delivered packet is cleared on the spot, in ascending id
         order. The env hook is how the run accounts the purge (exactly
         once, in Metrics). *)
      let buffer = t.env.Env.buffers.(node) in
      let victims =
        Buffer.fold_unordered buffer ~init:[] ~f:(fun acc (e : Buffer.entry) ->
            if Env.is_delivered t.env e.packet.Packet.id then e.packet :: acc
            else acc)
        |> List.sort (fun (a : Packet.t) (b : Packet.t) ->
               Int.compare a.Packet.id b.Packet.id)
      in
      List.iter
        (fun (p : Packet.t) ->
          match Buffer.remove buffer p.Packet.id with
          | Some _ ->
              t.env.Env.on_ack_purge ~now ~node p;
              Replica_db.remove_packet t.truth ~packet_id:p.Packet.id
          | None -> ())
        victims

    let on_contact t { Protocol.now; a; b; budget; meta_budget; meta_ok } =
      Send_queue.begin_contact t.queue;
      Meeting_matrix.observe t.matrix ~now ~a ~b;
      t.meet_count.(a) <- t.meet_count.(a) + 1;
      t.meet_count.(b) <- t.meet_count.(b) + 1;
      let x, y = if a < b then (a, b) else (b, a) in
      Dense.Cumulative_grid.add t.pair_transfer x y (float_of_int budget);
      Moving_average.Cumulative.add t.global_transfer (float_of_int budget);
      t.global_avg.(0) <-
        Moving_average.Cumulative.value_or t.global_transfer ~default:1e6;
      refresh_own t ~now a;
      refresh_own t ~now b;
      let bytes = ref 0 in
      (* Metadata can never exceed the transfer opportunity; absent an
         administrator cap (Fig. 8), RAPID limits itself to a fraction of
         the opportunity so gossip cannot starve data under churn. *)
      let cap =
        match meta_budget with
        | Some m -> min m budget
        | None ->
            int_of_float (params.meta_self_cap_frac *. float_of_int budget)
      in
      let remaining () = cap - !bytes in
      let trace_meta kind spent =
        if Rapid_obs.Tracer.enabled params.tracer then
          Rapid_obs.Tracer.emit params.tracer
            (Rapid_obs.Tracer.Metadata { time = now; a; b; bytes = spent; kind })
      in
      (match params.channel with
      | Control_channel.Instant_global ->
          (* The oracle channel is out of band — in-band metadata loss
             cannot touch it. *)
          purge_delivered_instantly t ~now ~node:a;
          purge_delivered_instantly t ~now ~node:b
      | Control_channel.In_band | Control_channel.Local_only
        when not meta_ok ->
          (* The exchange was lost in flight: no acks, no table cells, no
             replica deltas — and crucially no watermark advances, so the
             next successful meeting ships everything accumulated. The
             meeting observation above is first-hand and stays. *)
          ()
      | Control_channel.In_band | Control_channel.Local_only ->
          (* 1. Acknowledgments (highest priority). *)
          if params.use_acks && remaining () >= params.ack_entry_bytes then begin
            let fresh = Protocol.Ack_store.exchange t.acks ~a ~b in
            let purge node =
              Protocol.Ack_store.purge t.acks t.env ~now ~node
                ~on_purge:(fun p ->
                  Replica_db.remove_packet t.dbs.(node)
                    ~packet_id:p.Packet.id;
                  Replica_db.remove_holder t.truth ~packet_id:p.Packet.id
                    ~holder_id:node)
            in
            purge a;
            purge b;
            let ack_bytes = fresh * params.ack_entry_bytes in
            bytes := !bytes + ack_bytes;
            Rapid_obs.Counter.add c_meta_ack_bytes ack_bytes;
            trace_meta "acks" ack_bytes
          end;
          (* 2. Meeting-time table deltas: each side ships the cells of its
             own row that changed since it last synced with this peer (a
             row has at most n-1 cells). *)
          let row_cells x y =
            (* max 0 guards against watermarks from before a reboot reset
               the node's meeting counter. *)
            max 0
              (min (t.env.Env.num_nodes - 1)
                 (t.meet_count.(x) - Dense.Int_mat.get t.last_table_sync x y))
          in
          let cells = row_cells a b + row_cells b a in
          let table_bytes = cells * params.table_entry_bytes in
          let table_bytes = min table_bytes (max 0 (remaining ())) in
          bytes := !bytes + table_bytes;
          Rapid_obs.Counter.add c_meta_table_bytes table_bytes;
          trace_meta "table" table_bytes;
          Dense.Int_mat.set t.last_table_sync a b t.meet_count.(a);
          Dense.Int_mat.set t.last_table_sync b a t.meet_count.(b);
          (* 3. Replica metadata deltas, split evenly across directions;
             the local-only channel describes only buffered packets. *)
          let entry_budget_total = max 0 (remaining ()) / params.packet_entry_bytes in
          let send ~sender ~receiver ~budget =
            let only =
              match params.channel with
              | Control_channel.Local_only -> Some t.env.Env.buffers.(sender)
              | Control_channel.In_band | Control_channel.Instant_global -> None
            in
            Gossip.send t.gossip ~now ~sender ~receiver ~src:t.dbs.(sender)
              ~dst:t.dbs.(receiver) ~only ~budget
          in
          let half = (entry_budget_total + 1) / 2 in
          let sent_ab = send ~sender:a ~receiver:b ~budget:half in
          let sent_ba =
            send ~sender:b ~receiver:a ~budget:(entry_budget_total - sent_ab)
          in
          let entry_bytes = (sent_ab + sent_ba) * params.packet_entry_bytes in
          bytes := !bytes + entry_bytes;
          Rapid_obs.Counter.add c_meta_entry_bytes entry_bytes;
          trace_meta "entries" entry_bytes);
      plan t ~now ~sender:a ~receiver:b;
      plan t ~now ~sender:b ~receiver:a;
      !bytes

    let next_packet t ~now:_ ~sender ~receiver ~budget =
      Send_queue.next t.queue t.env ~sender ~receiver ~budget

    let on_transfer t ~now ~sender ~receiver (p : Packet.t) ~delivered =
      let id = p.Packet.id in
      if delivered then begin
        if params.use_acks then begin
          Protocol.Ack_store.learn t.acks ~node:sender ~packet_id:id;
          Protocol.Ack_store.learn t.acks ~node:receiver ~packet_id:id
        end;
        Replica_db.remove_packet t.truth ~packet_id:id;
        Replica_db.remove_packet t.dbs.(sender) ~packet_id:id;
        Replica_db.remove_packet t.dbs.(receiver) ~packet_id:id
      end
      else begin
        (* The receiver's positions as of this contact's plan (synced
           there, not here): the exact within-contact rule the goldens
           pin. *)
        let n = n_meet_from_index t ~node:receiver p in
        Replica_db.set_holder t.truth ~packet:p ~holder_id:receiver ~n_meet:n ~now;
        List.iter
          (fun node ->
            Replica_db.set_holder t.dbs.(node) ~packet:p ~holder_id:receiver
              ~n_meet:n ~now)
          [ sender; receiver ]
      end

    (* -------------------------------------------------------------- *)
    (* Storage adaptation (§3.4): lowest-utility first; a source never
       deletes its own unacknowledged packet. *)

    (* Marginal utility of the local copy, written to [t.loss.(0)]: how
       much does losing THIS replica hurt the packet's expected metric
       contribution? A copy whose packet is well replicated elsewhere (or
       can never reach its destination) costs little — those go first,
       per byte. *)
    let local_loss t ~now ~node (p : Packet.t) =
      believed_rate t ~observer:node ~packet:p;
      let r = t.rate.(0) in
      let n_self =
        Replica_db.n_meet t.dbs.(node) ~packet_id:p.Packet.id ~holder_id:node
      in
      let r_self =
        if n_self < 0 then 0.0
        else
          rate_of_holder
            ~meeting_time:(meeting_time t node p.Packet.dst)
            ~n_meet:n_self
      in
      let without = Float.max 0.0 (r -. r_self) in
      t.loss.(0) <-
        (match (params.metric, p.Packet.deadline) with
        | Metric.Missed_deadlines, Some d ->
            let rem = d -. now in
            if rem <= 0.0 then 0.0 (* dead: worthless, drop first *)
            else
              delivery_prob_within ~rate:r ~horizon:rem
              -. delivery_prob_within ~rate:without ~horizon:rem
        | (Metric.Average_delay | Metric.Maximum_delay | Metric.Missed_deadlines), _
          ->
            let a = expected_delay ~rate:r in
            let a' = expected_delay ~rate:without in
            if not (Float.is_finite a) then 0.0
            else if not (Float.is_finite a') then big_delay -. a
            else a' -. a)

    let drop_candidate t ~now ~node ~incoming =
      (* Foreign replicas are evicted before anything else; a source's own
         packets are protected (§3.4) — except that a source creating a new
         packet may replace its own lowest-utility one (the alternative
         would deadlock a full source buffer forever). The victim is the
         cheapest local loss per byte, the smaller id breaking ties. Each
         call rescans: inside one eviction burst only [on_dropped] runs,
         and it touches only the victim's own holder entry, so the
         survivors' scores are what the previous call saw. *)
      let cheapest ~own =
        let best =
          Buffer.fold_unordered t.env.Env.buffers.(node) ~init:no_packet
            ~f:(fun (best : Packet.t) (e : Buffer.entry) ->
              let p = e.packet in
              if (p.Packet.src = node) <> own then best
              else begin
                local_loss t ~now ~node p;
                let s = t.loss.(0) /. float_of_int p.Packet.size in
                let bs = t.best.(0) in
                if
                  best != no_packet
                  && (Float.compare bs s < 0
                     || (Float.compare bs s = 0 && best.Packet.id < p.Packet.id)
                     )
                then best
                else begin
                  t.best.(0) <- s;
                  p
                end
              end)
        in
        if best == no_packet then None else Some best
      in
      match cheapest ~own:false with
      | Some _ as victim -> victim
      | None when incoming.Packet.src = node -> cheapest ~own:true
      | None -> None

    let on_dropped t ~now:_ ~node (p : Packet.t) =
      Replica_db.remove_holder t.truth ~packet_id:p.Packet.id ~holder_id:node;
      Replica_db.remove_holder t.dbs.(node) ~packet_id:p.Packet.id
        ~holder_id:node

    let on_reboot t ~now:_ ~node ~lost =
      (* First-hand truth: the crashed copies are gone. *)
      List.iter
        (fun (p : Packet.t) ->
          Replica_db.remove_holder t.truth ~packet_id:p.Packet.id
            ~holder_id:node)
        lost;
      (* The node's replica DB, ack set and gossip watermarks lived in
         RAM; peers' (stale) beliefs about this node survive. Meeting-time
         statistics are kept: the deployment persists them to flash, and
         they age out via the matrix's own dynamics. *)
      t.dbs.(node) <- Replica_db.create ();
      Protocol.Ack_store.reset_node t.acks ~node;
      Gossip.forget_sender t.gossip node;
      for peer = 0 to t.env.Env.num_nodes - 1 do
        Dense.Int_mat.set t.last_table_sync node peer 0
      done;
      t.meet_count.(node) <- 0
  end : Protocol.S)

let make_default metric = make (default_params metric)
