open Rapid_trace
open Rapid_sim

let make ~trace () : Protocol.packed =
  (module struct
    type t = { env : Env.t; queue : (Packet.t * float) Send_queue.t }

    let name = "OracleForwarding"
    let create env = { env; queue = Send_queue.create () }
    let on_created _ ~now:_ _ = ()

    (* Earliest arrival time at [dst] starting from [node] holding the
       packet strictly after time [now] (the current contact may itself be
       used, so [>= now]). *)
    let earliest_delivery ~now ~node ~dst ~size =
      let reach = Array.make trace.Trace.num_nodes infinity in
      reach.(node) <- now;
      Array.iter
        (fun (c : Contact.t) ->
          if c.Contact.time >= now && c.Contact.bytes >= size then begin
            if
              reach.(c.Contact.a) <= c.Contact.time
              && c.Contact.time < reach.(c.Contact.b)
            then reach.(c.Contact.b) <- c.Contact.time;
            if
              reach.(c.Contact.b) <= c.Contact.time
              && c.Contact.time < reach.(c.Contact.a)
            then reach.(c.Contact.a) <- c.Contact.time
          end)
        trace.Trace.contacts;
      reach.(dst)

    (* Earliest estimated arrival first, the smaller id breaking ties. *)
    let by_eta ((pa : Packet.t), a) ((pb : Packet.t), b) =
      match Float.compare a b with
      | 0 -> Int.compare pa.Packet.id pb.Packet.id
      | n -> n

    let plan t ~now ~sender ~receiver =
      Send_queue.begin_plan t.queue t.env ~sender ~receiver;
      let candidates = Send_queue.candidates t.env ~sender ~receiver in
      let direct, rest = Protocol.split_direct ~receiver candidates in
      Send_queue.push_entries t.queue ~cmp:Send_queue.by_age direct;
      (* Forward iff handing over strictly improves the earliest-arrival
         estimate: the receiver (who has the packet from this instant) can
         deliver sooner than the sender could by keeping it past this
         contact. *)
      Send_queue.push_items t.queue ~cmp:by_eta ~packet:fst (fun add ->
          List.iter
            (fun (e : Buffer.entry) ->
              let p = e.packet in
              let dst = p.Packet.dst and size = p.Packet.size in
              let via_receiver =
                earliest_delivery ~now ~node:receiver ~dst ~size
              in
              let keeping =
                earliest_delivery ~now:(now +. 1e-9) ~node:sender ~dst ~size
              in
              if via_receiver < keeping then add (p, via_receiver))
            rest);
      Send_queue.finish_plan t.queue

    let on_contact t { Protocol.now; a; b; _ } =
      Send_queue.begin_contact t.queue;
      plan t ~now ~sender:a ~receiver:b;
      plan t ~now ~sender:b ~receiver:a;
      0

    let next_packet t ~now:_ ~sender ~receiver ~budget =
      Send_queue.next t.queue t.env ~sender ~receiver ~budget

    (* Single copy: the sender relinquishes the packet once forwarded. *)
    let on_transfer t ~now:_ ~sender ~receiver:_ (p : Packet.t) ~delivered =
      if not delivered then
        ignore (Buffer.remove t.env.Env.buffers.(sender) p.Packet.id)

    let drop_candidate t ~now ~node ~incoming:_ =
      (* Drop the packet whose delivery prospects are worst; the smaller id
         breaks ties. *)
      Buffer.fold_unordered t.env.Env.buffers.(node) ~init:None
        ~f:(fun acc (e : Buffer.entry) ->
          let p = e.packet in
          let eta =
            earliest_delivery ~now ~node ~dst:p.Packet.dst ~size:p.Packet.size
          in
          match acc with
          | Some ((best : Packet.t), best_eta)
            when Float.compare eta best_eta < 0
                 || (Float.compare eta best_eta = 0 && best.Packet.id < p.Packet.id)
            ->
              acc
          | _ -> Some (p, eta))
      |> Option.map fst

    let on_dropped _ ~now:_ ~node:_ _ = ()

    (* The oracle recomputes from the trace each contact: no soft state. *)
    let on_reboot _ ~now:_ ~node:_ ~lost:_ = ()
  end : Protocol.S)
