open Rapid_prelude
open Rapid_sim

let make ?(with_acks = false) ?(summary_vector = false) ?(ack_entry_bytes = 8)
    () : Protocol.packed =
  (module struct
    type t = {
      env : Env.t;
      queue : Send_queue.t;
      acks : Protocol.Ack_store.t;
    }

    let name =
      (if with_acks then "Random+acks" else "Random")
      ^ if summary_vector then "(sv)" else ""

    let create env =
      {
        env;
        queue = Send_queue.create ();
        acks = Protocol.Ack_store.create ~num_nodes:env.Env.num_nodes;
      }

    let on_created _ ~now:_ _ = ()

    let plan t ~sender ~receiver =
      (* Paper baseline: "replicates randomly chosen packets for the
         duration of the transfer opportunity" — without summary vectors
         the candidate set is the whole buffer, duplicates included, and
         the engine charges the waste. Direct deliveries still go first
         (any node knows who it is talking to). *)
      Send_queue.begin_plan ~check_peer:summary_vector t.queue t.env ~sender
        ~receiver;
      (* Id order, not a slot-order walk: the shuffle below consumes its
         input order. *)
      let entries =
        let all = Env.buffered_entries t.env sender in
        if summary_vector then
          List.filter
            (fun (e : Buffer.entry) ->
              not (Env.has_packet t.env ~node:receiver ~packet:e.packet))
            all
        else all
      in
      let direct, rest = Protocol.split_direct ~receiver entries in
      Send_queue.push_entries t.queue ~cmp:Send_queue.by_age direct;
      let rest = Array.of_list rest in
      Rng.shuffle t.env.Env.rng rest;
      Array.iter
        (fun (e : Buffer.entry) -> Send_queue.push t.queue e.packet)
        rest;
      Send_queue.finish_plan t.queue

    let on_contact t { Protocol.now; a; b; meta_ok; _ } =
      Send_queue.begin_contact t.queue;
      let meta =
        if with_acks && meta_ok then begin
          let fresh = Protocol.Ack_store.exchange t.acks ~a ~b in
          Protocol.Ack_store.purge t.acks t.env ~now ~node:a ~on_purge:(fun _ -> ());
          Protocol.Ack_store.purge t.acks t.env ~now ~node:b ~on_purge:(fun _ -> ());
          fresh * ack_entry_bytes
        end
        else 0
      in
      plan t ~sender:a ~receiver:b;
      plan t ~sender:b ~receiver:a;
      meta

    let next_packet t ~now:_ ~sender ~receiver ~budget =
      Send_queue.next t.queue t.env ~sender ~receiver ~budget

    let on_transfer t ~now:_ ~sender ~receiver (p : Packet.t) ~delivered =
      if delivered && with_acks then begin
        Protocol.Ack_store.learn t.acks ~node:sender ~packet_id:p.Packet.id;
        Protocol.Ack_store.learn t.acks ~node:receiver ~packet_id:p.Packet.id
      end

    let drop_candidate t ~now:_ ~node ~incoming:_ =
      (* One uniform draw over the id-ordered buffer, selected by rank. *)
      let buf = t.env.Env.buffers.(node) in
      match Buffer.count buf with
      | 0 -> None
      | n -> Some (Buffer.nth_by_id buf (Rng.int t.env.Env.rng n)).Buffer.packet

    let on_dropped _ ~now:_ ~node:_ _ = ()

    let on_reboot t ~now:_ ~node ~lost:_ =
      if with_acks then Protocol.Ack_store.reset_node t.acks ~node
  end : Protocol.S)
