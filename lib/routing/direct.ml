open Rapid_sim

let make () : Protocol.packed =
  (module struct
    type t = { env : Env.t; queue : Send_queue.t }

    let name = "Direct"
    let create env = { env; queue = Send_queue.create () }
    let on_created _ ~now:_ _ = ()

    let plan t ~sender ~receiver =
      Send_queue.begin_plan t.queue t.env ~sender ~receiver;
      let candidates = Send_queue.candidates t.env ~sender ~receiver in
      let direct, _ = Protocol.split_direct ~receiver candidates in
      Send_queue.push_entries t.queue ~cmp:Send_queue.by_age direct;
      Send_queue.finish_plan t.queue

    let on_contact t { Protocol.a; b; _ } =
      Send_queue.begin_contact t.queue;
      plan t ~sender:a ~receiver:b;
      plan t ~sender:b ~receiver:a;
      0

    let next_packet t ~now:_ ~sender ~receiver ~budget =
      Send_queue.next t.queue t.env ~sender ~receiver ~budget

    let on_transfer _ ~now:_ ~sender:_ ~receiver:_ _ ~delivered:_ = ()

    (* Strictly-newer-than, ties to the lowest id (what the seed's stable
       descending sort put at the head). *)
    let newer (e : Buffer.entry) (best : Buffer.entry) =
      match Float.compare e.packet.Packet.created best.packet.Packet.created with
      | 0 -> e.packet.Packet.id < best.packet.Packet.id
      | n -> n > 0

    let drop_candidate t ~now:_ ~node ~incoming:_ =
      (* Newest first: keep the packets that have waited longest. *)
      Buffer.fold_unordered t.env.Env.buffers.(node) ~init:None
        ~f:(fun acc (e : Buffer.entry) ->
          match acc with
          | Some best when not (newer e best) -> acc
          | _ -> Some e)
      |> Option.map (fun (e : Buffer.entry) -> e.packet)

    let on_dropped _ ~now:_ ~node:_ _ = ()

    (* Stateless beyond the per-contact plan: nothing to forget. *)
    let on_reboot _ ~now:_ ~node:_ ~lost:_ = ()
  end : Protocol.S)
