open Rapid_prelude
open Rapid_sim

let make ?(l = 12) () : Protocol.packed =
  (module struct
    type t = {
      env : Env.t;
      queue : Send_queue.t;
      (* packet id * num_nodes + node -> remaining logical copies at that
         node (flat int key: no tuple boxing on the per-entry plan scan). *)
      tokens : (int, int) Hashtbl.t;
    }

    let name = Printf.sprintf "SprayWait(L=%d)" l

    let create env =
      { env; queue = Send_queue.create (); tokens = Hashtbl.create 256 }

    let key t ~node ~packet_id = (packet_id * t.env.Env.num_nodes) + node

    let tokens_of t ~node ~packet_id =
      Option.value (Hashtbl.find_opt t.tokens (key t ~node ~packet_id)) ~default:1

    let on_created t ~now:_ (p : Packet.t) =
      Hashtbl.replace t.tokens (key t ~node:p.Packet.src ~packet_id:p.Packet.id) l

    let plan t ~sender ~receiver =
      Send_queue.begin_plan t.queue t.env ~sender ~receiver;
      let candidates = Send_queue.candidates t.env ~sender ~receiver in
      let direct, rest = Protocol.split_direct ~receiver candidates in
      (* Spray phase requires more than one logical copy in hand. The
         token count is looked up once per entry here (decorate), never
         inside the sort comparator. *)
      let sprayable =
        List.filter_map
          (fun (e : Buffer.entry) ->
            let n = tokens_of t ~node:sender ~packet_id:e.packet.Packet.id in
            if n > 1 then Some (n, e) else None)
          rest
      in
      Send_queue.push_entries t.queue ~cmp:Send_queue.by_age direct;
      (* Most copies first spreads widest fastest; ties oldest-first —
         (tokens desc, created, id) is a total order, so the unstable
         array sort is deterministic. *)
      let arr = Array.of_list sprayable in
      Array.sort
        (fun (ta, (a : Buffer.entry)) (tb, (b : Buffer.entry)) ->
          match Int.compare tb ta with 0 -> Send_queue.by_age a b | n -> n)
        arr;
      Array.iter (fun (_, (e : Buffer.entry)) -> Send_queue.push t.queue e.packet) arr;
      Send_queue.finish_plan t.queue

    let on_contact t { Protocol.a; b; _ } =
      Send_queue.begin_contact t.queue;
      plan t ~sender:a ~receiver:b;
      plan t ~sender:b ~receiver:a;
      0

    let next_packet t ~now:_ ~sender ~receiver ~budget =
      Send_queue.next t.queue t.env ~sender ~receiver ~budget

    let on_transfer t ~now:_ ~sender ~receiver (p : Packet.t) ~delivered =
      let id = p.Packet.id in
      if delivered then
        (* The sender relinquished its copy on delivery: retire its
           token entry rather than leaving it to go stale. *)
        Hashtbl.remove t.tokens (key t ~node:sender ~packet_id:id)
      else begin
        let n = tokens_of t ~node:sender ~packet_id:id in
        let give = max 1 (n / 2) in
        let keep = max 1 (n - give) in
        Hashtbl.replace t.tokens (key t ~node:sender ~packet_id:id) keep;
        Hashtbl.replace t.tokens (key t ~node:receiver ~packet_id:id) give
      end

    let drop_candidate t ~now:_ ~node ~incoming:_ =
      (* §6.3.2: Spray and Wait deletes packets randomly under pressure. *)
      (* One uniform draw over the id-ordered buffer, selected by rank. *)
      let buf = t.env.Env.buffers.(node) in
      match Buffer.count buf with
      | 0 -> None
      | n -> Some (Buffer.nth_by_id buf (Rng.int t.env.Env.rng n)).Buffer.packet

    let on_dropped t ~now:_ ~node (p : Packet.t) =
      Hashtbl.remove t.tokens (key t ~node ~packet_id:p.Packet.id)

    let on_reboot t ~now:_ ~node ~lost:_ =
      (* Tickets live with the copies, which the crash destroyed. A copy
         re-sprayed to this node later arrives with fresh tokens. *)
      let n = t.env.Env.num_nodes in
      Hashtbl.filter_map_inplace
        (fun k count -> if k mod n = node then None else Some count)
        t.tokens
  end : Protocol.S)
