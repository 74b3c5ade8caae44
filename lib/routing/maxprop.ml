open Rapid_prelude
open Rapid_sim

let make ?(ack_entry_bytes = 8) ?(vector_entry_bytes = 12) () : Protocol.packed =
  (module struct
    type t = {
      env : Env.t;
      queue : unit Send_queue.t;
      acks : Protocol.Ack_store.t;
      (* own.(x): x's meeting-likelihood vector over all nodes. *)
      own : float array array;
      (* view.(x).(y): x's latest copy of y's vector (None = never heard). *)
      view : float array option array array;
      (* Moving average of observed transfer-opportunity bytes. *)
      avg_transfer : Moving_average.Cumulative.t;
      (* Dijkstra results cached within a contact (cleared on each, and a
         node's row on its reboot): drop decisions during heavy eviction
         would otherwise recompute them per evicted packet. *)
      cost_cache : (int, float array) Hashtbl.t;
      (* hop_bytes.(h): buffered bytes at hop count h, scratch for
         [hop_threshold]; all zero between calls. *)
      mutable hop_bytes : int array;
    }

    let name = "MaxProp"

    let uniform n =
      Array.init n (fun _ -> if n > 1 then 1.0 /. float_of_int (n - 1) else 0.0)

    let create env =
      let n = env.Env.num_nodes in
      let uniform () = uniform n in
      {
        env;
        queue = Send_queue.create ();
        acks = Protocol.Ack_store.create ~num_nodes:n;
        own = Array.init n (fun _ -> uniform ());
        view = Array.init n (fun _ -> Array.make n None);
        avg_transfer = Moving_average.Cumulative.create ();
        cost_cache = Hashtbl.create 4;
        hop_bytes = [||];
      }

    let bump_likelihood t ~node ~met =
      let row = t.own.(node) in
      row.(met) <- row.(met) +. 1.0;
      let sum = Array.fold_left ( +. ) 0.0 row in
      Array.iteri (fun j v -> row.(j) <- v /. sum) row

    (* Cheapest-path costs from [src] to every node under [observer]'s
       learned vectors; edge (u, v) costs 1 - f^u(v). Unknown vectors fall
       back to the uniform prior. *)
    let all_path_costs t ~observer ~src =
      let n = t.env.Env.num_nodes in
      let default = 1.0 /. float_of_int (max 1 (n - 1)) in
      let vector_of u =
        if u = observer then Some t.own.(observer) else t.view.(observer).(u)
      in
      let dist = Array.make n infinity in
      let queue = Pqueue.create () in
      dist.(src) <- 0.0;
      Pqueue.push queue 0.0 src;
      let rec loop () =
        match Pqueue.pop queue with
        | None -> ()
        | Some (d, u) ->
            if d <= dist.(u) then begin
              let vec = vector_of u in
              for v = 0 to n - 1 do
                if v <> u then begin
                  let f =
                    match vec with Some vec -> vec.(v) | None -> default
                  in
                  let w = 1.0 -. Float.min 1.0 (Float.max 0.0 f) in
                  if d +. w < dist.(v) then begin
                    dist.(v) <- d +. w;
                    Pqueue.push queue dist.(v) v
                  end
                end
              done;
              loop ()
            end
            else loop ()
      in
      loop ();
      dist

    let cached_costs t ~node =
      match Hashtbl.find_opt t.cost_cache node with
      | Some dist -> dist
      | None ->
          let dist = all_path_costs t ~observer:node ~src:node in
          Hashtbl.replace t.cost_cache node dist;
          dist

    let on_created _ ~now:_ _ = ()

    (* Adaptive hop-count threshold: the head of the buffer (packets sorted
       by hops) claims up to half the expected transfer opportunity. The
       answer is the first hop group whose cumulative bytes exceed that
       share (max hops + 1 if none does, 0 for an empty buffer), so a
       bytes-per-hop histogram replaces sorting the buffer; integer sums
       make the comparison exact. *)
    let hop_threshold t ~sender =
      let max_hops =
        Buffer.fold_unordered t.env.Env.buffers.(sender) ~init:(-1)
          ~f:(fun m (e : Buffer.entry) ->
            let cap = Array.length t.hop_bytes in
            if e.hops >= cap then begin
              let g = Array.make (max 16 (2 * (e.hops + 1))) 0 in
              Array.blit t.hop_bytes 0 g 0 cap;
              t.hop_bytes <- g
            end;
            t.hop_bytes.(e.hops) <- t.hop_bytes.(e.hops) + e.packet.Packet.size;
            max m e.hops)
      in
      let bytes = t.hop_bytes in
      let head_target =
        Moving_average.Cumulative.value_or t.avg_transfer ~default:infinity
        /. 2.0
      in
      let rec scan h cum =
        if h > max_hops then h
        else
          let cum = cum + bytes.(h) in
          if bytes.(h) > 0 && float_of_int cum > head_target then h
          else scan (h + 1) cum
      in
      let threshold = scan 0 0 in
      Array.fill bytes 0 (max_hops + 1) 0;
      threshold

    let plan t ~sender ~receiver =
      Send_queue.begin_plan t.queue t.env ~sender ~receiver;
      let candidates = Send_queue.candidates t.env ~sender ~receiver in
      let direct, rest = Protocol.split_direct ~receiver candidates in
      let threshold = hop_threshold t ~sender in
      let head, tail =
        List.partition (fun (e : Buffer.entry) -> e.hops < threshold) rest
      in
      let by_hops (x : Buffer.entry) (y : Buffer.entry) =
        match Int.compare x.hops y.hops with
        | 0 -> Send_queue.by_age x y
        | n -> n
      in
      let costs = cached_costs t ~node:sender in
      let by_cost (x : Buffer.entry) (y : Buffer.entry) =
        match
          Float.compare costs.(x.packet.Packet.dst) costs.(y.packet.Packet.dst)
        with
        | 0 -> Send_queue.by_age x y
        | n -> n
      in
      Send_queue.push_entries t.queue ~cmp:Send_queue.by_age direct;
      Send_queue.push_entries t.queue ~cmp:by_hops head;
      Send_queue.push_entries t.queue ~cmp:by_cost tail;
      Send_queue.finish_plan t.queue

    let on_contact t { Protocol.now; a; b; budget; meta_ok; _ } =
      Send_queue.begin_contact t.queue;
      Hashtbl.reset t.cost_cache;
      Moving_average.Cumulative.add t.avg_transfer (float_of_int budget);
      bump_likelihood t ~node:a ~met:b;
      bump_likelihood t ~node:b ~met:a;
      let meta =
        if meta_ok then begin
          (* Exchange own vectors. *)
          t.view.(a).(b) <- Some (Array.copy t.own.(b));
          t.view.(b).(a) <- Some (Array.copy t.own.(a));
          let fresh = Protocol.Ack_store.exchange t.acks ~a ~b in
          Protocol.Ack_store.purge t.acks t.env ~now ~node:a
            ~on_purge:(fun _ -> ());
          Protocol.Ack_store.purge t.acks t.env ~now ~node:b
            ~on_purge:(fun _ -> ());
          (2 * t.env.Env.num_nodes * vector_entry_bytes)
          + (fresh * ack_entry_bytes)
        end
        else
          (* Lost metadata: likelihood bumps above are first-hand (each
             node saw whom it met), but vectors and acks went unheard. *)
          0
      in
      plan t ~sender:a ~receiver:b;
      plan t ~sender:b ~receiver:a;
      meta

    let next_packet t ~now:_ ~sender ~receiver ~budget =
      Send_queue.next t.queue t.env ~sender ~receiver ~budget

    let on_transfer t ~now:_ ~sender ~receiver (p : Packet.t) ~delivered =
      if delivered then begin
        Protocol.Ack_store.learn t.acks ~node:sender ~packet_id:p.Packet.id;
        Protocol.Ack_store.learn t.acks ~node:receiver ~packet_id:p.Packet.id
      end

    let drop_candidate t ~now:_ ~node ~incoming:_ =
      (* Tail eviction: most-replicated (highest hops) first, then the
         packet with the worst delivery likelihood, then the smaller id. *)
      let costs = cached_costs t ~node in
      let worse (e : Buffer.entry) (best : Buffer.entry) =
        match Int.compare e.hops best.hops with
        | 0 -> (
            match
              Float.compare costs.(e.packet.Packet.dst)
                costs.(best.packet.Packet.dst)
            with
            | 0 -> e.packet.Packet.id < best.packet.Packet.id
            | n -> n > 0)
        | n -> n > 0
      in
      Buffer.fold_unordered t.env.Env.buffers.(node) ~init:None
        ~f:(fun acc (e : Buffer.entry) ->
          match acc with Some best when not (worse e best) -> acc | _ -> Some e)
      |> Option.map (fun (e : Buffer.entry) -> e.packet)

    let on_dropped _ ~now:_ ~node:_ _ = ()

    let on_reboot t ~now:_ ~node ~lost:_ =
      (* Back to the uniform prior, forgetting every vector heard and
         every ack learned, and the path costs computed from them; peers
         keep their (now stale) copy of this node's old vector. *)
      let n = t.env.Env.num_nodes in
      t.own.(node) <- uniform n;
      Array.fill t.view.(node) 0 n None;
      Hashtbl.remove t.cost_cache node;
      Protocol.Ack_store.reset_node t.acks ~node
  end : Protocol.S)
