open Rapid_sim

(* Encounter update followed by transitivity through the peer's table,
   on a raw predictability matrix (exposed so tests can check symmetry
   directly). The transitivity step reads from post-encounter snapshots
   of both rows: updating in place let [via_a] read a [p.(a).(c)] that
   [via_b] had just raised in the same iteration, making the result
   depend on which node was passed as [a]. *)
let encounter_update ~p_init ~beta p a b =
  p.(a).(b) <- p.(a).(b) +. ((1.0 -. p.(a).(b)) *. p_init);
  p.(b).(a) <- p.(b).(a) +. ((1.0 -. p.(b).(a)) *. p_init);
  let row_a = Array.copy p.(a) and row_b = Array.copy p.(b) in
  let n = Array.length p in
  for c = 0 to n - 1 do
    if c <> a && c <> b then begin
      let via_b = row_a.(b) *. row_b.(c) *. beta in
      if via_b > p.(a).(c) then p.(a).(c) <- via_b;
      let via_a = row_b.(a) *. row_a.(c) *. beta in
      if via_a > p.(b).(c) then p.(b).(c) <- via_a
    end
  done

let make ?(p_init = 0.75) ?(beta = 0.25) ?(gamma = 0.98) ?(time_unit = 30.0)
    ?(entry_bytes = 12) () : Protocol.packed =
  (module struct
    type t = {
      env : Env.t;
      queue : unit Send_queue.t;
      p : float array array;  (* p.(a).(b): a's predictability of meeting b *)
      last_aged : float array;
    }

    let name = "Prophet"

    let create env =
      let n = env.Env.num_nodes in
      {
        env;
        queue = Send_queue.create ();
        p = Array.init n (fun _ -> Array.make n 0.0);
        last_aged = Array.make n 0.0;
      }

    let age t ~now node =
      let elapsed = now -. t.last_aged.(node) in
      if elapsed > 0.0 then begin
        let factor = gamma ** (elapsed /. time_unit) in
        let row = t.p.(node) in
        for j = 0 to Array.length row - 1 do
          row.(j) <- row.(j) *. factor
        done;
        t.last_aged.(node) <- now
      end

    let on_created _ ~now:_ _ = ()

    let plan t ~sender ~receiver =
      Send_queue.begin_plan t.queue t.env ~sender ~receiver;
      let candidates = Send_queue.candidates t.env ~sender ~receiver in
      let direct, rest = Protocol.split_direct ~receiver candidates in
      (* Replicate only when the peer is strictly more likely to deliver. *)
      let forwardable =
        List.filter
          (fun (e : Buffer.entry) ->
            let dst = e.packet.Packet.dst in
            t.p.(receiver).(dst) > t.p.(sender).(dst))
          rest
      in
      let by_peer_predictability (a : Buffer.entry) (b : Buffer.entry) =
        match
          Float.compare
            t.p.(receiver).(b.packet.Packet.dst)
            t.p.(receiver).(a.packet.Packet.dst)
        with
        | 0 -> Send_queue.by_age a b
        | n -> n
      in
      Send_queue.push_entries t.queue ~cmp:Send_queue.by_age direct;
      Send_queue.push_entries t.queue ~cmp:by_peer_predictability forwardable;
      Send_queue.finish_plan t.queue

    let on_contact t { Protocol.now; a; b; meta_ok; _ } =
      Send_queue.begin_contact t.queue;
      age t ~now a;
      age t ~now b;
      let n = t.env.Env.num_nodes in
      let meta =
        if meta_ok then begin
          encounter_update ~p_init ~beta t.p a b;
          (* Both nodes ship their predictability vectors. *)
          2 * n * entry_bytes
        end
        else begin
          (* The meeting itself is first-hand knowledge; the transitivity
             step and the byte charge need the peer's shipped vector,
             which the fault ate. *)
          t.p.(a).(b) <- t.p.(a).(b) +. ((1.0 -. t.p.(a).(b)) *. p_init);
          t.p.(b).(a) <- t.p.(b).(a) +. ((1.0 -. t.p.(b).(a)) *. p_init);
          0
        end
      in
      plan t ~sender:a ~receiver:b;
      plan t ~sender:b ~receiver:a;
      meta

    let next_packet t ~now:_ ~sender ~receiver ~budget =
      Send_queue.next t.queue t.env ~sender ~receiver ~budget

    let on_transfer _ ~now:_ ~sender:_ ~receiver:_ _ ~delivered:_ = ()

    let drop_candidate t ~now:_ ~node ~incoming:_ =
      (* Evict the packet this node is least likely to deliver; the smaller
         id breaks ties. *)
      let score (e : Buffer.entry) = t.p.(node).(e.packet.Packet.dst) in
      let worse (e : Buffer.entry) (best : Buffer.entry) =
        match Float.compare (score e) (score best) with
        | 0 -> e.packet.Packet.id < best.packet.Packet.id
        | n -> n < 0
      in
      Buffer.fold_unordered t.env.Env.buffers.(node) ~init:None
        ~f:(fun acc (e : Buffer.entry) ->
          match acc with Some best when not (worse e best) -> acc | _ -> Some e)
      |> Option.map (fun (e : Buffer.entry) -> e.packet)

    let on_dropped _ ~now:_ ~node:_ _ = ()

    let on_reboot t ~now ~node ~lost:_ =
      (* The node's learned predictabilities die with it; what peers
         believe about the node survives (they saw no crash). *)
      Array.fill t.p.(node) 0 (Array.length t.p.(node)) 0.0;
      t.last_aged.(node) <- now
  end : Protocol.S)
