type contact_info = {
  now : float;
  a : int;
  b : int;
  budget : int;
  meta_budget : int option;
  meta_ok : bool;
}

module type S = sig
  type t

  val name : string
  val create : Env.t -> t
  val on_created : t -> now:float -> Packet.t -> unit
  val on_contact : t -> contact_info -> int

  val next_packet :
    t -> now:float -> sender:int -> receiver:int -> budget:int -> Packet.t option

  val on_transfer :
    t -> now:float -> sender:int -> receiver:int -> Packet.t -> delivered:bool -> unit

  val drop_candidate : t -> now:float -> node:int -> incoming:Packet.t -> Packet.t option
  val on_dropped : t -> now:float -> node:int -> Packet.t -> unit
  val on_reboot : t -> now:float -> node:int -> lost:Packet.t list -> unit
end

type packed = (module S)

module Ack_store = struct
  (* Membership set plus an append-only log per node, with per-directed-
     pair consumption watermarks: [consumed.(src).(dst)] is the prefix of
     [src]'s log already pushed to [dst], so an exchange walks only the
     acks learned since the two last met instead of both full sets.
     Entries below the watermark are guaranteed present at [dst] (its set
     only shrinks on a reboot, which resets the node's watermark row and
     column), so skipping them changes neither the union nor the
     fresh-entry count. *)
  type node_acks = {
    set : (int, unit) Hashtbl.t;
    mutable log : int array;
    mutable len : int;
  }

  type t = { nodes : node_acks array; consumed : int array array }

  let create ~num_nodes =
    {
      nodes =
        Array.init num_nodes (fun _ ->
            { set = Hashtbl.create 32; log = [||]; len = 0 });
      consumed = Array.init num_nodes (fun _ -> Array.make num_nodes 0);
    }

  let append (n : node_acks) id =
    let cap = Array.length n.log in
    if n.len = cap then begin
      let grown = Array.make (max 32 (2 * cap)) id in
      Array.blit n.log 0 grown 0 n.len;
      n.log <- grown
    end;
    n.log.(n.len) <- id;
    n.len <- n.len + 1

  let learn t ~node ~packet_id =
    let n = t.nodes.(node) in
    if not (Hashtbl.mem n.set packet_id) then begin
      Hashtbl.replace n.set packet_id ();
      append n packet_id
    end

  let reset_node t ~node =
    let n = t.nodes.(node) in
    Hashtbl.reset n.set;
    n.len <- 0;
    for peer = 0 to Array.length t.nodes - 1 do
      t.consumed.(node).(peer) <- 0;
      t.consumed.(peer).(node) <- 0
    done

  let knows t ~node ~packet_id = Hashtbl.mem t.nodes.(node).set packet_id

  let exchange t ~a ~b =
    let new_entries = ref 0 in
    let push src dst =
      let s = t.nodes.(src) and d = t.nodes.(dst) in
      for i = t.consumed.(src).(dst) to s.len - 1 do
        let id = s.log.(i) in
        if not (Hashtbl.mem d.set id) then begin
          Hashtbl.replace d.set id ();
          append d id;
          incr new_entries
        end
      done
    in
    push a b;
    push b a;
    t.consumed.(a).(b) <- t.nodes.(a).len;
    t.consumed.(b).(a) <- t.nodes.(b).len;
    !new_entries

  (* Victims are collected in slot order, then only they are sorted
     (descending id): removal order, and with it the [on_purge] and
     tracer order, must not depend on the slot layout. *)
  let purge t env ~now ~node ~on_purge =
    let buffer = env.Env.buffers.(node) in
    let victims =
      Buffer.fold_unordered buffer ~init:[] ~f:(fun acc entry ->
          let id = entry.Buffer.packet.Packet.id in
          if knows t ~node ~packet_id:id then entry.Buffer.packet :: acc else acc)
      |> List.sort (fun (a : Packet.t) (b : Packet.t) ->
             Int.compare b.Packet.id a.Packet.id)
    in
    List.iter
      (fun p ->
        match Buffer.remove buffer p.Packet.id with
        | Some _ ->
            env.Env.on_ack_purge ~now ~node p;
            on_purge p
        | None -> ())
      victims
end

let split_direct ~receiver entries =
  List.partition
    (fun (e : Buffer.entry) -> e.packet.Packet.dst = receiver)
    entries
