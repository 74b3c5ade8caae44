open Rapid_sim

let n_meetings ~entries ~packet ~avg_transfer_bytes =
  let dst = packet.Packet.dst in
  (* Delivery order: oldest creation first (descending T(i)); ties broken
     by id for determinism. *)
  let before (p : Packet.t) =
    p.Packet.created < packet.Packet.created
    || (p.Packet.created = packet.Packet.created && p.Packet.id < packet.Packet.id)
  in
  let bytes_before =
    List.fold_left
      (fun acc (e : Buffer.entry) ->
        let p = e.packet in
        if p.Packet.dst = dst && p.Packet.id <> packet.Packet.id && before p then
          acc + p.Packet.size
        else acc)
      0 entries
  in
  let total = float_of_int (bytes_before + packet.Packet.size) in
  let b = Float.max 1.0 avg_transfer_bytes in
  max 1 (int_of_float (Float.ceil (total /. b)))
