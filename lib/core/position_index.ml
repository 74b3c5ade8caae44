open Rapid_prelude
open Rapid_sim

(* [pkts] is the buffer as of epoch [epoch] (-1 = never synced), sorted
   by [cmp]; [ahead.(i)] is the bytes of same-destination packets in the
   slots before [i]. Both are reused from sync to sync. *)
type t = {
  mutable epoch : int;
  pkts : Packet.t Sortbuf.t;
  mutable ahead : int array;
}

let create () = { epoch = -1; pkts = Sortbuf.create (); ahead = [||] }

(* Destination, then delivery order (created, then id). Ids are unique,
   so the order is total and the unstable heapsort is deterministic. *)
let cmp (p : Packet.t) (q : Packet.t) =
  match Int.compare p.Packet.dst q.Packet.dst with
  | 0 -> (
      match Float.compare p.Packet.created q.Packet.created with
      | 0 -> Int.compare p.Packet.id q.Packet.id
      | n -> n)
  | n -> n

let sync t buffer =
  let ep = Buffer.epoch buffer in
  ep <> t.epoch
  && begin
    t.epoch <- ep;
    let pkts = t.pkts in
    Sortbuf.clear pkts;
    Buffer.fold_unordered buffer ~init:() ~f:(fun () (e : Buffer.entry) ->
        Sortbuf.push pkts e.packet);
    Sortbuf.sort pkts ~cmp;
    let n = Sortbuf.length pkts in
    if Array.length t.ahead < n then t.ahead <- Array.make (max 16 (2 * n)) 0;
    let dst = ref (-1) and acc = ref 0 in
    for i = 0 to n - 1 do
      let p = Sortbuf.get pkts i in
      if p.Packet.dst <> !dst then begin
        dst := p.Packet.dst;
        acc := 0
      end;
      t.ahead.(i) <- !acc;
      acc := !acc + p.Packet.size
    done;
    true
  end

let bytes_before t (packet : Packet.t) =
  let pkts = t.pkts in
  let n = Sortbuf.length pkts in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cmp (Sortbuf.get pkts mid) packet < 0 then lo := mid + 1 else hi := mid
  done;
  (* [lo] is the packet's own slot, the next slot of its destination, or
     the first slot past that destination (whose bytes all lie ahead). *)
  let dst = packet.Packet.dst in
  let lo = !lo in
  if lo < n && (Sortbuf.get pkts lo).Packet.dst = dst then t.ahead.(lo)
  else if lo > 0 && (Sortbuf.get pkts (lo - 1)).Packet.dst = dst then
    t.ahead.(lo - 1) + (Sortbuf.get pkts (lo - 1)).Packet.size
  else 0

let iter t f = Sortbuf.iteri t.pkts (fun i p -> f p ~ahead:t.ahead.(i))
