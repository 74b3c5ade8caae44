open Rapid_prelude
open Rapid_sim

(* [backlog.(sender * n + receiver)]: the pair's deferred entries as
   distinct packed keys (packet id * n + holder id), in no order.
   [seen.(k) = gen] iff key k was offered in the current [send], so the
   dedup needs no clearing. *)
type t = {
  n : int;
  last : Dense.Mat.t;
  backlog : int Sortbuf.t array;
  mutable seen : int array;
  mutable gen : int;
  buf : Replica_db.entry Sortbuf.t;
}

let create ~num_nodes:n =
  {
    n;
    last = Dense.Mat.create ~init:neg_infinity n;
    backlog = Array.init (n * n) (fun _ -> Sortbuf.create ());
    seen = [||];
    gen = 0;
    buf = Sortbuf.create ();
  }

(* Oldest first. (packet id, holder id) is unique after the dedup, so the
   order is total and the unstable selection is deterministic. *)
let cmp (x : Replica_db.entry) (y : Replica_db.entry) =
  match Float.compare x.holder.updated_at y.holder.updated_at with
  | 0 -> (
      match Int.compare x.packet.Packet.id y.packet.Packet.id with
      | 0 -> Int.compare x.holder_id y.holder_id
      | c -> c)
  | c -> c

let first_sighting t k =
  if k >= Array.length t.seen then begin
    let g = Array.make (max 1024 (2 * (k + 1))) 0 in
    Array.blit t.seen 0 g 0 (Array.length t.seen);
    t.seen <- g
  end;
  let fresh = Array.unsafe_get t.seen k <> t.gen in
  Array.unsafe_set t.seen k t.gen;
  fresh

let send t ~now ~sender ~receiver ~src ~dst ~only ~budget =
  let n = t.n in
  let since = Dense.Mat.get t.last sender receiver in
  let backlog = t.backlog.((sender * n) + receiver) in
  let buf = t.buf in
  Sortbuf.clear buf;
  t.gen <- t.gen + 1;
  (* A deferred key is read with no threshold; a log key only if its entry
     changed after [since] (log times are clamped non-decreasing, so the
     walk can reach entries older than [since]). The first sighting wins. *)
  let offer threshold packet_id holder_id =
    if
      first_sighting t ((packet_id * n) + holder_id)
      && match only with None -> true | Some b -> Buffer.mem b packet_id
    then
      match Replica_db.entry_since src threshold ~packet_id ~holder_id with
      | Some e -> Sortbuf.push buf e
      | None -> ()
  in
  Sortbuf.iteri backlog (fun _ k -> offer neg_infinity (k / n) (k mod n));
  Replica_db.iter_ids_since src since (fun ~packet_id ~holder_id ->
      offer since packet_id holder_id);
  (* Only the oldest [shipped] need ordering; the tail becomes the
     backlog. The watermark always advances: rewinding it to the cut
     instead would re-offer shipped entries that tie on updated_at or
     sit behind a clamped log time, double-spending the budget. *)
  let shipped = max 0 (min budget (Sortbuf.length buf)) in
  Sortbuf.select buf ~cmp shipped;
  Sortbuf.clear backlog;
  Sortbuf.iteri buf (fun i (e : Replica_db.entry) ->
      if i < shipped then
        ignore
          (Replica_db.merge dst ~packet:e.packet ~holder_id:e.holder_id
             ~holder:e.holder)
      else Sortbuf.push backlog ((e.packet.Packet.id * n) + e.holder_id));
  Dense.Mat.set t.last sender receiver now;
  shipped

let forget_sender t node =
  for peer = 0 to t.n - 1 do
    Dense.Mat.set t.last node peer neg_infinity;
    Sortbuf.clear t.backlog.((node * t.n) + peer)
  done
