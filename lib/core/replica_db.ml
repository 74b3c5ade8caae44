open Rapid_sim

type holder = { n_meet : int; updated_at : float }
type entry = { packet : Packet.t; holder_id : int; holder : holder }

(* One packet's believed holders: [ids.(i)] and [hs.(i)] for i < count,
   kept in the order [Hashtbl.fold] would visit a [Hashtbl.create 4]
   table fed the same writes (the layout this one replaced, whose fold
   order fixed the rounding of RAPID's Eq. 9 sum, which the golden
   reports pin). That order is: ascending bucket [Hashtbl.hash id land
   (nb - 1)], the newest insertion first within a bucket (an overwrite
   keeps its place). [nb] starts at 16 and doubles once the count
   exceeds [2 * nb]; the doubling re-buckets stably, so within a bucket
   the order stays newest first. A record is dropped when its last
   holder goes, so a re-learned packet starts again at 16 buckets. *)
type record = {
  packet : Packet.t;
  mutable ids : int array;
  mutable hs : holder array;
  mutable count : int;
  mutable nb : int;
}

type t = {
  (* Indexed by (dense) packet id; [absent] where nothing is stored. *)
  mutable recs : record array;
  mutable size : int;
  (* Update log in append order, as parallel arrays of (log time, packet
     id, holder id). Lets [iter_ids_since] walk only the recent suffix
     instead of scanning every record. Log times are clamped to be
     non-decreasing (gossip can carry old origin timestamps), so the
     suffix boundary is a binary search; [entry_since] re-checks the
     entry's real [updated_at], so clamping can only widen the walk, never
     lose an entry. *)
  mutable log_times : float array;
  mutable log_pids : int array;
  mutable log_hids : int array;
  mutable log_len : int;
  mutable log_newest : float;
}

(* Bound on log length: beyond it the oldest deltas are discarded, so a
   peer that has not exchanged for a very long time receives a truncated
   (bounded-staleness) delta instead of the full history. This keeps
   memory and per-contact work proportional to recent activity. *)
let max_log = 8_000

let no_holder = { n_meet = -1; updated_at = neg_infinity }

(* Shared by every empty slot and never written: its count of 0 makes
   every read of an unknown packet fall through without a branch. *)
let absent =
  {
    packet =
      { Packet.id = -1; src = 0; dst = 0; size = 0; created = 0.0;
        deadline = None };
    ids = [||];
    hs = [||];
    count = 0;
    nb = 16;
  }

let create () =
  {
    recs = [||];
    size = 0;
    log_times = [||];
    log_pids = [||];
    log_hids = [||];
    log_len = 0;
    log_newest = neg_infinity;
  }

let rec_of t packet_id =
  if packet_id >= 0 && packet_id < Array.length t.recs then
    Array.unsafe_get t.recs packet_id
  else absent

let log_update t ~time ~packet_id ~holder_id =
  let time = Float.max time t.log_newest in
  t.log_newest <- time;
  let cap = Array.length t.log_times in
  if t.log_len = cap then begin
    let grow a fill =
      let g = Array.make (max 64 (2 * cap)) fill in
      Array.blit a 0 g 0 t.log_len;
      g
    in
    t.log_times <- grow t.log_times 0.0;
    t.log_pids <- grow t.log_pids 0;
    t.log_hids <- grow t.log_hids 0
  end;
  t.log_times.(t.log_len) <- time;
  t.log_pids.(t.log_len) <- packet_id;
  t.log_hids.(t.log_len) <- holder_id;
  t.log_len <- t.log_len + 1;
  if t.log_len > 2 * max_log then begin
    (* Amortized truncation: keep the newest half. *)
    let src = t.log_len - max_log in
    Array.blit t.log_times src t.log_times 0 max_log;
    Array.blit t.log_pids src t.log_pids 0 max_log;
    Array.blit t.log_hids src t.log_hids 0 max_log;
    t.log_len <- max_log
  end

let record_of t (packet : Packet.t) =
  let id = packet.Packet.id in
  let cap = Array.length t.recs in
  if id >= cap then begin
    let n = max 256 (2 * (id + 1)) in
    let recs = Array.make n absent in
    Array.blit t.recs 0 recs 0 cap;
    t.recs <- recs
  end;
  let r = t.recs.(id) in
  if r != absent then r
  else begin
    let r =
      { packet; ids = Array.make 4 0; hs = Array.make 4 no_holder; count = 0;
        nb = 16 }
    in
    t.recs.(id) <- r;
    r
  end

let index_of r holder_id =
  let i = ref 0 in
  while !i < r.count && Array.unsafe_get r.ids !i <> holder_id do
    incr i
  done;
  if !i < r.count then !i else -1

let bucket nb id = Hashtbl.hash id land (nb - 1)

(* A new holder goes first in its bucket. Past [2 * nb] holders the
   buckets double and an insertion sort (stable) re-buckets them. *)
let insert t r holder_id h =
  let n = r.count in
  if n = Array.length r.ids then begin
    let ids = Array.make (2 * n) 0 and hs = Array.make (2 * n) no_holder in
    Array.blit r.ids 0 ids 0 n;
    Array.blit r.hs 0 hs 0 n;
    r.ids <- ids;
    r.hs <- hs
  end;
  let b = bucket r.nb holder_id in
  let i = ref 0 in
  while !i < n && bucket r.nb r.ids.(!i) < b do
    incr i
  done;
  let i = !i in
  Array.blit r.ids i r.ids (i + 1) (n - i);
  Array.blit r.hs i r.hs (i + 1) (n - i);
  r.ids.(i) <- holder_id;
  r.hs.(i) <- h;
  r.count <- n + 1;
  t.size <- t.size + 1;
  if r.count > 2 * r.nb then begin
    let nb = 2 * r.nb in
    r.nb <- nb;
    for j = 1 to r.count - 1 do
      let id = r.ids.(j) and h = r.hs.(j) in
      let b = bucket nb id in
      let k = ref j in
      while !k > 0 && bucket nb r.ids.(!k - 1) > b do
        r.ids.(!k) <- r.ids.(!k - 1);
        r.hs.(!k) <- r.hs.(!k - 1);
        decr k
      done;
      r.ids.(!k) <- id;
      r.hs.(!k) <- h
    done
  end

let set_holder t ~packet ~holder_id ~n_meet ~now =
  let r = record_of t packet in
  let h = { n_meet; updated_at = now } in
  let i = index_of r holder_id in
  if i >= 0 then r.hs.(i) <- h else insert t r holder_id h;
  log_update t ~time:now ~packet_id:packet.Packet.id ~holder_id

let merge t ~packet ~holder_id ~holder =
  let r = record_of t packet in
  let i = index_of r holder_id in
  if i >= 0 && r.hs.(i).updated_at >= holder.updated_at then false
  else begin
    if i >= 0 then r.hs.(i) <- holder else insert t r holder_id holder;
    log_update t ~time:holder.updated_at ~packet_id:packet.Packet.id ~holder_id;
    true
  end

let remove_holder t ~packet_id ~holder_id =
  let r = rec_of t packet_id in
  let i = index_of r holder_id in
  if i >= 0 then begin
    let n = r.count - 1 in
    Array.blit r.ids (i + 1) r.ids i (n - i);
    Array.blit r.hs (i + 1) r.hs i (n - i);
    r.hs.(n) <- no_holder;
    r.count <- n;
    t.size <- t.size - 1;
    if n = 0 then t.recs.(packet_id) <- absent
  end

let remove_packet t ~packet_id =
  let r = rec_of t packet_id in
  if r != absent then begin
    t.size <- t.size - r.count;
    t.recs.(packet_id) <- absent
  end

let holders t ~packet_id =
  let r = rec_of t packet_id in
  List.init r.count (fun i -> (r.ids.(i), r.hs.(i)))
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let fold_holders t ~packet_id ~init ~f =
  let r = rec_of t packet_id in
  let acc = ref init in
  for i = 0 to r.count - 1 do
    acc := f !acc r.ids.(i) r.hs.(i)
  done;
  !acc

let holder_count t ~packet_id = (rec_of t packet_id).count

let check_index r i =
  if i < 0 || i >= r.count then invalid_arg "Replica_db: holder index"

let holder_id_at t ~packet_id i =
  let r = rec_of t packet_id in
  check_index r i;
  Array.unsafe_get r.ids i

let n_meet_at t ~packet_id i =
  let r = rec_of t packet_id in
  check_index r i;
  (Array.unsafe_get r.hs i).n_meet

let n_meet t ~packet_id ~holder_id =
  let r = rec_of t packet_id in
  let i = index_of r holder_id in
  if i >= 0 then r.hs.(i).n_meet else -1

(* First log index with time > threshold (times are non-decreasing). *)
let suffix_start t threshold =
  let lo = ref 0 and hi = ref t.log_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.log_times.(mid) <= threshold then lo := mid + 1 else hi := mid
  done;
  !lo

let iter_ids_since t threshold f =
  for i = suffix_start t threshold to t.log_len - 1 do
    f ~packet_id:(Array.unsafe_get t.log_pids i)
      ~holder_id:(Array.unsafe_get t.log_hids i)
  done

let entry_since t threshold ~packet_id ~holder_id =
  let r = rec_of t packet_id in
  let i = index_of r holder_id in
  if i >= 0 && r.hs.(i).updated_at > threshold then
    Some { packet = r.packet; holder_id; holder = r.hs.(i) }
  else None

let size t = t.size
