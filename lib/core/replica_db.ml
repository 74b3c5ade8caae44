open Rapid_sim

type holder = { n_meet : int; updated_at : float }
type entry = { packet : Packet.t; holder_id : int; holder : holder }

type record = { packet : Packet.t; holders : (int, holder) Hashtbl.t }

type t = {
  records : (int, record) Hashtbl.t;
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
  (* Per-packet mutation version, bumped by every write that can change a
     packet's holder set (set_holder, applied merge, remove_holder of a
     present holder, remove_packet of a known packet). Indexed by packet
     id; slots survive record removal so a forgotten-then-regossiped
     packet can never replay an old version value. Backs the believed-rate
     cache's (packet version, row version) stamp. *)
  mutable vers : int array;
}

(* Bound on log length: beyond it the oldest deltas are discarded, so a
   peer that has not exchanged for a very long time receives a truncated
   (bounded-staleness) delta instead of the full history. This keeps
   memory and per-contact work proportional to recent activity. *)
let max_log = 8_000

let create () =
  {
    records = Hashtbl.create 256;
    log_times = [||];
    log_pids = [||];
    log_hids = [||];
    log_len = 0;
    log_newest = neg_infinity;
    vers = [||];
  }

let bump_version t packet_id =
  let cap = Array.length t.vers in
  if packet_id >= cap then begin
    let g = Array.make (max 256 (2 * (packet_id + 1))) 0 in
    Array.blit t.vers 0 g 0 cap;
    t.vers <- g
  end;
  t.vers.(packet_id) <- t.vers.(packet_id) + 1

let version t ~packet_id =
  if packet_id < Array.length t.vers then t.vers.(packet_id) else 0

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
  match Hashtbl.find_opt t.records packet.Packet.id with
  | Some r -> r
  | None ->
      let r = { packet; holders = Hashtbl.create 4 } in
      Hashtbl.replace t.records packet.Packet.id r;
      r

let set_holder t ~packet ~holder_id ~n_meet ~now =
  let r = record_of t packet in
  Hashtbl.replace r.holders holder_id { n_meet; updated_at = now };
  bump_version t packet.Packet.id;
  log_update t ~time:now ~packet_id:packet.Packet.id ~holder_id

let merge t ~packet ~holder_id ~holder =
  let r = record_of t packet in
  match Hashtbl.find_opt r.holders holder_id with
  | Some existing when existing.updated_at >= holder.updated_at -> false
  | Some _ | None ->
      Hashtbl.replace r.holders holder_id holder;
      bump_version t packet.Packet.id;
      log_update t ~time:holder.updated_at ~packet_id:packet.Packet.id ~holder_id;
      true

let remove_holder t ~packet_id ~holder_id =
  match Hashtbl.find_opt t.records packet_id with
  | None -> ()
  | Some r ->
      if Hashtbl.mem r.holders holder_id then begin
        Hashtbl.remove r.holders holder_id;
        bump_version t packet_id;
        if Hashtbl.length r.holders = 0 then Hashtbl.remove t.records packet_id
      end

let remove_packet t ~packet_id =
  if Hashtbl.mem t.records packet_id then begin
    Hashtbl.remove t.records packet_id;
    bump_version t packet_id
  end

let holders t ~packet_id =
  match Hashtbl.find_opt t.records packet_id with
  | None -> []
  | Some r ->
      Hashtbl.fold (fun id h acc -> (id, h) :: acc) r.holders []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let fold_holders t ~packet_id ~init ~f =
  match Hashtbl.find_opt t.records packet_id with
  | None -> init
  | Some r -> Hashtbl.fold (fun id h acc -> f acc id h) r.holders init

let holder_count t ~packet_id =
  match Hashtbl.find_opt t.records packet_id with
  | None -> 0
  | Some r -> Hashtbl.length r.holders

let find_holder t ~packet_id ~holder_id =
  match Hashtbl.find_opt t.records packet_id with
  | None -> None
  | Some r -> Hashtbl.find_opt r.holders holder_id

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
  match Hashtbl.find_opt t.records packet_id with
  | None -> None (* forgotten (acked) *)
  | Some r -> (
      match Hashtbl.find_opt r.holders holder_id with
      | Some holder when holder.updated_at > threshold ->
          Some { packet = r.packet; holder_id; holder }
      | Some _ | None -> None)

let size t =
  Hashtbl.fold (fun _ r acc -> acc + Hashtbl.length r.holders) t.records 0
