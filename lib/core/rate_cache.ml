(* Incremental believed-rate cache (Eq. 9 hot path).

   The total delivery rate R of a packet as seen by one observer is a
   pure function of two inputs: the packet's believed holder set in the
   observer's replica DB, and the meeting-matrix h-hop row keyed on the
   packet's destination. Both carry cheap versions (Replica_db.version,
   Meeting_matrix.row_version), so a computed rate is stamped with the
   pair and reused until either input actually moves.

   Storage is flat and reused: per observer, three parallel growable
   arrays indexed by (dense) packet id. A stamp of -1 marks an empty
   slot; Replica_db versions are >= 1 for any stored packet, so no live
   stamp collides with it. *)

type t = {
  mutable pkt_ver : int array array; (* observer -> packet id -> stamp *)
  mutable row_ver : int array array;
  mutable rate : float array array;
}

(* Hit/miss accounting registers lazily: the obs counters are created
   only when a harness opts in (the bench does, at startup), so the
   counter blocks of pinned clean-run goldens — fig3 JSON, per-protocol
   report JSONs — carry no rate_cache keys and stand byte-identical. *)
let counters :
    (Rapid_obs.Counter.t * Rapid_obs.Counter.t) option ref =
  ref None

let register_counters () =
  match !counters with
  | Some _ -> ()
  | None ->
      counters :=
        Some
          ( Rapid_obs.Counter.create "rapid.rate_cache_hits",
            Rapid_obs.Counter.create "rapid.rate_cache_misses" )

let create ~num_nodes =
  {
    pkt_ver = Array.make num_nodes [||];
    row_ver = Array.make num_nodes [||];
    rate = Array.make num_nodes [||];
  }

let find t ~observer ~packet_id ~pkt_ver ~row_ver ~rate =
  let pv = t.pkt_ver.(observer) in
  let hit =
    packet_id < Array.length pv
    && pv.(packet_id) = pkt_ver
    && t.row_ver.(observer).(packet_id) = row_ver
  in
  (match !counters with
  | Some (hits, misses) ->
      Rapid_obs.Counter.incr (if hit then hits else misses)
  | None -> ());
  if hit then rate.(0) <- t.rate.(observer).(packet_id);
  hit

let store t ~observer ~packet_id ~pkt_ver ~row_ver ~rate =
  let cap = Array.length t.pkt_ver.(observer) in
  if packet_id >= cap then begin
    let n = max 256 (2 * (packet_id + 1)) in
    let grow_int a =
      let g = Array.make n (-1) in
      Array.blit a 0 g 0 cap;
      g
    in
    t.pkt_ver.(observer) <- grow_int t.pkt_ver.(observer);
    t.row_ver.(observer) <- grow_int t.row_ver.(observer);
    let g = Array.make n 0.0 in
    Array.blit t.rate.(observer) 0 g 0 cap;
    t.rate.(observer) <- g
  end;
  t.pkt_ver.(observer).(packet_id) <- pkt_ver;
  t.row_ver.(observer).(packet_id) <- row_ver;
  t.rate.(observer).(packet_id) <- rate.(0)

let drop_observer t observer =
  (* A reboot replaces the observer's replica DB outright; its version
     sequence restarts, so every stamp for that observer is poisoned. *)
  Array.fill t.pkt_ver.(observer) 0 (Array.length t.pkt_ver.(observer)) (-1)
