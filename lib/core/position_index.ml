open Rapid_prelude
open Rapid_sim

(* Shared by all of one owner's indexes. A sync stamps its buffer's ids
   [gen], then the previous order's survivors [gen + 1], so an id still
   stamped [gen] arrived since the last sync. [stamps] is indexed by
   packet id and only grows; [arrivals] and [merged] are sync scratch. *)
type scratch = {
  mutable stamps : int array;
  mutable gen : int;
  arrivals : Packet.t Sortbuf.t;
  mutable merged : Packet.t Sortbuf.t;
}

let scratch () =
  { stamps = [||]; gen = 0; arrivals = Sortbuf.create (); merged = Sortbuf.create () }

(* [pkts] is the buffer as of epoch [epoch] (-1 = never synced), sorted
   by [cmp]; [ahead.(i)] is the bytes of same-destination packets in the
   slots before [i]. Both are reused from sync to sync. *)
type t = {
  shared : scratch;
  mutable epoch : int;
  mutable pkts : Packet.t Sortbuf.t;
  mutable ahead : int array;
}

let create shared =
  { shared; epoch = -1; pkts = Sortbuf.create (); ahead = [||] }

(* Destination, then delivery order (created, then id). Ids are unique,
   so the order is total: merging two sorted runs gives the full sort. *)
let cmp (p : Packet.t) (q : Packet.t) =
  match Int.compare p.Packet.dst q.Packet.dst with
  | 0 -> (
      match Float.compare p.Packet.created q.Packet.created with
      | 0 -> Int.compare p.Packet.id q.Packet.id
      | n -> n)
  | n -> n

let stamp s (p : Packet.t) v =
  let cap = Array.length s.stamps in
  if p.Packet.id >= cap then begin
    let grown = Array.make (max (p.Packet.id + 1) (2 * cap)) 0 in
    Array.blit s.stamps 0 grown 0 cap;
    s.stamps <- grown
  end;
  s.stamps.(p.Packet.id) <- v

let sync t buffer =
  let ep = Buffer.epoch buffer in
  ep <> t.epoch
  && begin
    t.epoch <- ep;
    let s = t.shared in
    s.gen <- s.gen + 2;
    let gen = s.gen and old = t.pkts in
    Buffer.fold_unordered buffer ~init:() ~f:(fun () (e : Buffer.entry) ->
        stamp s e.packet gen);
    (* Every id of the previous order was stamped by an earlier sync, so
       it is in range. *)
    Sortbuf.iteri old (fun _ p ->
        if s.stamps.(p.Packet.id) = gen then stamp s p (gen + 1));
    let arrivals = s.arrivals in
    Sortbuf.clear arrivals;
    Buffer.fold_unordered buffer ~init:() ~f:(fun () (e : Buffer.entry) ->
        if s.stamps.(e.packet.Packet.id) = gen then Sortbuf.push arrivals e.packet);
    Sortbuf.sort arrivals ~cmp;
    (* Merge the survivors, still sorted, with the sorted arrivals. *)
    let merged = s.merged and j = ref 0 and a = Sortbuf.length arrivals in
    Sortbuf.clear merged;
    Sortbuf.iteri old (fun _ p ->
        if s.stamps.(p.Packet.id) = gen + 1 then begin
          while !j < a && cmp (Sortbuf.get arrivals !j) p < 0 do
            Sortbuf.push merged (Sortbuf.get arrivals !j);
            incr j
          done;
          Sortbuf.push merged p
        end);
    for k = !j to a - 1 do
      Sortbuf.push merged (Sortbuf.get arrivals k)
    done;
    t.pkts <- merged;
    s.merged <- old;
    let n = Sortbuf.length merged in
    if Array.length t.ahead < n then t.ahead <- Array.make (max 16 (2 * n)) 0;
    let dst = ref (-1) and acc = ref 0 in
    for i = 0 to n - 1 do
      let p = Sortbuf.get merged i in
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
