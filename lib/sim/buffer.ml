type entry = { packet : Packet.t; received : float; hops : int }

(* Counts id-order sorts served by [entries], across all buffers
   (BENCH.json). *)
let c_rebuilds = Rapid_obs.Counter.create "buffer.rebuilds"

(* Dense slot array + id->slot index. [arr.(0..len-1)] are the live
   entries; removal swaps the last slot in, so add/remove are O(1) and
   iteration never touches the hash table. Unused slots may retain stale
   entry pointers (used as fill on growth) — [len] guards every read.

   [epoch] moves on every mutation and versions caches built from the
   contents (RAPID's position indexes). [ids] is [nth_by_id]'s selection
   scratch, reused call to call. *)
type t = {
  capacity : int option;
  mutable used : int;
  mutable arr : entry array;
  mutable len : int;
  slots : (int, int) Hashtbl.t;
  mutable epoch : int;
  mutable ids : int array;
  (* Live bytes per destination, maintained at add/remove/clear so
     per-destination queue totals are O(1) instead of a buffer scan. *)
  dst_bytes : (int, int) Hashtbl.t;
}

let create ~capacity =
  (match capacity with
  | Some c when c < 0 -> invalid_arg "Buffer.create: negative capacity"
  | _ -> ());
  {
    capacity;
    used = 0;
    arr = [||];
    len = 0;
    slots = Hashtbl.create 64;
    epoch = 0;
    ids = [||];
    dst_bytes = Hashtbl.create 16;
  }

let capacity t = t.capacity
let used t = t.used
let count t = t.len
let epoch t = t.epoch
let mem t id = Hashtbl.mem t.slots id

let find t id =
  match Hashtbl.find_opt t.slots id with
  | None -> None
  | Some slot -> Some t.arr.(slot)

let would_fit t size =
  match t.capacity with None -> true | Some c -> t.used + size <= c

let dst_bytes t dst =
  match Hashtbl.find_opt t.dst_bytes dst with Some b -> b | None -> 0

let add_dst_bytes t dst delta =
  Hashtbl.replace t.dst_bytes dst (dst_bytes t dst + delta)

let add t entry =
  let id = entry.packet.Packet.id in
  if mem t id then invalid_arg "Buffer.add: duplicate packet";
  if not (would_fit t entry.packet.Packet.size) then
    invalid_arg "Buffer.add: over capacity";
  let cap = Array.length t.arr in
  if t.len = cap then begin
    (* Fill with the incoming entry: slots past [len] are never read. *)
    let grown = Array.make (max 8 (2 * cap)) entry in
    Array.blit t.arr 0 grown 0 t.len;
    t.arr <- grown
  end;
  t.arr.(t.len) <- entry;
  Hashtbl.replace t.slots id t.len;
  t.len <- t.len + 1;
  t.used <- t.used + entry.packet.Packet.size;
  add_dst_bytes t entry.packet.Packet.dst entry.packet.Packet.size;
  t.epoch <- t.epoch + 1

let remove t id =
  match Hashtbl.find_opt t.slots id with
  | None -> None
  | Some slot ->
      let entry = t.arr.(slot) in
      Hashtbl.remove t.slots id;
      let last = t.len - 1 in
      if slot < last then begin
        let moved = t.arr.(last) in
        t.arr.(slot) <- moved;
        Hashtbl.replace t.slots moved.packet.Packet.id slot
      end;
      t.len <- last;
      t.used <- t.used - entry.packet.Packet.size;
      add_dst_bytes t entry.packet.Packet.dst (-entry.packet.Packet.size);
      t.epoch <- t.epoch + 1;
      Some entry

let clear t =
  if t.len = 0 then []
  else begin
    let lost = ref [] in
    for slot = t.len - 1 downto 0 do
      lost := t.arr.(slot).packet :: !lost
    done;
    Hashtbl.reset t.slots;
    Hashtbl.reset t.dst_bytes;
    t.len <- 0;
    t.used <- 0;
    t.epoch <- t.epoch + 1;
    !lost
  end

let cmp_id a b = Int.compare a.packet.Packet.id b.packet.Packet.id

let entries t =
  Rapid_obs.Counter.incr c_rebuilds;
  let sorted = Array.sub t.arr 0 t.len in
  Array.sort cmp_id sorted;
  Array.to_list sorted

let fold_unordered t ~init ~f =
  let acc = ref init in
  for slot = 0 to t.len - 1 do
    acc := f !acc t.arr.(slot)
  done;
  !acc

(* Quickselect (Hoare partition, middle pivot) over a copy of the live
   ids; ids are distinct, so the k-th smallest is unique. *)
let nth_by_id t k =
  if k < 0 || k >= t.len then invalid_arg "Buffer.nth_by_id: index out of range";
  if Array.length t.ids < t.len then t.ids <- Array.make (Array.length t.arr) 0;
  let a = t.ids in
  for slot = 0 to t.len - 1 do
    a.(slot) <- t.arr.(slot).packet.Packet.id
  done;
  let lo = ref 0 and hi = ref (t.len - 1) in
  while !lo < !hi do
    let pivot = a.((!lo + !hi) / 2) in
    let i = ref !lo and j = ref !hi in
    while !i <= !j do
      while a.(!i) < pivot do incr i done;
      while a.(!j) > pivot do decr j done;
      if !i <= !j then begin
        let x = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- x;
        incr i;
        decr j
      end
    done;
    (* [lo..j] <= pivot <= [i..hi]; anything strictly between is the pivot. *)
    if k <= !j then hi := !j
    else if k >= !i then lo := !i
    else begin
      lo := k;
      hi := k
    end
  done;
  t.arr.(Hashtbl.find t.slots a.(k))
