open Rapid_prelude

let c_plans = Rapid_obs.Counter.create "send_queue.plans"

let by_age (x : Buffer.entry) (y : Buffer.entry) =
  match Float.compare x.packet.Packet.created y.packet.Packet.created with
  | 0 -> Int.compare x.packet.Packet.id y.packet.Packet.id
  | n -> n

(* A segment: [left] items not yet offered, [pop] takes the next in its
   order (a FIFO run of plain pushes, or a heap in an arena). *)
type seg = { fifo : bool; mutable left : int; pop : unit -> Packet.t }

(* One planned direction: arenas for plain pushes, entry segments and
   decorated items, reused from contact to contact; the segments left to
   serve, in push order (reversed while planning); the smallest packet
   planned. *)
type 'a dir = {
  mutable sender : int;
  mutable receiver : int;
  mutable check_peer : bool;
  mutable sender_buf : Buffer.t;
  pkts : Packet.t Sortbuf.t;
  ents : Buffer.entry Sortbuf.t;
  items : 'a Sortbuf.t;
  mutable segs : seg list;
  mutable min_size : int;
  mutable planned : bool;
}

type 'a t = {
  dirs : 'a dir array;
  mutable current : int;  (* dir being planned, -1 outside begin/finish *)
}

let make_dir () =
  {
    sender = -1;
    receiver = -1;
    check_peer = true;
    sender_buf = Buffer.create ~capacity:None;
    pkts = Sortbuf.create ();
    ents = Sortbuf.create ();
    items = Sortbuf.create ();
    segs = [];
    min_size = max_int;
    planned = false;
  }

let create () = { dirs = [| make_dir (); make_dir () |]; current = -1 }

let begin_contact t =
  t.dirs.(0).planned <- false;
  t.dirs.(1).planned <- false;
  t.current <- -1

let begin_plan ?(check_peer = true) t (env : Env.t) ~sender ~receiver =
  let slot = if t.dirs.(0).planned then 1 else 0 in
  let d = t.dirs.(slot) in
  d.sender <- sender;
  d.receiver <- receiver;
  d.check_peer <- check_peer;
  d.sender_buf <- env.Env.buffers.(sender);
  Sortbuf.clear d.pkts;
  Sortbuf.clear d.ents;
  Sortbuf.clear d.items;
  d.segs <- [];
  d.min_size <- max_int;
  t.current <- slot

let current_dir t =
  if t.current < 0 then invalid_arg "Send_queue: no plan in progress";
  t.dirs.(t.current)

let note_size d (p : Packet.t) = d.min_size <- Int.min d.min_size p.Packet.size

let push t (p : Packet.t) =
  let d = current_dir t in
  (match d.segs with
  | s :: _ when s.fifo -> s.left <- s.left + 1
  | _ ->
      let next = ref (Sortbuf.length d.pkts) in
      let pop () =
        incr next;
        Sortbuf.get d.pkts (!next - 1)
      in
      d.segs <- { fifo = true; left = 1; pop } :: d.segs);
  Sortbuf.push d.pkts p;
  note_size d p

(* Append [add]'s items to [arena] as one heap segment, popped smallest
   first: Sortbuf's heaps keep the greatest at the root, so under the
   reversed comparator. *)
let push_heap d arena ~cmp ~packet add =
  let lo = Sortbuf.length arena in
  add ();
  let hi = ref (Sortbuf.length arena) in
  if !hi > lo then begin
    let cmp x y = cmp y x in
    Sortbuf.heapify arena ~cmp ~lo ~hi:!hi;
    let pop () =
      decr hi;
      packet (Sortbuf.pop arena ~cmp ~lo ~hi:(!hi + 1))
    in
    d.segs <- { fifo = false; left = !hi - lo; pop } :: d.segs
  end

let push_entries t ~cmp entries =
  let d = current_dir t in
  push_heap d d.ents ~cmp ~packet:(fun (e : Buffer.entry) -> e.packet) (fun () ->
      List.iter
        (fun (e : Buffer.entry) ->
          Sortbuf.push d.ents e;
          note_size d e.packet)
        entries)

let push_items t ~cmp ~packet iter =
  let d = current_dir t in
  push_heap d d.items ~cmp ~packet (fun () ->
      iter (fun x ->
          Sortbuf.push d.items x;
          note_size d (packet x)))

let finish_plan t =
  let d = current_dir t in
  d.segs <- List.rev d.segs;
  d.planned <- true;
  t.current <- -1;
  Rapid_obs.Counter.incr c_plans

let find_dir t ~sender ~receiver =
  let matches (d : _ dir) =
    d.planned && d.sender = sender && d.receiver = receiver
  in
  if matches t.dirs.(0) then Some t.dirs.(0)
  else if matches t.dirs.(1) then Some t.dirs.(1)
  else None

(* A loop, not a recursive closure: a local closure over [d] and [budget]
   would be allocated on every call. *)
let next t (env : Env.t) ~sender ~receiver ~budget =
  match find_dir t ~sender ~receiver with
  | None -> None
  | Some d ->
      (* Every packet left is bigger than the budget, which only shrinks
         within a contact: each would be discarded for good. *)
      if budget < d.min_size then d.segs <- [];
      let served = ref None and more = ref true in
      while !more do
        match d.segs with
        | [] -> more := false
        | s :: rest when s.left = 0 -> d.segs <- rest
        | s :: _ ->
            s.left <- s.left - 1;
            let p = s.pop () in
            if
              p.Packet.size <= budget
              && Buffer.mem d.sender_buf p.Packet.id
              && not (d.check_peer && Env.has_packet env ~node:d.receiver ~packet:p)
            then begin
              served := Some p;
              more := false
            end
      done;
      !served

let candidates (env : Env.t) ~sender ~receiver =
  Buffer.fold_unordered env.Env.buffers.(sender) ~init:[]
    ~f:(fun acc (e : Buffer.entry) ->
      if Env.has_packet env ~node:receiver ~packet:e.packet then acc
      else e :: acc)
