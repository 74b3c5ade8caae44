open Rapid_prelude

let c_plans = Rapid_obs.Counter.create "send_queue.plans"

let by_age (x : Buffer.entry) (y : Buffer.entry) =
  match Float.compare x.packet.Packet.created y.packet.Packet.created with
  | 0 -> Int.compare x.packet.Packet.id y.packet.Packet.id
  | n -> n

(* One planned direction. [packets.(cursor..len-1)] is the tail still to
   offer; slots before [cursor] were served or discarded for good (old
   packets are never re-offered within a contact, which also covers
   storage refusals, and the byte budget only shrinks, so a packet too
   big now never fits later). Nothing tracks what happened to the tail
   since the plan: every pop checks the packet it is about to serve. *)
type dir = {
  mutable sender : int;
  mutable receiver : int;
  mutable check_peer : bool;
  mutable sender_buf : Buffer.t;
  mutable packets : Packet.t array;
  mutable len : int;
  mutable cursor : int;
  mutable planned : bool;
}

type t = {
  dirs : dir array;
  mutable current : int;  (* dir being planned, -1 outside begin/finish *)
  scratch : Buffer.entry Sortbuf.t;
}

let make_dir () =
  {
    sender = -1;
    receiver = -1;
    check_peer = true;
    sender_buf = Buffer.create ~capacity:None;
    packets = [||];
    len = 0;
    cursor = 0;
    planned = false;
  }

let create () =
  { dirs = [| make_dir (); make_dir () |]; current = -1; scratch = Sortbuf.create () }

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
  d.len <- 0;
  d.cursor <- 0;
  t.current <- slot

let current_dir t =
  if t.current < 0 then invalid_arg "Send_queue: no plan in progress";
  t.dirs.(t.current)

let push t (p : Packet.t) =
  let d = current_dir t in
  let cap = Array.length d.packets in
  if d.len = cap then begin
    let grown = Array.make (max 16 (2 * cap)) p in
    Array.blit d.packets 0 grown 0 d.len;
    d.packets <- grown
  end;
  d.packets.(d.len) <- p;
  d.len <- d.len + 1

(* Sort a segment with the shared scratch and append it. [cmp] must be a
   total order (the arena's heapsort is not stable; every protocol breaks
   ties on packet id). *)
let push_entries t ~cmp entries =
  let buf = t.scratch in
  Sortbuf.clear buf;
  List.iter (fun (e : Buffer.entry) -> Sortbuf.push buf e) entries;
  Sortbuf.sort buf ~cmp;
  Sortbuf.iteri buf (fun _ (e : Buffer.entry) -> push t e.Buffer.packet)

let finish_plan t =
  let d = current_dir t in
  d.planned <- true;
  t.current <- -1;
  Rapid_obs.Counter.incr c_plans

let find_dir t ~sender ~receiver =
  let matches (d : dir) =
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
      let served = ref None in
      while Option.is_none !served && d.cursor < d.len do
        let p = d.packets.(d.cursor) in
        d.cursor <- d.cursor + 1;
        if
          p.Packet.size <= budget
          && Buffer.mem d.sender_buf p.Packet.id
          && not (d.check_peer && Env.has_packet env ~node:d.receiver ~packet:p)
        then served := Some p
      done;
      !served

let candidates (env : Env.t) ~sender ~receiver =
  Buffer.fold_unordered env.Env.buffers.(sender) ~init:[]
    ~f:(fun acc (e : Buffer.entry) ->
      if Env.has_packet env ~node:receiver ~packet:e.packet then acc
      else e :: acc)
