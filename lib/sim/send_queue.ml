open Rapid_prelude

let c_plans = Rapid_obs.Counter.create "send_queue.plans"
let c_replans = Rapid_obs.Counter.create "send_queue.replans"

(* One planned direction. [packets.(cursor..len-1)] is the tail still to
   offer; slots before [cursor] were served or discarded for good (old
   packets are never re-offered within a contact, which also covers
   storage refusals, and the byte budget only shrinks, so a packet too
   big now never fits later).

   Validity tracking: while the sender buffer's removal counter stands
   still, no planned packet can have left the buffer, so the tail is
   served without membership checks. When it moves, either the single
   removal is provably [last_served] (the common delivery / single-copy
   forward case, O(1) to recognise) or the tail is re-filtered — a
   replan. The receiver-side "peer already has it" check participates in
   the re-filter, matching the per-pop validation it replaces; within a
   contact the receiver can only gain a planned packet by being sent it,
   which retires that packet from the plan, so the check is belt and
   braces rather than load-bearing. *)
type dir = {
  mutable sender : int;
  mutable receiver : int;
  mutable check_peer : bool;
  mutable sender_buf : Buffer.t;
  mutable packets : Packet.t array;
  mutable len : int;
  mutable cursor : int;
  mutable removals_seen : int;
  (* Packet served since [removals_seen] was last brought up to date;
     -1 when that slot is empty. Only such a packet can explain away a
     single removal without a re-filter. *)
  mutable last_served : int;
  (* check_peer=false mode (the Random baseline without summary
     vectors): once a removal happens, fall back to per-pop membership
     checks — an evicted packet can legally reappear at the sender via a
     duplicate push and must then still be offered. *)
  mutable validate_pops : bool;
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
    removals_seen = 0;
    last_served = -1;
    validate_pops = false;
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
  d.last_served <- -1;
  d.validate_pops <- false;
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
  d.removals_seen <- Buffer.removals d.sender_buf;
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

let revalidate (env : Env.t) (d : dir) =
  let rem = Buffer.removals d.sender_buf in
  if rem <> d.removals_seen then begin
    if not d.check_peer then begin
      (* See [validate_pops]: eager tail filtering would wrongly retire a
         packet that gets pushed back before its turn. *)
      d.validate_pops <- true;
      d.removals_seen <- rem;
      d.last_served <- -1
    end
    else if
      rem = d.removals_seen + 1
      && d.last_served >= 0
      && not (Buffer.mem d.sender_buf d.last_served)
    then begin
      (* Exactly one removal since the last sync, and the packet we just
         served is gone: that removal was the served packet (it was
         present when served), so the tail is untouched. *)
      d.removals_seen <- rem;
      d.last_served <- -1
    end
    else begin
      Rapid_obs.Counter.incr c_replans;
      let w = ref d.cursor in
      for i = d.cursor to d.len - 1 do
        let p = d.packets.(i) in
        if
          Buffer.mem d.sender_buf p.Packet.id
          && not (Env.has_packet env ~node:d.receiver ~packet:p)
        then begin
          d.packets.(!w) <- p;
          incr w
        end
      done;
      d.len <- !w;
      d.removals_seen <- rem;
      d.last_served <- -1
    end
  end

let next t (env : Env.t) ~sender ~receiver ~budget =
  match find_dir t ~sender ~receiver with
  | None -> None
  | Some d ->
      revalidate env d;
      let rec serve () =
        if d.cursor >= d.len then None
        else begin
          let p = d.packets.(d.cursor) in
          d.cursor <- d.cursor + 1;
          if
            p.Packet.size <= budget
            && ((not d.validate_pops) || Buffer.mem d.sender_buf p.Packet.id)
          then begin
            d.last_served <- p.Packet.id;
            Some p
          end
          else serve ()
        end
      in
      serve ()

let candidates (env : Env.t) ~sender ~receiver =
  Buffer.fold_unordered env.Env.buffers.(sender) ~init:[]
    ~f:(fun acc (e : Buffer.entry) ->
      if Env.has_packet env ~node:receiver ~packet:e.packet then acc
      else e :: acc)
