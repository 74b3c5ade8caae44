open Rapid_prelude

type config = {
  seed : int;
  reboots_per_node : float;
  truncate_prob : float;
  meta_drop_prob : float;
  contact_drop_prob : float;
}

let none =
  {
    seed = 0;
    reboots_per_node = 0.0;
    truncate_prob = 0.0;
    meta_drop_prob = 0.0;
    contact_drop_prob = 0.0;
  }

let is_none c =
  c.reboots_per_node <= 0.0
  && c.truncate_prob <= 0.0
  && c.meta_drop_prob <= 0.0
  && c.contact_drop_prob <= 0.0

let spec_string c =
  Printf.sprintf "reboots=%g,truncate=%g,metaloss=%g,noshow=%g,seed=%d"
    c.reboots_per_node c.truncate_prob c.meta_drop_prob c.contact_drop_prob
    c.seed

let parse s =
  let s = String.trim s in
  if s = "" then Ok none
  else begin
    let ( let* ) = Result.bind in
    let rate k v =
      match float_of_string_opt v with
      | Some f when Float.is_finite f && f >= 0.0 -> Ok f
      | _ ->
          Error
            (Printf.sprintf "faults: %s wants a finite rate >= 0, got %S" k v)
    in
    let prob k v =
      match float_of_string_opt v with
      | Some f when f >= 0.0 && f <= 1.0 -> Ok f
      | _ ->
          Error
            (Printf.sprintf "faults: %s wants a probability in [0,1], got %S" k
               v)
    in
    let rec go cfg = function
      | [] -> Ok cfg
      | kv :: rest -> (
          match String.index_opt kv '=' with
          | None ->
              Error (Printf.sprintf "faults: %S is not of the form key=value" kv)
          | Some i ->
              let k = String.trim (String.sub kv 0 i) in
              let v =
                String.trim (String.sub kv (i + 1) (String.length kv - i - 1))
              in
              let* cfg =
                match k with
                | "reboots" ->
                    let* f = rate k v in
                    Ok { cfg with reboots_per_node = f }
                | "truncate" ->
                    let* p = prob k v in
                    Ok { cfg with truncate_prob = p }
                | "metaloss" ->
                    let* p = prob k v in
                    Ok { cfg with meta_drop_prob = p }
                | "noshow" ->
                    let* p = prob k v in
                    Ok { cfg with contact_drop_prob = p }
                | "seed" -> (
                    match int_of_string_opt v with
                    | Some n -> Ok { cfg with seed = n }
                    | None ->
                        Error
                          (Printf.sprintf "faults: seed wants an integer, got %S"
                             v))
                | _ ->
                    Error
                      (Printf.sprintf
                         "faults: unknown key %S (want \
                          reboots/truncate/metaloss/noshow/seed)"
                         k)
              in
              go cfg rest)
    in
    go none (String.split_on_char ',' s)
  end

(* Counters are registered on first use so a process that never injects
   faults emits exactly the counter set it did before this module existed —
   [Counter.to_json] dumps every registered counter, and figure/run JSON
   byte-identity at fault-rate 0 depends on not adding rows to it.

   First use can happen on several pool domains at once under --jobs, so
   the record is published through an [Atomic] rather than a [lazy] (which
   raises [CamlinternalLazy.Undefined] when two domains force it
   together). A race only builds the record twice: [Counter.create] is
   idempotent by name under its own lock, so both copies hold the same
   counters. *)

type counters = {
  reboots : Rapid_obs.Counter.t;
  reboot_lost_packets : Rapid_obs.Counter.t;
  contacts_suppressed : Rapid_obs.Counter.t;
  contacts_truncated : Rapid_obs.Counter.t;
  truncated_bytes_lost : Rapid_obs.Counter.t;
  meta_drops : Rapid_obs.Counter.t;
}

let registered : counters option Atomic.t = Atomic.make None

let counters () =
  match Atomic.get registered with
  | Some c -> c
  | None ->
      let c name = Rapid_obs.Counter.create ("faults." ^ name) in
      let record =
        {
          reboots = c "reboots";
          reboot_lost_packets = c "reboot_lost_packets";
          contacts_suppressed = c "contacts_suppressed";
          contacts_truncated = c "contacts_truncated";
          truncated_bytes_lost = c "truncated_bytes_lost";
          meta_drops = c "meta_drops";
        }
      in
      Atomic.set registered (Some record);
      record

let register_counters () = ignore (counters ())

let note_reboot ~lost =
  let c = counters () in
  Rapid_obs.Counter.incr c.reboots;
  Rapid_obs.Counter.add c.reboot_lost_packets lost

let note_contact_suppressed () =
  Rapid_obs.Counter.incr (counters ()).contacts_suppressed

let note_contact_truncated ~lost_bytes =
  let c = counters () in
  Rapid_obs.Counter.incr c.contacts_truncated;
  Rapid_obs.Counter.add c.truncated_bytes_lost lost_bytes

let note_meta_drop () = Rapid_obs.Counter.incr (counters ()).meta_drops

type plan = {
  active : bool;
  skip : bool array;
  capacity : int array;  (* -1 = not truncated *)
  meta_ok : bool array;
  reboot_schedule : (float * int) array;
}

let null_plan =
  {
    active = false;
    skip = [||];
    capacity = [||];
    meta_ok = [||];
    reboot_schedule = [||];
  }

let plan config ~run_seed ~trace =
  if is_none config then null_plan
  else begin
    register_counters ();
    let open Rapid_trace in
    let contacts = trace.Trace.contacts in
    let n = Array.length contacts in
    let rng = Rng.create ((config.seed * 1_000_003) + run_seed) in
    let contact_rng = Rng.split rng in
    let reboot_rng = Rng.split rng in
    let skip = Array.make n false in
    let capacity = Array.make n (-1) in
    let meta_ok = Array.make n true in
    for i = 0 to n - 1 do
      (* A fixed draw count per contact: one contact's fault realization
         never shifts the random stream seen by later contacts, so
         turning one knob perturbs only that fault model. *)
      let u_skip = Rng.float contact_rng in
      let u_trunc = Rng.float contact_rng in
      let u_frac = Rng.float contact_rng in
      let u_meta = Rng.float contact_rng in
      if u_skip < config.contact_drop_prob then skip.(i) <- true;
      if u_trunc < config.truncate_prob then
        capacity.(i) <-
          int_of_float (u_frac *. float_of_int contacts.(i).Contact.bytes);
      if u_meta < config.meta_drop_prob then meta_ok.(i) <- false
    done;
    let reboot_schedule = ref [] in
    if config.reboots_per_node > 0.0 then begin
      (* Poisson arrivals per node: exponential inter-reboot gaps with
         mean horizon / reboots_per_node. Each node gets its own split
         stream so the schedule is independent of node count ordering. *)
      let mean_gap = trace.Trace.duration /. config.reboots_per_node in
      for node = 0 to trace.Trace.num_nodes - 1 do
        let r = Rng.split reboot_rng in
        let t = ref 0.0 in
        let live = ref true in
        while !live do
          t := !t -. (mean_gap *. log (1.0 -. Rng.float r));
          if !t < trace.Trace.duration then
            reboot_schedule := (!t, node) :: !reboot_schedule
          else live := false
        done
      done
    end;
    let reboot_schedule = Array.of_list !reboot_schedule in
    Array.sort
      (fun (t1, n1) (t2, n2) ->
        match Float.compare t1 t2 with 0 -> Int.compare n1 n2 | c -> c)
      reboot_schedule;
    { active = true; skip; capacity; meta_ok; reboot_schedule }
  end

let active p = p.active
let reboots p = p.reboot_schedule
let contact_skipped p i = p.active && p.skip.(i)

let contact_capacity p i ~bytes =
  if not p.active then bytes
  else begin
    match p.capacity.(i) with -1 -> bytes | c -> min c bytes
  end

let contact_meta_ok p i = (not p.active) || p.meta_ok.(i)
