type t = {
  num_nodes : int;
  duration : float;
  contacts : Contact.t array;
  active : int array;
}

let create ~num_nodes ~duration ?active contacts =
  if num_nodes <= 0 then invalid_arg "Trace.create: num_nodes";
  if not (Float.is_finite duration && duration > 0.0) then
    invalid_arg "Trace.create: duration";
  List.iter
    (fun (c : Contact.t) ->
      if c.a < 0 || c.a >= num_nodes || c.b < 0 || c.b >= num_nodes then
        invalid_arg "Trace.create: node id out of range";
      if c.time > duration then invalid_arg "Trace.create: contact after horizon")
    contacts;
  let contacts = Array.of_list contacts in
  Array.sort Contact.compare_by_time contacts;
  let active =
    match active with
    | Some ids ->
        List.iter
          (fun i ->
            if i < 0 || i >= num_nodes then
              invalid_arg "Trace.create: active id out of range")
          ids;
        Array.of_list (List.sort_uniq compare ids)
    | None ->
        let module S = Set.Make (Int) in
        let s =
          Array.fold_left
            (fun s (c : Contact.t) -> S.add c.a (S.add c.b s))
            S.empty contacts
        in
        Array.of_list (S.elements s)
  in
  { num_nodes; duration; contacts; active }

let num_contacts t = Array.length t.contacts

let total_capacity_bytes t =
  Array.fold_left (fun acc (c : Contact.t) -> acc + c.bytes) 0 t.contacts

let contacts_between t x y =
  Array.to_list t.contacts
  |> List.filter (fun c -> Contact.involves c x && Contact.involves c y)

let mean_pair_meetings t =
  let n = Array.length t.active in
  if n < 2 then 0.0
  else begin
    let pairs = float_of_int (n * (n - 1) / 2) in
    float_of_int (num_contacts t) /. pairs
  end

let restrict_capacity t ~f =
  let contacts =
    Array.to_list t.contacts
    |> List.map (fun c -> { c with Contact.bytes = max 0 (f c) })
  in
  create ~num_nodes:t.num_nodes ~duration:t.duration
    ~active:(Array.to_list t.active) contacts

let drop_contacts t ~keep =
  let contacts = Array.to_list t.contacts |> List.filter keep in
  create ~num_nodes:t.num_nodes ~duration:t.duration
    ~active:(Array.to_list t.active) contacts

let pp_summary fmt t =
  Format.fprintf fmt
    "@[trace: %d nodes (%d active), %.0fs horizon, %d contacts, %.1f MB capacity@]"
    t.num_nodes (Array.length t.active) t.duration (num_contacts t)
    (float_of_int (total_capacity_bytes t) /. 1e6)
