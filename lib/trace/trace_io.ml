let to_string (t : Trace.t) =
  let buf = Buffer.create (64 + (32 * Array.length t.contacts)) in
  Buffer.add_string buf "rapid-trace 1\n";
  Buffer.add_string buf (Printf.sprintf "nodes %d\n" t.num_nodes);
  Buffer.add_string buf (Printf.sprintf "duration %.6f\n" t.duration);
  Buffer.add_string buf "active";
  Array.iter (fun i -> Buffer.add_string buf (Printf.sprintf " %d" i)) t.active;
  Buffer.add_char buf '\n';
  Array.iter
    (fun (c : Contact.t) ->
      Buffer.add_string buf
        (Printf.sprintf "contact %.6f %d %d %d\n" c.time c.a c.b c.bytes))
    t.contacts;
  Buffer.contents buf

let fail_line n msg = failwith (Printf.sprintf "Trace_io: line %d: %s" n msg)

let of_string s =
  let lines = String.split_on_char '\n' s in
  let nodes = ref None in
  let duration = ref None in
  let active = ref None in
  (* Records are checked against [nodes] and [duration] once both are
     known, so each keeps its line number for the message. *)
  let contacts = ref [] in
  let saw_header = ref false in
  List.iteri
    (fun idx line ->
      let n = idx + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "rapid-trace"; "1" ] -> saw_header := true
        | [ "nodes"; v ] -> (
            match int_of_string_opt v with
            | Some v when v > 0 -> nodes := Some v
            | _ -> fail_line n "bad node count")
        | [ "duration"; v ] -> (
            match float_of_string_opt v with
            | Some v when Float.is_finite v && v > 0.0 -> duration := Some v
            | _ -> fail_line n "bad duration")
        | "active" :: ids ->
            let parse v =
              match int_of_string_opt v with
              | Some v -> v
              | None -> fail_line n "bad active id"
            in
            active := Some (n, List.map parse ids)
        | [ "contact"; time; a; b; bytes ] -> (
            match
              ( float_of_string_opt time,
                int_of_string_opt a,
                int_of_string_opt b,
                int_of_string_opt bytes )
            with
            | Some time, Some a, Some b, Some bytes -> (
                match Contact.make ~time ~a ~b ~bytes with
                | c -> contacts := (n, c) :: !contacts
                | exception Invalid_argument msg -> fail_line n msg)
            | _ -> fail_line n "bad contact record")
        | _ -> fail_line n (Printf.sprintf "unrecognized record %S" line)
      end)
    lines;
  if not !saw_header then failwith "Trace_io: missing rapid-trace header";
  match (!nodes, !duration) with
  | Some num_nodes, Some duration ->
      let node_ok i = i >= 0 && i < num_nodes in
      let active =
        Option.map
          (fun (n, ids) ->
            if not (List.for_all node_ok ids) then
              fail_line n "active id out of range";
            ids)
          !active
      in
      let contacts =
        List.rev_map
          (fun (n, (c : Contact.t)) ->
            if not (node_ok c.a && node_ok c.b) then
              fail_line n "contact node id out of range";
            if c.time > duration then fail_line n "contact after duration";
            c)
          !contacts
      in
      Trace.create ~num_nodes ~duration ?active contacts
  | None, _ -> failwith "Trace_io: missing nodes record"
  | _, None -> failwith "Trace_io: missing duration record"

let save path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string t))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string (really_input_string ic len))
