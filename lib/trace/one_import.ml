let fail_line n msg = failwith (Printf.sprintf "One_import: line %d: %s" n msg)

let of_string ?(bandwidth_bytes_per_sec = 250_000) s =
  let ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let names = ref [] in
  let id_of name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None ->
        let id = Hashtbl.length ids in
        Hashtbl.replace ids name id;
        names := (name, id) :: !names;
        id
  in
  (* Open intervals keyed by unordered pair: the up time and its line. *)
  let open_since : (int * int, float * int) Hashtbl.t = Hashtbl.create 16 in
  let contacts = ref [] in
  let last_time = ref 0.0 in
  (* [n] is the line blamed when the interval's byte size does not fit an
     int: the [down] line, or the [up] line of an interval still open at
     the end of the report. *)
  let close n ~a ~b ~from_time ~until =
    let span = Float.max 0.0 (until -. from_time) in
    let bytes = span *. float_of_int bandwidth_bytes_per_sec in
    if not (bytes < Float.of_int max_int) then
      fail_line n (Printf.sprintf "interval of %g s is too long" span);
    contacts :=
      Contact.make ~time:from_time ~a ~b ~bytes:(int_of_float bytes)
      :: !contacts
  in
  List.iteri
    (fun idx line ->
      let n = idx + 1 in
      let line = String.trim line in
      if line = "" || line.[0] = '#' then ()
      else begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ time; "CONN"; h1; h2; state ] -> (
            match float_of_string_opt time with
            | Some time when Float.is_finite time -> (
                if time < !last_time then fail_line n "events out of order";
                last_time := time;
                let a = id_of h1 and b = id_of h2 in
                if a = b then fail_line n "self-connection";
                let key = (min a b, max a b) in
                match String.lowercase_ascii state with
                | "up" ->
                    if Hashtbl.mem open_since key then
                      fail_line n "connection already up"
                    else Hashtbl.replace open_since key (time, n)
                | "down" -> (
                    match Hashtbl.find_opt open_since key with
                    | Some (from_time, _) ->
                        Hashtbl.remove open_since key;
                        close n ~a ~b ~from_time ~until:time
                    | None -> fail_line n "down without matching up")
                | other -> fail_line n (Printf.sprintf "unknown state %S" other))
            | Some _ | None -> fail_line n "bad timestamp")
        | _ -> fail_line n (Printf.sprintf "unrecognized record %S" line)
      end)
    (String.split_on_char '\n' s);
  (* Close dangling intervals at the last observed event. *)
  Hashtbl.iter
    (fun (a, b) (from_time, n) -> close n ~a ~b ~from_time ~until:!last_time)
    open_since;
  let num_nodes = max 1 (Hashtbl.length ids) in
  let duration = Float.max 1.0 (!last_time +. 1.0) in
  let trace = Trace.create ~num_nodes ~duration !contacts in
  (trace, List.rev !names)

let load ?bandwidth_bytes_per_sec path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let len = in_channel_length ic in
      of_string ?bandwidth_bytes_per_sec (really_input_string ic len))
