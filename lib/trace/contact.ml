type t = { time : float; a : int; b : int; bytes : int }

let make ~time ~a ~b ~bytes =
  if a = b then invalid_arg "Contact.make: self-meeting";
  if not (Float.is_finite time && time >= 0.0) then
    invalid_arg "Contact.make: time not finite and >= 0";
  if bytes < 0 then invalid_arg "Contact.make: negative size";
  { time; a; b; bytes }

let involves c x = c.a = x || c.b = x

let peer_of c x =
  if c.a = x then c.b
  else if c.b = x then c.a
  else invalid_arg "Contact.peer_of: not an endpoint"

let compare_by_time c1 c2 =
  match Float.compare c1.time c2.time with
  | 0 -> (
      match Int.compare c1.a c2.a with
      | 0 -> (
          match Int.compare c1.b c2.b with
          | 0 -> Int.compare c1.bytes c2.bytes
          | n -> n)
      | n -> n)
  | n -> n

let pp fmt c =
  Format.fprintf fmt "@[contact t=%.1f %d<->%d %dB@]" c.time c.a c.b c.bytes
