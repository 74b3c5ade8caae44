module Cumulative = struct
  type t = { mutable n : int; mutable sum : float }

  let create () = { n = 0; sum = 0.0 }

  let add t x =
    t.n <- t.n + 1;
    t.sum <- t.sum +. x

  let value t = if t.n = 0 then None else Some (t.sum /. float_of_int t.n)

  let value_or t ~default =
    if t.n = 0 then default else t.sum /. float_of_int t.n

  let count t = t.n
end

module Ewma = struct
  type t = { alpha : float; mutable v : float option }

  let create ~alpha =
    assert (alpha > 0.0 && alpha <= 1.0);
    { alpha; v = None }

  let add t x =
    match t.v with
    | None -> t.v <- Some x
    | Some v -> t.v <- Some ((t.alpha *. x) +. ((1.0 -. t.alpha) *. v))

  let value t = t.v

  let value_or t ~default =
    match t.v with Some v -> v | None -> default
end
