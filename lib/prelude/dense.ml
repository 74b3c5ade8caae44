module Mat = struct
  type t = { n : int; data : float array }

  let create ?(init = 0.0) n = { n; data = Array.make (n * n) init }
  let dim t = t.n
  let get t i j = t.data.((i * t.n) + j)
  let set t i j v = t.data.((i * t.n) + j) <- v
  let data t = t.data
end

module Int_mat = struct
  type t = { n : int; data : int array }

  let create ?(init = 0) n = { n; data = Array.make (n * n) init }
  let dim t = t.n
  let get t i j = t.data.((i * t.n) + j)
  let set t i j v = t.data.((i * t.n) + j) <- v
end

module Cumulative_grid = struct
  type t = { n : int; count : int array; sum : float array }

  let create n =
    { n; count = Array.make (n * n) 0; sum = Array.make (n * n) 0.0 }

  let dim t = t.n

  let add t i j x =
    let k = (i * t.n) + j in
    t.count.(k) <- t.count.(k) + 1;
    t.sum.(k) <- t.sum.(k) +. x

  let count t i j = t.count.((i * t.n) + j)
  let sums t = t.sum

  let value t i j =
    let k = (i * t.n) + j in
    if t.count.(k) = 0 then None
    else Some (t.sum.(k) /. float_of_int t.count.(k))

  let value_or t i j ~default =
    let k = (i * t.n) + j in
    if t.count.(k) = 0 then default
    else t.sum.(k) /. float_of_int t.count.(k)
end

module Scratch = struct
  type t = { mutable a : float array; mutable b : float array }

  let create () = { a = [||]; b = [||] }

  let rows t n =
    if Array.length t.a < n then begin
      t.a <- Array.make n 0.0;
      t.b <- Array.make n 0.0
    end;
    (t.a, t.b)
end
