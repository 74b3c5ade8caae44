type relation = Le | Eq | Ge

type rows = {
  count : int;
  start : int array;
  col : int array;
  coef : float array;
  rel : relation array;
  rhs : float array;
}

type constr = {
  coeffs : (int * float) list;
  relation : relation;
  rhs : float;
}

(* [rows] views growable arrays that rows are appended to, so a view taken
   earlier never sees a later row, whether or not the arrays grew. *)
type t = {
  n : int;
  obj : float array;
  lb : float array;
  ub : float array;
  mutable rows : rows;
  marked : bool array;
  mutable integers : int list;  (* reversed *)
}

let create ~num_vars =
  assert (num_vars > 0);
  {
    n = num_vars;
    obj = Array.make num_vars 0.0;
    lb = Array.make num_vars 0.0;
    ub = Array.make num_vars infinity;
    rows =
      {
        count = 0;
        start = [| 0 |];
        col = [||];
        coef = [||];
        rel = [||];
        rhs = [||];
      };
    marked = Array.make num_vars false;
    integers = [];
  }

let num_vars t = t.n

let check_var t i =
  if i < 0 || i >= t.n then invalid_arg "Lp_problem: variable out of range"

let check_finite what v =
  if not (Float.is_finite v) then
    invalid_arg (Printf.sprintf "Lp_problem.%s must be finite" what)

let set_objective t coeffs =
  List.iter
    (fun (i, c) ->
      check_var t i;
      check_finite "set_objective: coefficient" c)
    coeffs;
  Array.fill t.obj 0 t.n 0.0;
  List.iter (fun (i, c) -> t.obj.(i) <- c) coeffs

(* [a] with room for [len] entries; its capacity at least doubles. *)
let grow a len fill =
  let cap = Array.length a in
  if len <= cap then a
  else begin
    let b = Array.make (Int.max len (2 * cap)) fill in
    Array.blit a 0 b 0 cap;
    b
  end

(* The row is written past the problem's last row and only becomes part
   of it at the final assignment, so a rejected term leaves no trace. *)
let add_constraint t coeffs relation rhs =
  check_finite "add_constraint: rhs" rhs;
  let r = t.rows in
  let i = r.count and e0 = r.start.(r.count) in
  let e1 = e0 + List.length coeffs in
  let r =
    {
      count = i + 1;
      start = grow r.start (i + 2) 0;
      col = grow r.col e1 0;
      coef = grow r.coef e1 0.0;
      rel = grow r.rel (i + 1) Le;
      rhs = grow r.rhs (i + 1) 0.0;
    }
  in
  List.iteri
    (fun k (j, c) ->
      check_var t j;
      check_finite "add_constraint: coefficient" c;
      r.col.(e0 + k) <- j;
      r.coef.(e0 + k) <- c)
    coeffs;
  r.start.(i + 1) <- e1;
  r.rel.(i) <- relation;
  r.rhs.(i) <- rhs;
  t.rows <- r

let set_lower t i l =
  check_var t i;
  if not (Float.is_finite l && l >= 0.0) then
    invalid_arg "Lp_problem.set_lower: lower bound must be finite and >= 0";
  t.lb.(i) <- l

let set_upper t i u =
  check_var t i;
  if not (u >= 0.0) then
    invalid_arg "Lp_problem.set_upper: upper bound must be >= 0 and not NaN";
  t.ub.(i) <- u

let bounds t = Array.init t.n (fun i -> (t.lb.(i), t.ub.(i)))

let mark_integer t i =
  check_var t i;
  if not t.marked.(i) then begin
    t.marked.(i) <- true;
    t.integers <- i :: t.integers
  end

let integer_vars t = List.rev t.integers

(* Every test below is written so that NaN fails it. *)
let certify ?(int_tol = 1e-6) t ~objective x =
  let tol = 1e-6 in
  Array.length x = t.n
  && begin
       let ok = ref true and cost = ref 0.0 and cost_mag = ref 0.0 in
       for j = 0 to t.n - 1 do
         let v = x.(j) in
         if
           not
             (v >= t.lb.(j) -. tol
             && v <= t.ub.(j) +. tol
             && ((not t.marked.(j))
                || Float.abs (v -. Float.round v) <= int_tol))
         then ok := false;
         cost := !cost +. (t.obj.(j) *. v);
         cost_mag := !cost_mag +. Float.abs (t.obj.(j) *. v)
       done;
       let r = t.rows in
       for i = 0 to r.count - 1 do
         let act = ref 0.0 and mag = ref 0.0 in
         for e = r.start.(i) to r.start.(i + 1) - 1 do
           let a = r.coef.(e) *. x.(r.col.(e)) in
           act := !act +. a;
           mag := !mag +. Float.abs a
         done;
         let d = !act -. r.rhs.(i) in
         let slack = tol *. (1.0 +. Float.abs r.rhs.(i) +. !mag) in
         let holds =
           match r.rel.(i) with
           | Le -> d <= slack
           | Ge -> d >= -.slack
           | Eq -> Float.abs d <= slack
         in
         if not holds then ok := false
       done;
       !ok && Float.abs (!cost -. objective) <= tol *. (1.0 +. !cost_mag)
     end
let objective t = Array.copy t.obj
let rows t = t.rows

let constraints t =
  let r = t.rows in
  List.init r.count (fun i ->
      let s = r.start.(i) in
      {
        coeffs =
          List.init (r.start.(i + 1) - s) (fun k ->
              (r.col.(s + k), r.coef.(s + k)));
        relation = r.rel.(i);
        rhs = r.rhs.(i);
      })
