type t = {
  m : int;
  n : int;
  colptr : int array;
  rowind : int array;
  values : float array;
}

let create ~m ~n ~colptr ~rowind ~values =
  let bad () = invalid_arg "Sparse.create" in
  if Array.length colptr <> n + 1 || colptr.(0) <> 0 then bad ();
  let k = colptr.(n) in
  if Array.length rowind <> k || Array.length values <> k then bad ();
  for j = 0 to n - 1 do
    if colptr.(j + 1) < colptr.(j) || colptr.(j + 1) > k then bad ();
    for e = colptr.(j) to colptr.(j + 1) - 1 do
      let i = rowind.(e) in
      if i < 0 || i >= m || (e > colptr.(j) && i <= rowind.(e - 1)) then
        bad ()
    done
  done;
  { m; n; colptr; rowind; values }

let transpose t =
  let colptr = Array.make (t.m + 1) 0 in
  let k = t.colptr.(t.n) in
  for i = 0 to k - 1 do
    let r = t.rowind.(i) in
    colptr.(r + 1) <- colptr.(r + 1) + 1
  done;
  for r = 1 to t.m do
    colptr.(r) <- colptr.(r) + colptr.(r - 1)
  done;
  let cursor = Array.copy colptr in
  let rowind = Array.make k 0 in
  let values = Array.make k 0.0 in
  for c = 0 to t.n - 1 do
    for i = t.colptr.(c) to t.colptr.(c + 1) - 1 do
      let r = t.rowind.(i) in
      let dst = cursor.(r) in
      cursor.(r) <- dst + 1;
      rowind.(dst) <- c;
      values.(dst) <- t.values.(i)
    done
  done;
  { m = t.n; n = t.m; colptr; rowind; values }

let iter_col t j f =
  for i = t.colptr.(j) to t.colptr.(j + 1) - 1 do
    f t.rowind.(i) t.values.(i)
  done

let col_nnz t j = t.colptr.(j + 1) - t.colptr.(j)
