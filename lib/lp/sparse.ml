type t = {
  m : int;
  n : int;
  colptr : int array;
  rowind : int array;
  values : float array;
}

let of_arrays ~m ~n ~rows ~cols ~vals =
  let k = Array.length rows in
  if Array.length cols <> k || Array.length vals <> k then
    invalid_arg "Sparse.of_arrays";
  (* Canonical order: column-major, rows ascending, via a permutation so
     the caller's arrays stay untouched. Coalescing duplicates here keeps
     every downstream kernel free of repeated-cell special cases. *)
  let perm = Array.init k (fun i -> i) in
  Array.sort
    (fun i1 i2 ->
      if cols.(i1) <> cols.(i2) then compare cols.(i1) cols.(i2)
      else if rows.(i1) <> rows.(i2) then compare rows.(i1) rows.(i2)
      else compare i1 i2)
    perm;
  let count = ref 0 in
  for e = 0 to k - 1 do
    let i = perm.(e) in
    if rows.(i) < 0 || rows.(i) >= m || cols.(i) < 0 || cols.(i) >= n then
      invalid_arg "Sparse.of_arrays";
    if
      e = 0
      ||
      let p = perm.(e - 1) in
      rows.(p) <> rows.(i) || cols.(p) <> cols.(i)
    then incr count
  done;
  let colptr = Array.make (n + 1) 0 in
  let rowind = Array.make !count 0 in
  let values = Array.make !count 0.0 in
  let out = ref (-1) in
  for e = 0 to k - 1 do
    let i = perm.(e) in
    let fresh =
      e = 0
      ||
      let p = perm.(e - 1) in
      rows.(p) <> rows.(i) || cols.(p) <> cols.(i)
    in
    if fresh then begin
      incr out;
      rowind.(!out) <- rows.(i);
      values.(!out) <- vals.(i);
      colptr.(cols.(i) + 1) <- colptr.(cols.(i) + 1) + 1
    end
    else values.(!out) <- values.(!out) +. vals.(i)
  done;
  for c = 1 to n do
    colptr.(c) <- colptr.(c) + colptr.(c - 1)
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
