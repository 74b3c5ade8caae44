module Counter = Rapid_obs.Counter

let c_refactor = Counter.create "lp.refactorizations"
let c_eta = Counter.create "lp.eta_updates"

exception Singular

(* Pivots smaller than this are rejected during factorization: the column
   order tries the largest remaining magnitude, so hitting the floor means
   the basis is numerically singular. *)
let tiny = 1e-11

type t = {
  m : int;
  prow : int array;  (* factor step -> original row pivoted at that step *)
  row_step : int array;  (* original row -> factor step *)
  bpos : int array;  (* factor step -> basis position (column of B) *)
  (* L: unit lower triangular in step order. Column k holds multipliers for
     original rows not yet pivoted at step k. *)
  lcol_i : int array array;
  lcol_v : float array array;
  (* U: upper triangular over step indices. Column k holds its
     above-diagonal entries (step j < k); the diagonal is split out. *)
  ucol_j : int array array;
  ucol_v : float array array;
  udiag : float array;
  (* Eta file: one product-form update per pivot since [factor]. Entry e
     acts at basis position [erow.(e)] with pivot [ediag.(e)]; its
     off-pivot coefficients live in eidx/eval.[eoff.(e), eoff.(e+1)). *)
  mutable n_etas : int;
  mutable erow : int array;
  mutable ediag : float array;
  mutable eoff : int array;
  mutable eidx : int array;
  mutable eval : float array;
  (* dense step-space scratch for the triangular solves *)
  scratch : float array;
}

let n_etas t = t.n_etas

let factor (a : Sparse.t) ~basis =
  Counter.incr c_refactor;
  let m = Array.length basis in
  let prow = Array.make m (-1) in
  let row_step = Array.make m (-1) in
  let bpos = Array.make m (-1) in
  let lcol_i = Array.make m [||] in
  let lcol_v = Array.make m [||] in
  let ucol_j = Array.make m [||] in
  let ucol_v = Array.make m [||] in
  let udiag = Array.make m 0.0 in
  (* Column order: singleton columns first (unit pivots, zero fill), then
     ascending nnz — a cheap deterministic stand-in for Markowitz ordering
     that keeps the all-logical cold basis an exact identity factor. *)
  let order = Array.init m (fun p -> p) in
  Array.sort
    (fun p1 p2 ->
      let n1 = Sparse.col_nnz a basis.(p1)
      and n2 = Sparse.col_nnz a basis.(p2) in
      if n1 <> n2 then compare n1 n2 else compare p1 p2)
    order;
  let work = Array.make m 0.0 in
  let marked = Array.make m false in
  let touched = Array.make m 0 in
  let n_touched = ref 0 in
  let touch i =
    if not marked.(i) then begin
      marked.(i) <- true;
      touched.(!n_touched) <- i;
      incr n_touched
    end
  in
  (* Gilbert–Peierls reachability: the steps with a structurally nonzero
     intermediate in the L-solve of this column are exactly those reachable
     (via L-column fill edges) from the column's own pattern. A DFS in
     reverse postorder yields a valid elimination order without scanning
     all previous steps. *)
  let visited = Array.make m false in
  let topo = Array.make m 0 in
  let n_topo = ref 0 in
  let stack = Array.make m 0 in
  let cursor = Array.make m 0 in
  let dfs root =
    if not visited.(root) then begin
      visited.(root) <- true;
      let top = ref 0 in
      stack.(0) <- root;
      cursor.(0) <- 0;
      while !top >= 0 do
        let s = stack.(!top) in
        let li = lcol_i.(s) in
        let len = Array.length li in
        let advanced = ref false in
        while (not !advanced) && cursor.(!top) < len do
          let c = cursor.(!top) in
          cursor.(!top) <- c + 1;
          let child = row_step.(li.(c)) in
          if child >= 0 && not visited.(child) then begin
            visited.(child) <- true;
            incr top;
            stack.(!top) <- child;
            cursor.(!top) <- 0;
            advanced := true
          end
        done;
        if not !advanced then begin
          topo.(!n_topo) <- s;
          incr n_topo;
          decr top
        end
      done
    end
  in
  let uj = Array.make m 0 in
  let uv = Array.make m 0.0 in
  for step = 0 to m - 1 do
    let pos = order.(step) in
    n_topo := 0;
    Sparse.iter_col a basis.(pos) (fun i v ->
        work.(i) <- v;
        touch i;
        let s = row_step.(i) in
        if s >= 0 then dfs s);
    (* Eliminate along the reach in reverse postorder (topological). *)
    let n_u = ref 0 in
    for e = !n_topo - 1 downto 0 do
      let s = topo.(e) in
      visited.(s) <- false;
      let v = work.(prow.(s)) in
      if v <> 0.0 then begin
        uj.(!n_u) <- s;
        uv.(!n_u) <- v;
        incr n_u;
        let li = lcol_i.(s) and lv = lcol_v.(s) in
        for k = 0 to Array.length li - 1 do
          let i = li.(k) in
          work.(i) <- work.(i) -. (v *. lv.(k));
          touch i
        done
      end
    done;
    (* Partial pivoting: largest remaining magnitude among unpivoted rows. *)
    let prow_k = ref (-1) in
    let best = ref 0.0 in
    for e = 0 to !n_touched - 1 do
      let i = touched.(e) in
      if row_step.(i) < 0 then begin
        let v = Float.abs work.(i) in
        if v > !best then begin
          best := v;
          prow_k := i
        end
      end
    done;
    if !best <= tiny then begin
      (* reset marks before bailing out *)
      for e = 0 to !n_touched - 1 do
        let i = touched.(e) in
        work.(i) <- 0.0;
        marked.(i) <- false
      done;
      raise Singular
    end;
    let pr = !prow_k in
    let piv = work.(pr) in
    prow.(step) <- pr;
    row_step.(pr) <- step;
    bpos.(step) <- pos;
    udiag.(step) <- piv;
    ucol_j.(step) <- Array.sub uj 0 !n_u;
    ucol_v.(step) <- Array.sub uv 0 !n_u;
    let n_l = ref 0 in
    for e = 0 to !n_touched - 1 do
      let i = touched.(e) in
      if row_step.(i) < 0 && work.(i) <> 0.0 then incr n_l
    done;
    let li = Array.make !n_l 0 and lv = Array.make !n_l 0.0 in
    let out = ref 0 in
    for e = 0 to !n_touched - 1 do
      let i = touched.(e) in
      if row_step.(i) < 0 && work.(i) <> 0.0 then begin
        li.(!out) <- i;
        lv.(!out) <- work.(i) /. piv;
        incr out
      end;
      work.(i) <- 0.0;
      marked.(i) <- false
    done;
    n_touched := 0;
    lcol_i.(step) <- li;
    lcol_v.(step) <- lv
  done;
  {
    m;
    prow;
    row_step;
    bpos;
    lcol_i;
    lcol_v;
    ucol_j;
    ucol_v;
    udiag;
    n_etas = 0;
    erow = Array.make 16 0;
    ediag = Array.make 16 0.0;
    eoff = Array.make 17 0;
    eidx = Array.make 64 0;
    eval = Array.make 64 0.0;
    scratch = Array.make m 0.0;
  }

let grow_int a n = if Array.length a >= n then a else
  let b = Array.make (max n (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let grow_float a n = if Array.length a >= n then a else
  let b = Array.make (max n (2 * Array.length a)) 0.0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let update t ~r ~alpha =
  Counter.incr c_eta;
  let e = t.n_etas in
  t.erow <- grow_int t.erow (e + 1);
  t.ediag <- grow_float t.ediag (e + 1);
  t.eoff <- grow_int t.eoff (e + 2);
  let base = t.eoff.(e) in
  let nz = ref 0 in
  for i = 0 to t.m - 1 do
    if i <> r && alpha.(i) <> 0.0 then incr nz
  done;
  t.eidx <- grow_int t.eidx (base + !nz);
  t.eval <- grow_float t.eval (base + !nz);
  let out = ref base in
  for i = 0 to t.m - 1 do
    if i <> r && alpha.(i) <> 0.0 then begin
      t.eidx.(!out) <- i;
      t.eval.(!out) <- alpha.(i);
      incr out
    end
  done;
  t.erow.(e) <- r;
  t.ediag.(e) <- alpha.(r);
  t.eoff.(e + 1) <- !out;
  t.n_etas <- e + 1

(* The triangular solves and eta sweeps below run several times per pivot;
   every index is produced by the factorization itself (permutations and
   column patterns over [0, m)), so unchecked array access is safe and
   worth the bounds-check savings at this call rate. *)
(* eta file, oldest first: v_r ← v_r/α_r; v_i ← v_i − α_i·v_r *)
let apply_etas_ftran t x =
  for e = 0 to t.n_etas - 1 do
    let r = Array.unsafe_get t.erow e in
    let xr = Array.unsafe_get x r in
    if xr <> 0.0 then begin
      let xr = xr /. Array.unsafe_get t.ediag e in
      Array.unsafe_set x r xr;
      for o = Array.unsafe_get t.eoff e to Array.unsafe_get t.eoff (e + 1) - 1
      do
        let i = Array.unsafe_get t.eidx o in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get t.eval o *. xr))
      done
    end
  done

(* transposed eta file, newest first: y_r ← (y_r − Σ α_i·y_i)/α_r *)
let apply_etas_btran t y =
  for e = t.n_etas - 1 downto 0 do
    let r = Array.unsafe_get t.erow e in
    let s = ref (Array.unsafe_get y r) in
    for o = Array.unsafe_get t.eoff e to Array.unsafe_get t.eoff (e + 1) - 1 do
      s :=
        !s
        -. Array.unsafe_get t.eval o
           *. Array.unsafe_get y (Array.unsafe_get t.eidx o)
    done;
    Array.unsafe_set y r (!s /. Array.unsafe_get t.ediag e)
  done

let ftran t x =
  let m = t.m in
  let y = t.scratch in
  (* L y = P⁻¹ x, in step order *)
  for k = 0 to m - 1 do
    let v = Array.unsafe_get x (Array.unsafe_get t.prow k) in
    Array.unsafe_set y k v;
    if v <> 0.0 then begin
      let li = Array.unsafe_get t.lcol_i k
      and lv = Array.unsafe_get t.lcol_v k in
      for e = 0 to Array.length li - 1 do
        let i = Array.unsafe_get li e in
        Array.unsafe_set x i
          (Array.unsafe_get x i -. (Array.unsafe_get lv e *. v))
      done
    end
  done;
  (* U x' = y, backward *)
  for k = m - 1 downto 0 do
    let v = Array.unsafe_get y k /. Array.unsafe_get t.udiag k in
    Array.unsafe_set y k v;
    if v <> 0.0 then begin
      let uj = Array.unsafe_get t.ucol_j k
      and uv = Array.unsafe_get t.ucol_v k in
      for e = 0 to Array.length uj - 1 do
        let j = Array.unsafe_get uj e in
        Array.unsafe_set y j
          (Array.unsafe_get y j -. (Array.unsafe_get uv e *. v))
      done
    end
  done;
  (* scatter step space -> basis-position space (bpos is a permutation) *)
  for k = 0 to m - 1 do
    Array.unsafe_set x (Array.unsafe_get t.bpos k) (Array.unsafe_get y k)
  done;
  apply_etas_ftran t x

let btran t y =
  let m = t.m in
  apply_etas_btran t y;
  (* Uᵀ w = Qᵀ y, forward in step order *)
  let w = t.scratch in
  for k = 0 to m - 1 do
    let s = ref (Array.unsafe_get y (Array.unsafe_get t.bpos k)) in
    let uj = Array.unsafe_get t.ucol_j k
    and uv = Array.unsafe_get t.ucol_v k in
    for e = 0 to Array.length uj - 1 do
      s :=
        !s
        -. Array.unsafe_get uv e
           *. Array.unsafe_get w (Array.unsafe_get uj e)
    done;
    Array.unsafe_set w k (!s /. Array.unsafe_get t.udiag k)
  done;
  (* Lᵀ v = w, backward; L column entries live on original rows, so map
     them back to their factor steps *)
  for k = m - 1 downto 0 do
    let li = Array.unsafe_get t.lcol_i k
    and lv = Array.unsafe_get t.lcol_v k in
    let s = ref (Array.unsafe_get w k) in
    for e = 0 to Array.length li - 1 do
      s :=
        !s
        -. Array.unsafe_get lv e
           *. Array.unsafe_get w
                (Array.unsafe_get t.row_step (Array.unsafe_get li e))
    done;
    Array.unsafe_set w k !s
  done;
  (* scatter step space -> original rows *)
  for k = 0 to m - 1 do
    Array.unsafe_set y (Array.unsafe_get t.prow k) (Array.unsafe_get w k)
  done
