module Counter = Rapid_obs.Counter
module Timer = Rapid_obs.Timer

type solution = { objective : float; solution : float array }

type result = Optimal of solution | Infeasible | Unbounded | Iter_limit

let eps = 1e-9

let c_pivots = Counter.create "lp.pivots"
let c_phase1 = Counter.create "lp.phase1_iters"
let c_bound_flips = Counter.create "lp.bound_flips"
let c_iter_limits = Counter.create "lp.iter_limits"
let c_cold_solves = Counter.create "lp.cold_solves"
let t_solve = Timer.create "lp.solve"

(* Sparse revised simplex over bounded columns. The constraint matrix is
   held once in CSC form (plus its CSR transpose for pivot-row gathers)
   and never modified; the basis lives in an {!Lu} factorization extended
   by product-form etas, refactorized periodically. A pivot costs one
   FTRAN (entering column), one BTRAN + row gather (pivot row, which also
   refreshes the reduced costs incrementally), and O(n) bookkeeping —
   instead of the dense tableau's O(m·n) cell sweep. Devex reference
   weights replace full Dantzig pricing's bias toward large-coefficient
   columns; Bland's rule still takes over after a stall, preserving the
   anti-cycling guarantee.

   Variable bounds stay on columns exactly as in the dense solver (kept
   verbatim in {!Dense_simplex} as the test oracle): nonbasic variables
   rest at a bound, the ratio tests enforce boxes, and a bound-to-bound
   move is an O(m) flip with no pivot. *)

type var_status = Basic | At_lower | At_upper

type tab = {
  m : int;
  n : int;  (* total columns: structural + slack + artificial *)
  n_struct : int;
  art_start : int;  (* artificial columns occupy [art_start, n) *)
  acols : Sparse.t;  (* m×n, CSC: untransformed constraint matrix *)
  arows : Sparse.t;  (* n×m, its transpose: row gathers for BTRAN rows *)
  b : float array;  (* sign-normalized rhs *)
  xb : float array;  (* current value of the basic variable of each row *)
  basis : int array;
  status : var_status array;  (* length n *)
  lower : float array;  (* length n *)
  upper : float array;
  z : float array;  (* reduced costs of [cost] under the current basis *)
  cost : float array;  (* phase-dependent cost vector *)
  dvx : float array;  (* devex reference weights, length n *)
  mutable lu : Lu.t;
  (* dense scratch; one allocation per tableau, reused every iteration *)
  alpha : float array;  (* length m: FTRAN of the entering column *)
  rho : float array;  (* length m: BTRAN of the pivot row's unit vector *)
  rwork : float array;  (* length m *)
  arow : float array;  (* length n: gathered pivot row of B⁻¹A *)
  (* Sparsity of the gathered row: [tlist.(0..ntouched)] are the columns
     with (structurally) nonzero entries in [arow]; everything else is
     exactly 0.0. [gstamp]/[gseq] deduplicate insertions during the
     gather. The ratio test and the pivot commit sweep only the touched
     list, and the next gather re-zeroes exactly those entries, so the
     O(n) fill-and-scan per pivot shrinks to the row's actual support. *)
  tlist : int array;
  gstamp : int array;
  mutable ntouched : int;
  mutable gseq : int;
  pivots : int ref;
      (* owned by the caller ({!State}), so the count survives cold
         rebuilds; the process-global [lp.pivots] counter cannot serve as
         a work budget because concurrent domains pollute its deltas *)
}


let nb_val t j = if t.status.(j) = At_upper then t.upper.(j) else t.lower.(j)

(* Refactorize once the eta file reaches this depth: solves slow down
   linearly with eta count while a refactorization amortizes to O(nnz).
   Scaled to the basis dimension — on a small basis each eta costs a
   comparable amount to the LU solve itself, so letting the file grow to
   a fixed 64 would make every FTRAN/BTRAN several times the cost of a
   fresh factorization. *)
let eta_limit t = Int.min 64 (Int.max 4 t.m)

(* The kernels below index the CSC/CSR arrays directly instead of going
   through [Sparse.iter_col]: a closure invocation per nonzero costs more
   than the multiply-add it wraps, and these loops run once per pivot. *)

(* FTRAN the entering column [q] into [t.alpha] (basis-position space). *)
let ftran_col t q =
  Array.fill t.alpha 0 t.m 0.0;
  let a = t.acols in
  let rowind = a.Sparse.rowind and values = a.Sparse.values in
  for k = a.Sparse.colptr.(q) to a.Sparse.colptr.(q + 1) - 1 do
    t.alpha.(rowind.(k)) <- values.(k)
  done;
  Lu.ftran t.lu t.alpha

(* BTRAN row [r]'s unit vector into [t.rho] (original-row space) and
   gather the full tableau row e_r·B⁻¹A into [t.arow]. *)
let gather_row t r =
  Array.fill t.rho 0 t.m 0.0;
  t.rho.(r) <- 1.0;
  Lu.btran t.lu t.rho;
  let arow = t.arow and tlist = t.tlist and gstamp = t.gstamp in
  for e = 0 to t.ntouched - 1 do
    Array.unsafe_set arow (Array.unsafe_get tlist e) 0.0
  done;
  t.ntouched <- 0;
  t.gseq <- t.gseq + 1;
  let seq = t.gseq in
  let a = t.arows in
  let colptr = a.Sparse.colptr in
  let rowind = a.Sparse.rowind and values = a.Sparse.values in
  for i = 0 to t.m - 1 do
    let ri = Array.unsafe_get t.rho i in
    if ri <> 0.0 then
      for k = Array.unsafe_get colptr i to Array.unsafe_get colptr (i + 1) - 1
      do
        let j = Array.unsafe_get rowind k in
        let v = ri *. Array.unsafe_get values k in
        if Array.unsafe_get gstamp j = seq then
          Array.unsafe_set arow j (Array.unsafe_get arow j +. v)
        else begin
          Array.unsafe_set gstamp j seq;
          Array.unsafe_set tlist t.ntouched j;
          t.ntouched <- t.ntouched + 1;
          Array.unsafe_set arow j v
        end
      done
  done

(* Recompute [z] from [cost] under the current basis: y = B⁻ᵀ·c_B, then
   one CSC sweep. O(nnz) — used at phase switches and refactorizations. *)
let reprice t =
  for i = 0 to t.m - 1 do
    t.rwork.(i) <- t.cost.(t.basis.(i))
  done;
  Lu.btran t.lu t.rwork;
  let a = t.acols in
  let colptr = a.Sparse.colptr in
  let rowind = a.Sparse.rowind and values = a.Sparse.values in
  let rwork = t.rwork in
  for j = 0 to t.n - 1 do
    let zj = ref (Array.unsafe_get t.cost j) in
    for k = Array.unsafe_get colptr j to Array.unsafe_get colptr (j + 1) - 1 do
      zj :=
        !zj
        -. Array.unsafe_get rwork (Array.unsafe_get rowind k)
           *. Array.unsafe_get values k
    done;
    Array.unsafe_set t.z j !zj
  done;
  for i = 0 to t.m - 1 do
    t.z.(t.basis.(i)) <- 0.0
  done

(* Basic values: FTRAN of b minus the nonbasic columns at nonzero bounds. *)
let refresh_xb t =
  Array.blit t.b 0 t.xb 0 t.m;
  let a = t.acols in
  let colptr = a.Sparse.colptr in
  let rowind = a.Sparse.rowind and values = a.Sparse.values in
  let xb = t.xb in
  for j = 0 to t.n - 1 do
    if t.status.(j) <> Basic then begin
      let v = nb_val t j in
      if v <> 0.0 then
        for k = Array.unsafe_get colptr j to Array.unsafe_get colptr (j + 1) - 1
        do
          let i = Array.unsafe_get rowind k in
          Array.unsafe_set xb i
            (Array.unsafe_get xb i -. (Array.unsafe_get values k *. v))
        done
    end
  done;
  Lu.ftran t.lu t.xb

let refactor t =
  t.lu <- Lu.factor t.acols ~basis:t.basis;
  refresh_xb t;
  reprice t

let maybe_refactor t = if Lu.n_etas t.lu >= eta_limit t then refactor t

let reset_devex t = Array.fill t.dvx 0 t.n 1.0

(* Commit a basis change at row [r] with entering column [q]: [t.alpha]
   must hold the FTRAN'd entering column and [t.arow] the gathered pivot
   row (both w.r.t. the pre-pivot basis). Updates z incrementally from the
   pivot row and, when [devex], folds the reference-weight update into the
   same O(n) sweep. *)
let commit_pivot t ~r ~q ~devex =
  let piv = t.arow.(q) in
  let piv = if piv <> 0.0 then piv else t.alpha.(r) in
  let inv = 1.0 /. piv in
  let f = t.z.(q) in
  if devex then begin
    let wq = t.dvx.(q) in
    let wq = if wq > 1e8 then (reset_devex t; 1.0) else wq in
    for e = 0 to t.ntouched - 1 do
      let j = Array.unsafe_get t.tlist e in
      let aj = Array.unsafe_get t.arow j in
      if aj <> 0.0 then begin
        let rn = aj *. inv in
        if f <> 0.0 then t.z.(j) <- t.z.(j) -. (f *. rn);
        if t.status.(j) <> Basic then begin
          let w = rn *. rn *. wq in
          if w > t.dvx.(j) then t.dvx.(j) <- w
        end
      end
    done;
    let wp = wq *. inv *. inv in
    t.dvx.(t.basis.(r)) <- (if wp > 1.0 then wp else 1.0)
  end
  else if f <> 0.0 then begin
    (* dual pivots skip devex upkeep; a degenerate pivot (f = 0) leaves
       the whole reduced-cost row unchanged *)
    let fi = f *. inv in
    let z = t.z and arow = t.arow and tlist = t.tlist in
    for e = 0 to t.ntouched - 1 do
      let j = Array.unsafe_get tlist e in
      let aj = Array.unsafe_get arow j in
      if aj <> 0.0 then
        Array.unsafe_set z j (Array.unsafe_get z j -. (fi *. aj))
    done
  end;
  t.z.(q) <- 0.0;
  Lu.update t.lu ~r ~alpha:t.alpha;
  t.basis.(r) <- q;
  t.status.(q) <- Basic;
  Counter.incr c_pivots;
  incr t.pivots

let max_iter_of t = 20_000 + (200 * (t.m + t.n))

(* Bounded-variable primal simplex minimizing [t.cost] (whose reduced costs
   are current in [t.z]). Devex pricing with Bland's rule after a stall. *)
let primal ?(phase1 = false) t =
  let max_iter = max_iter_of t in
  let rec loop iter =
    if iter >= max_iter then begin
      Counter.incr c_iter_limits;
      `Iter_limit
    end
    else begin
      let bland = iter > max_iter / 2 in
      let enter = ref (-1) in
      let best = ref 0.0 in
      (try
         for j = 0 to t.n - 1 do
           if t.status.(j) <> Basic && t.upper.(j) -. t.lower.(j) > eps then begin
             let viol =
               match t.status.(j) with
               | At_lower -> -.t.z.(j)
               | At_upper -> t.z.(j)
               | Basic -> 0.0
             in
             if viol > eps then
               if bland then begin
                 enter := j;
                 raise Exit
               end
               else begin
                 let score = viol *. viol /. t.dvx.(j) in
                 if score > !best then begin
                   best := score;
                   enter := j
                 end
               end
           end
         done
       with Exit -> ());
      if !enter < 0 then `Optimal
      else begin
        let q = !enter in
        let d = if t.status.(q) = At_upper then -1.0 else 1.0 in
        ftran_col t q;
        (* Ratio test: row limits plus the entering variable's own opposite
           bound (a bound flip needs no pivot). *)
        let t_flip = t.upper.(q) -. t.lower.(q) in
        let leave = ref (-1) in
        let leave_to = ref At_lower in
        let best_t = ref t_flip in
        for i = 0 to t.m - 1 do
          let alpha = t.alpha.(i) *. d in
          if alpha > eps then begin
            let bi = t.basis.(i) in
            let slack = t.xb.(i) -. t.lower.(bi) in
            let ratio = (if slack < 0.0 then 0.0 else slack) /. alpha in
            if
              ratio < !best_t -. eps
              || (ratio < !best_t +. eps && !leave >= 0 && bi < t.basis.(!leave))
            then begin
              best_t := ratio;
              leave := i;
              leave_to := At_lower
            end
          end
          else if alpha < -.eps then begin
            let bi = t.basis.(i) in
            if t.upper.(bi) < infinity then begin
              let slack = t.upper.(bi) -. t.xb.(i) in
              let ratio = (if slack < 0.0 then 0.0 else slack) /. -.alpha in
              if
                ratio < !best_t -. eps
                || (ratio < !best_t +. eps
                   && !leave >= 0 && bi < t.basis.(!leave))
              then begin
                best_t := ratio;
                leave := i;
                leave_to := At_upper
              end
            end
          end
        done;
        if !leave < 0 then begin
          if !best_t = infinity then `Unbounded
          else begin
            (* Bound flip: q crosses to its other bound, basics shift, no
               pivot, no eta. *)
            Counter.incr c_bound_flips;
            for i = 0 to t.m - 1 do
              let alpha = t.alpha.(i) *. d in
              if alpha <> 0.0 then t.xb.(i) <- t.xb.(i) -. (alpha *. t_flip)
            done;
            t.status.(q) <-
              (if t.status.(q) = At_lower then At_upper else At_lower);
            loop (iter + 1)
          end
        end
        else begin
          let r = !leave in
          if Float.abs t.alpha.(r) < 1e-8 && Lu.n_etas t.lu > 0 then begin
            (* Pivot too small to trust through a deep eta file: rebuild
               the factorization and retry this iteration (the eta file is
               now empty, so the retry cannot loop). *)
            refactor t;
            loop iter
          end
          else begin
            let step = !best_t in
            for i = 0 to t.m - 1 do
              if i <> r then begin
                let alpha = t.alpha.(i) *. d in
                if alpha <> 0.0 then t.xb.(i) <- t.xb.(i) -. (alpha *. step)
              end
            done;
            let entering_val = nb_val t q +. (d *. step) in
            t.status.(t.basis.(r)) <- !leave_to;
            gather_row t r;
            commit_pivot t ~r ~q ~devex:(not bland);
            t.xb.(r) <- entering_val;
            if phase1 then Counter.incr c_phase1;
            maybe_refactor t;
            loop (iter + 1)
          end
        end
      end
    end
  in
  loop 0

(* Bounded-variable dual simplex: from a dual-feasible [z], pivot the most
   bound-violating basic variable to the bound it violates; the entering
   column is chosen by the dual ratio test min |z_j / a_rj| over the
   gathered pivot row, which preserves dual feasibility. This is the
   warm-start workhorse: after a column-bound change the basis stays dual
   feasible and typically needs only a few pivots. *)
let dual t =
  let max_iter = max_iter_of t in
  let rec loop iter =
    if iter >= max_iter then begin
      Counter.incr c_iter_limits;
      `Iter_limit
    end
    else begin
      let r = ref (-1) in
      let viol = ref eps in
      let below = ref false in
      for i = 0 to t.m - 1 do
        let bi = Array.unsafe_get t.basis i in
        let xi = Array.unsafe_get t.xb i in
        if xi < Array.unsafe_get t.lower bi -. !viol then begin
          viol := Array.unsafe_get t.lower bi -. xi;
          r := i;
          below := true
        end
        else if xi > Array.unsafe_get t.upper bi +. !viol then begin
          viol := xi -. Array.unsafe_get t.upper bi;
          r := i;
          below := false
        end
      done;
      if !r < 0 then `Optimal
      else begin
        let row = !r in
        gather_row t row;
        let q = ref (-1) in
        let best = ref infinity in
        let status = t.status and arow = t.arow and z = t.z in
        let upper = t.upper and lower = t.lower in
        (* Fold the violation direction into the row once so each branch
           below tests a single sign; a positive (signed) coefficient can
           only enter from the lower bound, a negative one from the upper.
           [Basic] columns fail both status tests, and fixed columns fail
           the box test, so no separate gates are needed. The division is
           kept off the common path: a candidate must first beat the
           current best by cross-multiplication (|z_j| < bound·|a_rj|),
           and only survivors compute their exact ratio. *)
        let sgn = if !below then -1.0 else 1.0 in
        let tlist = t.tlist in
        for e = 0 to t.ntouched - 1 do
          let j = Array.unsafe_get tlist e in
          let arj = sgn *. Array.unsafe_get arow j in
          if arj > eps then begin
            if
              Array.unsafe_get status j = At_lower
              && Array.unsafe_get upper j -. Array.unsafe_get lower j > eps
            then begin
              let az = Float.abs (Array.unsafe_get z j) in
              if az < (!best +. eps) *. arj then begin
                let ratio = az /. arj in
                if
                  ratio < !best -. eps
                  || (ratio < !best +. eps && !q >= 0 && j < !q)
                then begin
                  best := ratio;
                  q := j
                end
              end
            end
          end
          else if arj < -.eps then
            if
              Array.unsafe_get status j = At_upper
              && Array.unsafe_get upper j -. Array.unsafe_get lower j > eps
            then begin
              let az = Float.abs (Array.unsafe_get z j) in
              let aa = -.arj in
              if az < (!best +. eps) *. aa then begin
                let ratio = az /. aa in
                if
                  ratio < !best -. eps
                  || (ratio < !best +. eps && !q >= 0 && j < !q)
                then begin
                  best := ratio;
                  q := j
                end
              end
            end
        done;
        if !q < 0 then `Infeasible
        else begin
          let qq = !q in
          ftran_col t qq;
          if Float.abs t.alpha.(row) < 1e-8 && Lu.n_etas t.lu > 0 then begin
            refactor t;
            loop iter
          end
          else begin
            let d = if t.status.(qq) = At_upper then -1.0 else 1.0 in
            let p = t.basis.(row) in
            let target = if !below then t.lower.(p) else t.upper.(p) in
            let step = (target -. t.xb.(row)) /. -.(t.arow.(qq) *. d) in
            let step = if step < 0.0 then 0.0 else step in
            for i = 0 to t.m - 1 do
              if i <> row then begin
                let alpha = Array.unsafe_get t.alpha i *. d in
                if alpha <> 0.0 then
                  Array.unsafe_set t.xb i
                    (Array.unsafe_get t.xb i -. (alpha *. step))
              end
            done;
            let entering_val = nb_val t qq +. (d *. step) in
            t.status.(p) <- (if !below then At_lower else At_upper);
            commit_pivot t ~r:row ~q:qq ~devex:false;
            t.xb.(row) <- entering_val;
            maybe_refactor t;
            loop (iter + 1)
          end
        end
      end
    end
  in
  loop 0

(* ------------------------------------------------------------------ *)
(* Cold build: one slack per inequality row; an artificial only where the
   all-structurals-at-lower-bound start leaves the row without an in-range
   basic slack. The chosen logical column always carries +1 in its row (rows
   are sign-normalized), so the initial basis factors as an exact identity. *)

let build ~rows ~n_struct ~lb ~ub ~pivots =
  let rows = Array.of_list rows in
  let m = Array.length rows in
  let residual =
    Array.map
      (fun { Lp_problem.coeffs; relation = _; rhs } ->
        List.fold_left (fun acc (i, c) -> acc -. (c *. lb.(i))) rhs coeffs)
      rows
  in
  let needs_art i =
    match rows.(i).Lp_problem.relation with
    | Lp_problem.Le -> residual.(i) < 0.0
    | Lp_problem.Ge -> residual.(i) > 0.0
    | Lp_problem.Eq -> true
  in
  let n_slack =
    Array.fold_left
      (fun acc r ->
        match r.Lp_problem.relation with
        | Lp_problem.Le | Lp_problem.Ge -> acc + 1
        | Lp_problem.Eq -> acc)
      0 rows
  in
  let n_art = ref 0 in
  for i = 0 to m - 1 do
    if needs_art i then incr n_art
  done;
  let art_start = n_struct + n_slack in
  let n = art_start + !n_art in
  let struct_nnz =
    Array.fold_left
      (fun acc r -> acc + List.length r.Lp_problem.coeffs)
      0 rows
  in
  let total_nnz = struct_nnz + n_slack + !n_art in
  let trows = Array.make total_nnz 0 in
  let tcols = Array.make total_nnz 0 in
  let tvals = Array.make total_nnz 0.0 in
  let nt = ref 0 in
  let push r c v =
    trows.(!nt) <- r;
    tcols.(!nt) <- c;
    tvals.(!nt) <- v;
    incr nt
  in
  let b = Array.make m 0.0 in
  let basis = Array.make m (-1) in
  let slack_idx = ref n_struct in
  let art_idx = ref art_start in
  Array.iteri
    (fun i { Lp_problem.coeffs; relation; rhs } ->
      (* The row's basic variable (slack or artificial) must form a unit
         column, so rows whose natural basic coefficient would be -1 are
         negated wholesale. *)
      let flip =
        match relation with
        | Lp_problem.Le -> residual.(i) < 0.0
        | Lp_problem.Ge -> residual.(i) <= 0.0
        | Lp_problem.Eq -> residual.(i) < 0.0
      in
      let s = if flip then -1.0 else 1.0 in
      List.iter (fun (j, c) -> push i j (s *. c)) coeffs;
      b.(i) <- s *. rhs;
      (match relation with
      | Lp_problem.Le ->
          push i !slack_idx s;
          if residual.(i) >= 0.0 then basis.(i) <- !slack_idx;
          incr slack_idx
      | Lp_problem.Ge ->
          push i !slack_idx (-.s);
          if residual.(i) <= 0.0 then basis.(i) <- !slack_idx;
          incr slack_idx
      | Lp_problem.Eq -> ());
      if needs_art i then begin
        push i !art_idx 1.0;
        basis.(i) <- !art_idx;
        incr art_idx
      end)
    rows;
  let acols = Sparse.of_arrays ~m ~n ~rows:trows ~cols:tcols ~vals:tvals in
  let t =
    {
      m;
      n;
      n_struct;
      art_start;
      acols;
      arows = Sparse.transpose acols;
      b;
      xb = Array.make m 0.0;
      basis;
      status = Array.make n At_lower;
      lower = Array.make n 0.0;
      upper = Array.make n infinity;
      z = Array.make n 0.0;
      cost = Array.make n 0.0;
      dvx = Array.make n 1.0;
      lu = Lu.factor acols ~basis;
      alpha = Array.make m 0.0;
      rho = Array.make m 0.0;
      rwork = Array.make m 0.0;
      arow = Array.make n 0.0;
      tlist = Array.make n 0;
      gstamp = Array.make n 0;
      ntouched = 0;
      gseq = 0;
      pivots;
    }
  in
  Array.blit lb 0 t.lower 0 n_struct;
  Array.blit ub 0 t.upper 0 n_struct;
  for i = 0 to m - 1 do
    t.status.(t.basis.(i)) <- Basic
  done;
  refresh_xb t;
  t

(* Phase-1 objective value: the artificials' total (all nonbasic artificials
   sit at a zero bound). *)
let artificial_mass t =
  let total = ref 0.0 in
  for i = 0 to t.m - 1 do
    if t.basis.(i) >= t.art_start then total := !total +. Float.abs t.xb.(i)
  done;
  !total

(* After a feasible phase 1: pin every artificial to [0,0] so it can never
   re-enter, and drive basic ones out of the basis where a structural/slack
   pivot exists (a fully zero row is redundant; its pinned artificial stays
   basic at 0, which the ratio tests then hold there). The subsequent
   phase-2 reprice rebuilds [z], so these degenerate pivots skip it. *)
let retire_artificials t =
  for r = 0 to t.m - 1 do
    if t.basis.(r) >= t.art_start then begin
      gather_row t r;
      let found = ref (-1) in
      let j = ref 0 in
      while !found < 0 && !j < t.art_start do
        if t.status.(!j) <> Basic && Float.abs t.arow.(!j) > eps then
          found := !j;
        incr j
      done;
      if !found >= 0 then begin
        let q = !found in
        ftran_col t q;
        let v = nb_val t q in
        t.status.(t.basis.(r)) <- At_lower;
        Lu.update t.lu ~r ~alpha:t.alpha;
        t.basis.(r) <- q;
        t.status.(q) <- Basic;
        t.xb.(r) <- v;
        Counter.incr c_pivots;
        incr t.pivots;
        maybe_refactor t
      end
    end
  done;
  for j = t.art_start to t.n - 1 do
    t.lower.(j) <- 0.0;
    t.upper.(j) <- 0.0
  done

(* Extract the structural solution and its true objective under [obj]. *)
let extract t obj =
  let x = Array.make t.n_struct 0.0 in
  for j = 0 to t.n_struct - 1 do
    if t.status.(j) <> Basic then x.(j) <- nb_val t j
  done;
  for r = 0 to t.m - 1 do
    if t.basis.(r) < t.n_struct then x.(t.basis.(r)) <- t.xb.(r)
  done;
  for j = 0 to t.n_struct - 1 do
    if x.(j) < t.lower.(j) then x.(j) <- t.lower.(j)
    else if x.(j) > t.upper.(j) then x.(j) <- t.upper.(j)
  done;
  let objective = ref 0.0 in
  for j = 0 to t.n_struct - 1 do
    objective := !objective +. (obj.(j) *. x.(j))
  done;
  Optimal { objective = !objective; solution = x }

(* Two-phase primal solve of a freshly built tableau. Returns the result
   and whether the final tableau is dual feasible for [obj] (i.e. usable as
   a dual-simplex warm-start point). *)
let cold_solve t obj =
  Counter.incr c_cold_solves;
  let feasible =
    if t.art_start = t.n then `Feasible
    else begin
      (* Phase 1: minimize the sum of artificials (each enters with a
         coefficient matching its row's residual sign, so its start value —
         and hence the phase-1 cost — is +1 per unit of infeasibility). *)
      Array.fill t.cost 0 t.n 0.0;
      for j = t.art_start to t.n - 1 do
        t.cost.(j) <- 1.0
      done;
      reprice t;
      reset_devex t;
      match primal ~phase1:true t with
      | `Unbounded | `Optimal ->
          (* Phase 1 is bounded below by 0; `Unbounded cannot happen. *)
          if artificial_mass t > 1e-6 then `Infeasible
          else begin
            retire_artificials t;
            `Feasible
          end
      | `Iter_limit -> `Iter_limit
    end
  in
  match feasible with
  | `Infeasible -> (Infeasible, false)
  | `Iter_limit -> (Iter_limit, false)
  | `Feasible -> (
      Array.fill t.cost 0 t.n 0.0;
      Array.blit obj 0 t.cost 0 t.n_struct;
      reprice t;
      reset_devex t;
      match primal t with
      | `Optimal -> (extract t obj, true)
      | `Unbounded -> (Unbounded, false)
      | `Iter_limit -> (Iter_limit, false))

(* ------------------------------------------------------------------ *)
(* Warm-startable solver state: presolve once against the problem's own
   bounds, build the reduced tableau once, re-solve under changed column
   bounds with the dual simplex from the last optimal basis + factors. *)

module State = struct
  type t = {
    problem : Lp_problem.t;
    obj : float array;
    orig_lb : float array;
    orig_ub : float array;
    cur_lb : float array;
    cur_ub : float array;
    mutable overridden : int list;
    pivot_count : int ref;  (* cumulative across cold rebuilds *)
    mutable pre : Presolve.t option;  (* memoized root presolve *)
    mutable tab : tab option;
    (* [dual_ready]: the tableau's [z] row prices the reduced objective and
       is dual feasible, so a bound change can be re-solved by [dual]
       alone. *)
    mutable dual_ready : bool;
  }

  let create problem =
    let b = Lp_problem.bounds problem in
    {
      problem;
      obj = Lp_problem.objective problem;
      orig_lb = Array.map fst b;
      orig_ub = Array.map snd b;
      cur_lb = Array.map fst b;
      cur_ub = Array.map snd b;
      overridden = [];
      pivot_count = ref 0;
      pre = None;
      tab = None;
      dual_ready = false;
    }

  let pivots st = !(st.pivot_count)

  let empty_box st =
    let bad = ref false in
    Array.iteri
      (fun j lo -> if lo > st.cur_ub.(j) +. eps then bad := true)
      st.cur_lb;
    !bad

  (* The presolve is computed once against the problem's own bounds.
     Reusing its reductions under an override is sound because {!resolve}
     only accepts boxes inside the original ones: intersecting them with
     the presolve-tightened boxes is then equivalent to keeping the deleted
     rows. *)
  let get_pre st =
    match st.pre with
    | Some p -> p
    | None ->
        let p =
          Presolve.reduce ~obj:st.obj ~lb:st.orig_lb ~ub:st.orig_ub
            ~rows:(Lp_problem.constraints st.problem)
        in
        st.pre <- Some p;
        p

  (* Clamp the current boxes into the reduced space (intersecting with the
     presolve-tightened boxes), writing into [rlb]/[rub] (length ≥ n_red);
     [false] when some intersection is empty or a fixed column's forced
     value falls outside its override box. Runs once per warm B&B resolve,
     so it writes straight into caller storage and avoids [Float.min]/
     [Float.max] (branchless NaN handling this path never needs). *)
  let reduced_bounds_into st (pre : Presolve.t) rlb rub =
    let n_red = pre.Presolve.n_red in
    let ok = ref true in
    for rj = 0 to n_red - 1 do
      let j = pre.Presolve.keep.(rj) in
      let a = st.cur_lb.(j) and b = pre.Presolve.lb.(rj) in
      let lo = if a >= b then a else b in
      let a = st.cur_ub.(j) and b = pre.Presolve.ub.(rj) in
      let hi = if a <= b then a else b in
      if lo > hi +. eps then ok := false;
      rlb.(rj) <- lo;
      rub.(rj) <- hi
    done;
    for j = 0 to Array.length pre.Presolve.cls - 1 do
      match pre.Presolve.cls.(j) with
      | Presolve.Fixed v ->
          if v < st.cur_lb.(j) -. eps || v > st.cur_ub.(j) +. eps then
            ok := false
      | Presolve.Empty ->
          (* Deleted rows survive as this column's tightened box; an
             override that misses it is infeasible, not clampable. *)
          let a = st.cur_lb.(j) and b = pre.Presolve.tlb.(j) in
          let lo = if a >= b then a else b in
          let a = st.cur_ub.(j) and b = pre.Presolve.tub.(j) in
          let hi = if a <= b then a else b in
          if lo > hi +. eps then ok := false
      | Presolve.Kept _ -> ()
    done;
    !ok

  let reduced_bounds st (pre : Presolve.t) =
    let n_red = pre.Presolve.n_red in
    let rlb = Array.make n_red 0.0 in
    let rub = Array.make n_red 0.0 in
    if reduced_bounds_into st pre rlb rub then Some (rlb, rub) else None

  (* Lift a tableau-space result back to the original variable space. *)
  let finish st (pre : Presolve.t) result =
    match result with
    | Infeasible | Unbounded | Iter_limit -> result
    | Optimal { solution = x_red; _ } -> (
        match
          Presolve.postsolve pre ~cur_lb:st.cur_lb ~cur_ub:st.cur_ub ~x_red
        with
        | `Unbounded -> Unbounded
        | `X x ->
            let objective = ref 0.0 in
            for j = 0 to Array.length x - 1 do
              objective := !objective +. (st.obj.(j) *. x.(j))
            done;
            Optimal { objective = !objective; solution = x })

  (* Forget the tableau and answer [result]: nothing warm survives a solve
     that did not finish optimal. *)
  let drop_tab st result =
    st.tab <- None;
    st.dual_ready <- false;
    result

  let cold st =
    if empty_box st then drop_tab st Infeasible
    else
      let pre = get_pre st in
      if pre.Presolve.verdict = Presolve.Infeasible then drop_tab st Infeasible
      else
        match reduced_bounds st pre with
        | None -> drop_tab st Infeasible
        | Some (rlb, rub) -> (
            try
              let t =
                build ~rows:pre.Presolve.rows ~n_struct:pre.Presolve.n_red
                  ~lb:rlb ~ub:rub ~pivots:st.pivot_count
              in
              st.tab <- Some t;
              let result, dual_ready = cold_solve t pre.Presolve.obj in
              st.dual_ready <- dual_ready;
              finish st pre result
            with Lu.Singular ->
              (* Numerically singular basis mid-solve: give up on this
                 solve without presenting a truncated answer as optimal. *)
              drop_tab st Iter_limit)

  let solve_root st = Timer.time t_solve (fun () -> cold st)

  (* Re-solve with per-variable bound overrides (all other variables reset
     to the problem's own bounds). Warm path: clamp the overrides into the
     tableau's column bounds, refresh basic values through the
     factorization, run the dual simplex. Falls back to a cold solve when
     no dual-feasible tableau is available or the dual hits its iteration
     cap. Returns the result and whether the warm path produced it. *)
  let resolve st ~bounds =
    List.iter
      (fun (j, lo, hi) ->
        if lo < st.orig_lb.(j) -. 1e-12 || hi > st.orig_ub.(j) +. 1e-12 then
          invalid_arg "Simplex.State.resolve: override outside the box")
      bounds;
    Timer.time t_solve (fun () ->
        List.iter
          (fun j ->
            st.cur_lb.(j) <- st.orig_lb.(j);
            st.cur_ub.(j) <- st.orig_ub.(j))
          st.overridden;
        st.overridden <- List.map (fun (j, _, _) -> j) bounds;
        List.iter
          (fun (j, lo, hi) ->
            st.cur_lb.(j) <- lo;
            st.cur_ub.(j) <- hi)
          bounds;
        (* unlisted columns are back in the problem's own boxes, which any
           cold solve checks *)
        if
          List.exists
            (fun (j, _, _) -> st.cur_lb.(j) > st.cur_ub.(j) +. eps)
            bounds
        then (Infeasible, true)
        else
          match st.tab with
          | Some t when st.dual_ready ->
              let pre = get_pre st in
              (* writes the reduced boxes straight into the tableau's column
                 bounds; a partial write on [false] is harmless because
                 every later warm start re-syncs before solving *)
              if not (reduced_bounds_into st pre t.lower t.upper) then
                (Infeasible, true)
              else begin
                (* Restore dual feasibility by bound flips. While a variable
                   is fixed (lo = hi) the dual simplex never protects its
                   reduced cost, so unfixing it can expose a sign that
                   disagrees with the bound it rests at; moving it to its
                   other (finite) bound makes the sign agree again. A
                   reverted override can likewise leave a variable resting
                   on an upper bound that is now infinite. Only a
                   wrong-signed column with no finite opposite bound defeats
                   the warm start and forces a cold solve. *)
                let still_dual = ref true in
                for j = 0 to t.n - 1 do
                  if t.status.(j) <> Basic && t.upper.(j) -. t.lower.(j) > eps
                  then begin
                    if t.status.(j) = At_upper && t.upper.(j) = infinity then
                      t.status.(j) <- At_lower;
                    match t.status.(j) with
                    | At_lower when t.z.(j) < -.eps ->
                        if t.upper.(j) < infinity then t.status.(j) <- At_upper
                        else still_dual := false
                    | At_upper when t.z.(j) > eps -> t.status.(j) <- At_lower
                    | At_lower | At_upper | Basic -> ()
                  end
                done;
                if not !still_dual then (cold st, false)
                else
                  try
                    refresh_xb t;
                    match dual t with
                    | `Optimal ->
                        (finish st pre (extract t pre.Presolve.obj), true)
                    | `Infeasible -> (Infeasible, true)
                    | `Iter_limit ->
                        (* Cold restart with the same bounds. *)
                        (cold st, false)
                  with Lu.Singular -> (cold st, false)
              end
          | _ -> (cold st, false))
end

let solve problem = State.solve_root (State.create problem)
