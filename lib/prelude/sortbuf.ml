type 'a t = { mutable data : 'a array; mutable len : int }

let create () = { data = [||]; len = 0 }
let length t = t.len
let clear t = t.len <- 0
let get t i = if i >= t.len then invalid_arg "Sortbuf.get" else t.data.(i)

let push t x =
  let cap = Array.length t.data in
  if t.len = cap then begin
    let data = Array.make (max 16 (2 * cap)) x in
    Array.blit t.data 0 data 0 t.len;
    t.data <- data
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

(* The one sift-down behind [sort], [select] and the heap primitives:
   restore the max-heap [a.(lo..lo+n-1)] below heap slot [root]. A loop,
   not a local recursive function, which would allocate a closure per
   call; the element moving down is held aside, with the comparisons of
   swapping it. *)
let sift_down a ~cmp ~lo ~n root =
  let x = a.(lo + root) in
  let k = ref root and settled = ref false in
  while not !settled do
    let c = (2 * !k) + 1 in
    if c >= n then settled := true
    else begin
      let c =
        if c + 1 < n && cmp a.(lo + c) a.(lo + c + 1) < 0 then c + 1 else c
      in
      if cmp x a.(lo + c) < 0 then begin
        a.(lo + !k) <- a.(lo + c);
        k := c
      end
      else settled := true
    end
  done;
  a.(lo + !k) <- x

let build_heap a ~cmp ~lo ~n =
  for root = (n - 2) / 2 downto 0 do
    sift_down a ~cmp ~lo ~n root
  done

let swap a i j =
  let x = a.(i) in
  a.(i) <- a.(j);
  a.(j) <- x

(* In-place heapsort over [data.(0..len-1)]: the stdlib only sorts whole
   arrays, which would force a fresh right-sized copy per call — the
   allocation this buffer exists to avoid. Not stable, so [cmp] must be a
   total order for deterministic output. *)
let heapsort a n ~cmp =
  build_heap a ~cmp ~lo:0 ~n;
  for last = n - 1 downto 1 do
    swap a 0 last;
    sift_down a ~cmp ~lo:0 ~n:last 0
  done

let sort t ~cmp = heapsort t.data t.len ~cmp

(* Partial sort: the [k] smallest elements end up in slots [0..k-1] in
   ascending order; the rest land in [k..len-1] in an unspecified (but
   deterministic) order. A max-heap of size [k] absorbs the scan, so the
   cost is O(len + len log k) instead of O(len log len) — the win when a
   budget consumes only a prefix of a large batch. With a total order the
   selected prefix is exactly the full sort's prefix. *)
let select t ~cmp k =
  let n = t.len in
  let k = max 0 (min k n) in
  if k = n then (if n > 1 then heapsort t.data n ~cmp)
  else if k > 0 then begin
    let a = t.data in
    (* Max-heap over the first k slots; any later element smaller than
       the heap root displaces it. *)
    build_heap a ~cmp ~lo:0 ~n:k;
    for i = k to n - 1 do
      if cmp a.(i) a.(0) < 0 then begin
        swap a i 0;
        sift_down a ~cmp ~lo:0 ~n:k 0
      end
    done;
    for last = k - 1 downto 1 do
      swap a 0 last;
      sift_down a ~cmp ~lo:0 ~n:last 0
    done
  end

let heapify t ~cmp ~lo ~hi =
  if lo < 0 || hi > t.len then invalid_arg "Sortbuf.heapify";
  build_heap t.data ~cmp ~lo ~n:(hi - lo)

let pop t ~cmp ~lo ~hi =
  if lo < 0 || hi > t.len || hi <= lo then invalid_arg "Sortbuf.pop";
  let a = t.data in
  let top = a.(lo) in
  let n = hi - lo - 1 in
  if n > 0 then begin
    a.(lo) <- a.(lo + n);
    sift_down a ~cmp ~lo ~n 0
  end;
  top

let iteri t f =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done
