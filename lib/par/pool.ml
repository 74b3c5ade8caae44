(* A fixed-size Domain worker pool, hand-rolled over Domain + Mutex +
   Condition (no dependencies beyond the OCaml 5 stdlib).

   Design constraints, in order:

   1. Determinism. [map] preserves input order and propagates the
      lowest-index exception, so a parallel run is observationally
      identical to the sequential [List.map] — parallelism may only
      change wall time, never results. Every simulation cell already
      derives its RNGs from explicit seeds; the pool adds no ordering
      of its own to the results.
   2. Exact observability. Workers fold their per-domain Counter/Timer
      cells into the shared merged totals *before* signalling task
      completion, so a registry snapshot taken after [map] returns equals
      the sequential run's totals (see Rapid_obs.Counter.merge_domain).
   3. No nested parallelism. A [map] issued from inside a worker (e.g. a
      figure driver fanning out over loads whose point runner fans out
      over days) runs sequentially inline — bounded domain count, no
      deadlock, same results. *)

type t = {
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  tasks : (unit -> unit) Queue.t;
  capacity : int;  (* queue bound; submitters block when full *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
  jobs : int;
}

(* Set in every worker domain; [map] consults it to inline nested calls. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let inside_worker () = Domain.DLS.get in_worker

let worker_loop t =
  Domain.DLS.set in_worker true;
  let rec next () =
    Mutex.lock t.lock;
    while Queue.is_empty t.tasks && not t.stop do
      Condition.wait t.not_empty t.lock
    done;
    if Queue.is_empty t.tasks then Mutex.unlock t.lock (* stop requested *)
    else begin
      let task = Queue.pop t.tasks in
      Condition.signal t.not_full;
      Mutex.unlock t.lock;
      task ();
      next ()
    end
  in
  next ()

let max_jobs = 127

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      lock = Mutex.create ();
      not_empty = Condition.create ();
      not_full = Condition.create ();
      tasks = Queue.create ();
      capacity = 4 * jobs;
      stop = false;
      workers = [];
      jobs;
    }
  in
  if jobs > 1 then
    t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let jobs t = t.jobs

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.not_empty;
  Mutex.unlock t.lock;
  List.iter Domain.join t.workers;
  t.workers <- []

let submit t task =
  Mutex.lock t.lock;
  while Queue.length t.tasks >= t.capacity do
    Condition.wait t.not_full t.lock
  done;
  Queue.push task t.tasks;
  Condition.signal t.not_empty;
  Mutex.unlock t.lock

let map_pool t f xs =
  if t.workers = [] || inside_worker () then List.map f xs
  else begin
    let arr = Array.of_list xs in
    let n = Array.length arr in
    if n <= 1 then List.map f xs
    else begin
      let results = Array.make n None in
      let remaining = ref n in
      let done_lock = Mutex.create () in
      let done_cond = Condition.create () in
      for i = 0 to n - 1 do
        submit t (fun () ->
            let r =
              try Ok (f arr.(i))
              with e -> Error (e, Printexc.get_raw_backtrace ())
            in
            (* Fold this domain's obs deltas in before completion so a
               snapshot taken once [map] returns matches a sequential
               run's totals. *)
            Rapid_obs.Counter.merge_domain ();
            Rapid_obs.Timer.merge_domain ();
            Mutex.lock done_lock;
            results.(i) <- Some r;
            decr remaining;
            if !remaining = 0 then Condition.signal done_cond;
            Mutex.unlock done_lock)
      done;
      Mutex.lock done_lock;
      while !remaining > 0 do
        Condition.wait done_cond done_lock
      done;
      Mutex.unlock done_lock;
      (* All tasks ran to completion; re-raise the lowest-index failure
         (Array.map visits indices in order), as the sequential map would
         have raised it first. *)
      Array.to_list
        (Array.map
           (function
             | Some (Ok v) -> v
             | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
             | None -> assert false)
           results)
    end
  end

(* ------------------------------------------------------------------ *)
(* The process-global pool, configured once by the CLI (--jobs N) and
   shared by every runner: created lazily on first parallel map, torn
   down (and its domains joined) on reconfiguration and at exit. *)

let global_lock = Mutex.create ()
let configured_jobs = ref 1
let global : t option ref = ref None
let exit_hook_registered = ref false

let shutdown_global () =
  Mutex.protect global_lock (fun () ->
      match !global with
      | Some p ->
          global := None;
          shutdown p
      | None -> ())

let set_jobs n =
  let n = max 1 n in
  let stale =
    Mutex.protect global_lock (fun () ->
        if n = !configured_jobs then None
        else begin
          configured_jobs := n;
          let old = !global in
          global := None;
          old
        end)
  in
  Option.iter shutdown stale

let configured () = !configured_jobs

let get_global () =
  Mutex.protect global_lock (fun () ->
      match !global with
      | Some p -> p
      | None ->
          let p = create ~jobs:!configured_jobs in
          global := Some p;
          if not !exit_hook_registered then begin
            exit_hook_registered := true;
            (* Join the workers before process exit rather than letting
               [exit] tear down domains blocked in Condition.wait. *)
            at_exit shutdown_global
          end;
          p)

let map f xs =
  if !configured_jobs <= 1 || inside_worker () then List.map f xs
  else map_pool (get_global ()) f xs

let init n f = map f (List.init n (fun i -> i))
