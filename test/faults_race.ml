(* Stress test for first-use registration of the fault counters. Eight
   domains are released together, and each records one metadata drop, the
   first fault this process sees, so they all race to register the
   [faults.*] counters. A [lazy] forced by two domains at once raises
   [CamlinternalLazy.Undefined], so registration must not go through one.
   The race shows only in some fresh processes, so ci/check.sh runs this
   program in a loop. Exit 0 means every domain returned and the merged
   count is exactly one drop per domain.

   Usage: dune exec test/faults_race.exe *)

module Faults = Rapid_faults.Faults
module Counter = Rapid_obs.Counter

let domains = 8

let () =
  let ready = Atomic.make 0 and go = Atomic.make false in
  let worker () =
    Atomic.incr ready;
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Faults.note_meta_drop ();
    Counter.merge_domain ()
  in
  let spawned = List.init domains (fun _ -> Domain.spawn worker) in
  while Atomic.get ready < domains do
    Domain.cpu_relax ()
  done;
  Atomic.set go true;
  List.iter Domain.join spawned;
  match List.assoc_opt "faults.meta_drops" (Counter.snapshot ()) with
  | Some n when n = domains -> ()
  | found ->
      Printf.eprintf "faults.meta_drops = %s, want %d\n"
        (match found with Some n -> string_of_int n | None -> "unregistered")
        domains;
      exit 1
