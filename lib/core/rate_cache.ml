(* RAPID no longer caches believed rates: Eq. 9 is re-summed on every
   read (rapid.ml's [believed_rate]). This no-op stays only because the
   repository benchmark's traced runs still call it; drop it together
   with that call. *)
let register_counters () = ()
