(* The benchmark-owned calibration loop: the machine's speed, measured
   with code no program change can touch.

   The loop allocates short-lived records into a table larger than the
   cache and walks it, the access pattern of a simulator run, so memory
   and cache contention from other tenants of a shared machine slow it
   as they slow a run. Time metrics are taken paired with a pass of it
   and reported at the reference speed [reference_ms]: raw time times
   [reference_ms / pass time]. A slower program reads slower; a slower
   machine does not. *)

(* What one pass takes on the reference machine (a quiet 2-core x86-64
   cloud VM); a fixed constant, so normalized figures compare across
   commits. *)
let reference_ms = 60.0

let pass_ms () =
  let t0 = Meter.now_ns () in
  let tbl = Hashtbl.create 16 in
  for i = 0 to 99_999 do
    Hashtbl.replace tbl ((i * 7919) land 0x7FFFF) (float_of_int i, i)
  done;
  let acc = ref 0.0 in
  for _ = 1 to 5 do
    Hashtbl.iter (fun _ (f, i) -> acc := !acc +. f +. float_of_int (i land 7)) tbl
  done;
  ignore (Sys.opaque_identity !acc);
  Meter.elapsed_ns t0 /. 1e6

(* Scales a raw time measured next to a pass that took [pass] ms. *)
let normalize ~pass raw = raw *. reference_ms /. pass
