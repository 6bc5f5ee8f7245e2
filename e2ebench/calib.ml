(* Calibration of timings on a shared host.

   On the host this benchmark was tuned on, other tenants' memory traffic
   slows allocation-heavy code by 20-70% in bursts lasting seconds to
   minutes, while a register-only loop stays within 5%.  The end-to-end
   timings are therefore scaled by a fixed loop of the same character
   (allocation and pointer chasing, stdlib only, independent of the code
   under test), run from a collected heap right before each timed sample:

     reported = measured * nominal_ns / loop_ns

   i.e. the time the sample would have taken had the loop run at its
   nominal speed.  A change to the program cannot move the loop, so the
   ratio between two commits is kept; what is removed is the host's
   common-mode slowdown.  Unscaled figures are printed next to the scaled
   ones. *)

module M = Map.Make (Int)

let nominal_ns = 20_000_000.0

(* Inserts 40k keys into a map and lists it: about 20 ms from a collected
   heap on a 2.0 GHz Xeon in a quiet period, hence [nominal_ns]. *)
let loop_ns () =
  let t0 = Spans.now () in
  let m = ref M.empty in
  for i = 1 to 40_000 do
    m := M.add ((i * 7919) land 0xfffff) i !m
  done;
  let listed = M.fold (fun k v acc -> (k, v) :: acc) !m [] in
  ignore (Sys.opaque_identity (List.length listed));
  Spans.now () - t0

(* The factor to multiply a time measured right after this call by. *)
let scale () = nominal_ns /. float_of_int (loop_ns ())
