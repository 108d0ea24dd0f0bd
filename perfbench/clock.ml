(* Monotonic nanosecond clock. Unix.gettimeofday has microsecond
   resolution, too coarse for single routes on the flat engines. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let now () = float_of_int (now_ns ()) *. 1e-9

let since t0 = now () -. t0
