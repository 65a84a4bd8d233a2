(* Monotonic wall clock in nanoseconds (CLOCK_MONOTONIC, no allocation). *)
let now () = Int64.to_int (Monotonic_clock.now ())
