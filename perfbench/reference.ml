(* The host-speed reference: a fixed kernel, written here and using
   nothing from the repository's libraries, so no change to the program
   can change its work.

   On a shared host the speed of this process changes from second to
   second with what runs beside it, by up to 2x for these workloads and
   for minutes at a time, so a run does not average that away. The benchmark times this
   kernel between chunks of the measured loop and divides every timing
   in a chunk by the kernel's slowdown around it (its time over
   [k0_ns]). That gives times on a host where the kernel takes [k0_ns]:
   the program's own cost, with the host's speed at the time divided
   out.

   The kernel allocates [blocks] small arrays into the emptied minor
   heap and reads each back: it writes 1.5 MB of fresh memory, as the
   workloads' allocation does, and triggers no collection inside the
   timed part, so the program's heap cannot change its cost. Of the
   kernels tried it slows down most nearly as the workloads do when the
   host is loaded; mark loops over a fixed graph slowed down only half
   as much (in log terms), whether the graph fit in L2 or not. *)

let blocks = 15_000
let block_words = 12

(* About the kernel's time on an unloaded 2.0 GHz Xeon vCPU. *)
let k0_ns = 350_000

let () =
  if (Gc.get ()).Gc.minor_heap_size < blocks * (block_words + 1) then
    invalid_arg "Reference: the minor heap is too small for the kernel"

(* One run of the kernel; returns its wall time in ns. The minor
   collection that empties the minor heap first is not timed. *)
let measure () =
  Gc.minor ();
  let t0 = Clock.now () in
  let sum = ref 0 in
  for i = 1 to blocks do
    let a = Array.make block_words i in
    sum := !sum + Array.unsafe_get (Sys.opaque_identity a) (block_words / 2)
  done;
  let ns = Clock.now () - t0 in
  if !sum <> blocks * (blocks + 1) / 2 then invalid_arg "Reference.measure";
  ns
