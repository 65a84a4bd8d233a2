(* Timed calls into single layers on a workload's final heap (traced
   run only). Each probe runs several batches and keeps the median
   batch; a batch reports wall ns and host minor words per call. *)

open Lp_runtime
open Lp_heap

type row = { name : string; ops : int; ns_per_op : float; words_per_op : float }

type table = { rows : row list; gc_untimed_frac : float }

(* [timed ()] runs one batch and returns its ns, minus any time the
   batch should not be charged for. *)
let batches ?spans ~name ~ops ~runs timed =
  let start_ns = Clock.now () in
  let results =
    List.init runs (fun _ ->
        let w0 = Gc.minor_words () in
        let ns = timed () in
        (float ns /. float ops, (Gc.minor_words () -. w0) /. float ops))
  in
  Option.iter
    (fun s ->
      Spans.add s ~name:("probe." ^ name) ~start_ns ~dur_ns:(Clock.now () - start_ns)
        [ ("ops", ops * runs) ])
    spans;
  {
    name;
    ops;
    ns_per_op = Samples.median_of_floats (List.map fst results);
    words_per_op = Samples.median_of_floats (List.map snd results);
  }

let repeat ~ops f () =
  let t0 = Clock.now () in
  for _ = 1 to ops do f () done;
  Clock.now () - t0

exception Found of Heap_obj.t * int

(* The first live object, in store order, holding a clean reference. *)
let reference_field vm =
  let store = Vm.store vm in
  try
    Store.iter_live store (fun obj ->
        Array.iteri
          (fun i w ->
            if (not (Word.is_null w)) && (not (Word.poisoned w))
               && Store.mem store (Word.target w)
            then raise (Found (obj, i)))
          obj.Heap_obj.fields);
    failwith "no clean reference on the heap"
  with Found (obj, i) -> (obj, i)

let run ?spans vm =
  let obj, i = reference_field vm in
  ignore (Mutator.read vm obj i);
  let read_fast =
    batches ?spans ~name:"read_fast" ~ops:100_000 ~runs:7
      (repeat ~ops:100_000 (fun () -> ignore (Mutator.read vm obj i)))
  in
  let read_cold =
    batches ?spans ~name:"read_cold" ~ops:100_000 ~runs:7
      (repeat ~ops:100_000 (fun () ->
           (* re-arm the untouched bit so every load takes the cold path *)
           obj.Heap_obj.fields.(i) <- Word.set_untouched obj.Heap_obj.fields.(i);
           ignore (Mutator.read vm obj i)))
  in
  (* Garbage allocations; the collections they trigger are subtracted
     so the row is the allocation path alone. *)
  let class_id = Vm.register_class vm "Perfbench$Probe" in
  let alloc =
    batches ?spans ~name:"alloc_class" ~ops:10_000 ~runs:5 (fun () ->
        let gc0 = Vm.gc_pause_ns vm in
        let ns =
          repeat ~ops:10_000
            (fun () -> ignore (Vm.alloc_class vm ~class_id ~scalar_bytes:16 ~n_fields:2 ()))
            ()
        in
        ns - (Vm.gc_pause_ns vm - gc0))
  in
  let outside = ref 0 and inside = ref 0 in
  let run_gc =
    batches ?spans ~name:"run_gc" ~ops:1 ~runs:9 (fun () ->
        let gc0 = Vm.gc_pause_ns vm in
        let ns = repeat ~ops:1 (fun () -> Vm.run_gc vm) () in
        outside := !outside + ns;
        inside := !inside + (Vm.gc_pause_ns vm - gc0);
        ns)
  in
  let table = Lp_core.Controller.edge_table (Vm.controller vm) in
  let select =
    batches ?spans ~name:"select_max_bytes" ~ops:2_000 ~runs:7
      (repeat ~ops:2_000 (fun () -> ignore (Lp_core.Edge_table.select_max_bytes table)))
  in
  {
    rows = [ read_fast; read_cold; alloc; run_gc; select ];
    gc_untimed_frac = float (!outside - !inside) /. float (max 1 !outside);
  }

let find t name =
  match List.find_opt (fun r -> r.name = name) t.rows with
  | Some r -> r
  | None -> invalid_arg name
