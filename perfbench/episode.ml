(* One episode: a fresh VM, the workload's setup, a fixed number of
   direct calls of its iteration body, then the output check. The
   benchmark installs its own GC listener (not through the lp_harness
   run loop, which would replace it) and takes one pause sample per
   full collection: the [Vm.gc_pause_ns] delta since the previous one,
   however many slices the engine cut the collection into. *)

open Lp_runtime
module Stats = Lp_heap.Gc_stats

type outcome = {
  setup_ns : int;
  loop_ns : int;
  attempted : int;
  completed : int;
  iter_ns : Samples.t;  (** one per completed iteration-body call *)
  pause_ns : Samples.t;  (** one per full collection in the loop *)
  iter_ref_ns : Samples.t;  (** [iter_ns] in reference-host time; see [Reference] *)
  pause_ref_ns : Samples.t;  (** [pause_ns] in reference-host time *)
  host_factor : float;
      (** median over the loop's chunks of the kernel's time over
          [Reference.k0_ns]; 1 when the loop was not calibrated *)
  digest : string;  (** reclamation digest; see [digest] *)
  problem : string option;  (** the first failed operation or check *)
  layer : (string * float) list;  (** per-layer readings over the loop *)
}

(* Reclamation outputs that every engine must reproduce exactly. *)
let digest vm =
  let stats = Vm.stats vm in
  let ctl = Vm.controller vm in
  let name = Lp_heap.Class_registry.name (Vm.registry vm) in
  let pruned =
    List.map
      (fun (s, t) -> name s ^ "->" ^ name t)
      (Lp_core.Controller.pruned_edge_types ctl)
  in
  Printf.sprintf
    "collections=%d bytes_reclaimed=%d references_poisoned=%d live_bytes=%d cycles=%d pruned=[%s]"
    (Vm.gc_count vm) stats.Stats.bytes_reclaimed stats.Stats.references_poisoned
    (Vm.live_bytes vm) (Vm.cycles vm) (String.concat "," pruned)

let par_counts vm =
  match Vm.par_engine vm with
  | Some pe ->
    Lp_par.Par_engine.(pooled_rounds pe, dispatches pe, steals pe)
  | None -> (0, 0, 0)

(* Cumulative readings of every layer; the loop's share is the
   difference between two of these. *)
let readings vm =
  let s = Vm.stats vm in
  let ctl = Vm.controller vm in
  let host = Gc.quick_stat () in
  let rounds, dispatches, steals = par_counts vm in
  let count_state st =
    List.length
      (List.filter (fun r -> r.Vm.state = st) (Vm.gc_history vm))
  in
  let slo f = match Vm.autopilot vm with Some ap -> f ap | None -> 0 in
  List.map
    (fun (k, v) -> (k, float v))
    [
      ("collections", Vm.gc_count vm);
      ("gc_ns", Vm.gc_pause_ns vm);
      ("pause_samples", List.length (Vm.pause_samples vm));
      ("fields_scanned", s.Stats.fields_scanned);
      ("objects_marked", s.Stats.objects_marked);
      ("objects_swept", s.Stats.objects_swept);
      ("stale_closure_objects", s.Stats.stale_closure_objects);
      ("stale_tick_scans", s.Stats.stale_tick_scans);
      ("references_poisoned", s.Stats.references_poisoned);
      ("selection_scans", s.Stats.selection_scans);
      ("mark_wall_ns", Lp_core.Controller.mark_wall_ns ctl);
      ("select_gcs", count_state Lp_core.State_kind.Select);
      ("prune_gcs", count_state Lp_core.State_kind.Prune);
      ("pooled_rounds", rounds);
      ("dispatches", dispatches);
      ("steals", steals);
      ("slo_adjustments", slo Lp_slo.Autopilot.adjustments);
      ("slo_switches", slo Lp_slo.Autopilot.switches);
      ("slo_escalations", slo Lp_slo.Autopilot.escalations);
    ]
  @ [
      ("minor_words", host.Gc.minor_words);
      ("minor_gcs", float host.Gc.minor_collections);
      ("major_gcs", float host.Gc.major_collections);
    ]

(* End-of-loop states, reported as they stand rather than as deltas. *)
let end_states vm =
  let ctl = Vm.controller vm in
  List.map
    (fun (k, v) -> (k, float v))
    [
      ("edge_types", Lp_core.Edge_table.entry_count (Lp_core.Controller.edge_table ctl));
      ("pruned_types", List.length (Lp_core.Controller.pruned_edge_types ctl));
      ("slo_budget", match Vm.autopilot vm with Some ap -> Lp_slo.Autopilot.budget ap | None -> 0);
      ("max_slice_objects", Vm.max_slice_work vm);
    ]

let setup (c : Cases.t) ~seed =
  let w = c.Cases.workload ~seed in
  let t0 = Clock.now () in
  let vm = Vm.create ~config:c.Cases.config ~heap_bytes:w.Lp_workloads.Workload.default_heap_bytes () in
  match w.Lp_workloads.Workload.prepare vm with
  | body -> (vm, body, Clock.now () - t0)
  | exception e -> Vm.shutdown vm; raise e

(* Set-up alone: one [setup_s] sample. *)
let setup_only c ~seed =
  let vm, _, ns = setup c ~seed in
  Vm.shutdown vm;
  ns

(* Spans for one iteration-body call and the collections inside it,
   with the counts recorded at their boundaries. *)
type iter_trace = {
  spans : Spans.t;
  mutable iter_id : int;
  mutable mark : Stats.t;  (** collector counters at the last boundary *)
}

let gc_span tr vm ~pause_ns =
  let now = Clock.now () in
  let s = Vm.stats vm in
  let m = tr.mark in
  Spans.add tr.spans ~parent:tr.iter_id ~name:"gc" ~start_ns:(now - pause_ns)
    ~dur_ns:pause_ns
    [
      ("fields_scanned", s.Stats.fields_scanned - m.Stats.fields_scanned);
      ("objects_marked", s.Stats.objects_marked - m.Stats.objects_marked);
      ("objects_swept", s.Stats.objects_swept - m.Stats.objects_swept);
      ("stale_closure_objects", s.Stats.stale_closure_objects - m.Stats.stale_closure_objects);
    ];
  tr.mark <- Stats.copy s

(* A calibrated loop times [Reference] at its start and after every
   chunk of at least [chunk_ns] of loop time; each sample is scaled by
   the mean of the two kernel times around its chunk. *)
let chunk_ns = 50_000_000

let factor kernels c =
  float (Samples.get kernels c + Samples.get kernels (c + 1)) /. 2. /. float Reference.k0_ns

let scale kernels ~chunks raw =
  let out = Samples.create () in
  for i = 0 to Samples.length raw - 1 do
    Samples.push out
      (int_of_float (float (Samples.get raw i) /. factor kernels (Samples.get chunks i)))
  done;
  out

let run ?spans ?(probe = fun _ -> ()) ?(calibrate = false) (c : Cases.t) ~seed =
  let iter_ns = Samples.create () and pause_ns = Samples.create () in
  let failed_setup msg =
    {
      setup_ns = 0; loop_ns = 0; attempted = c.Cases.iterations; completed = 0;
      iter_ns; pause_ns; iter_ref_ns = iter_ns; pause_ref_ns = pause_ns; host_factor = 1.;
      digest = ""; problem = Some msg; layer = [];
    }
  in
  match setup c ~seed with
  | exception e -> failed_setup ("setup: " ^ Printexc.to_string e)
  | vm, body, setup_ns ->
    Fun.protect ~finally:(fun () -> Vm.shutdown vm) @@ fun () ->
    let tr = Option.map (fun spans -> { spans; iter_id = 0; mark = Stats.copy (Vm.stats vm) }) spans in
    Option.iter
      (fun tr ->
        Spans.add tr.spans ~name:"setup" ~start_ns:(Clock.now () - setup_ns)
          ~dur_ns:setup_ns [])
      tr;
    let kernels = Samples.create () and chunk = ref 0 and chunk_start = ref 0 in
    let iter_chunk = Samples.create () and pause_chunk = Samples.create () in
    let boundary () =
      Samples.push kernels (Reference.measure ());
      chunk_start := Clock.now ()
    in
    let last_pause = ref (Vm.gc_pause_ns vm) in
    Vm.set_gc_listener vm
      (Some
         (fun _ ->
           let total = Vm.gc_pause_ns vm in
           let ns = total - !last_pause in
           last_pause := total;
           Samples.push pause_ns ns;
           Samples.push pause_chunk !chunk;
           Option.iter (fun tr -> gc_span tr vm ~pause_ns:ns) tr));
    let before = readings vm in
    let problem = ref None in
    if calibrate then boundary ();
    let loop_start = Clock.now () in
    (try
       for _ = 1 to c.Cases.iterations do
         match tr with
         | None ->
           let t0 = Clock.now () in
           body ();
           let t1 = Clock.now () in
           Samples.push iter_ns (t1 - t0);
           Samples.push iter_chunk !chunk;
           if calibrate && t1 - !chunk_start >= chunk_ns then begin
             boundary ();
             incr chunk
           end
         | Some tr ->
           let id = Spans.fresh_id tr.spans in
           tr.iter_id <- id;
           tr.mark <- Stats.copy (Vm.stats vm);
           let gcs0 = Vm.gc_count vm and fields0 = tr.mark.Stats.fields_scanned in
           let words0 = Gc.minor_words () in
           let t0 = Clock.now () in
           body ();
           let dur = Clock.now () - t0 in
           Samples.push iter_ns dur;
           Spans.record tr.spans ~id ~name:"iter" ~start_ns:t0 ~dur_ns:dur
             [
               ("collections", Vm.gc_count vm - gcs0);
               ("fields_scanned", (Vm.stats vm).Stats.fields_scanned - fields0);
               ("host_minor_words", int_of_float (Gc.minor_words () -. words0));
             ]
       done
     with e -> problem := Some ("iteration: " ^ Printexc.to_string e));
    let loop_ns = Clock.now () - loop_start in
    if calibrate then boundary ();
    Vm.set_gc_listener vm None;
    let after = readings vm in
    let layer =
      List.map2 (fun (k, a) (_, b) -> (k, b -. a)) before after @ end_states vm
    in
    let collections = int_of_float (List.assoc "collections" layer) in
    let check () =
      if Samples.length pause_ns <> collections then
        Some
          (Printf.sprintf "%d pause samples for %d collections"
             (Samples.length pause_ns) collections)
      else
        match Lp_runtime.Diagnostics.heap_check ~strict:true vm with
        | Error msg -> Some ("heap_check: " ^ msg)
        | Ok () -> (
          try probe vm; None with e -> Some ("probe: " ^ Printexc.to_string e))
    in
    let digest = digest vm in
    let problem = match !problem with Some _ as p -> p | None -> check () in
    let iter_ref_ns, pause_ref_ns, host_factor =
      if calibrate then
        ( scale kernels ~chunks:iter_chunk iter_ns,
          scale kernels ~chunks:pause_chunk pause_ns,
          Samples.median_of_floats (List.init (Samples.length kernels - 1) (factor kernels)) )
      else (iter_ns, pause_ns, 1.)
    in
    {
      setup_ns; loop_ns; attempted = c.Cases.iterations;
      completed = Samples.length iter_ns; iter_ns; pause_ns; iter_ref_ns; pause_ref_ns;
      host_factor; digest; problem; layer;
    }
