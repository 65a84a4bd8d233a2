(* The pause-bounded incremental engine.

   Identical to the sequential engine in every reclamation outcome, by
   construction: the mark and stale closures are Collector's own DFS
   with a slice boundary every [slice_budget] scanned objects, and the
   sweep is Collector's sweep in [slice_budget]-slot segments, whose
   descending order reproduces the unsegmented free order exactly. The
   differential oracle enforces this at multiple budgets. Only the
   pause profile changes: each mark slice and each sweep segment is
   recorded as its own tagged pause sample, so max pause is bounded by
   the budget instead of by heap size.

   Reference-slot stores made while marking is in progress are logged
   through [note_mutation] (Remset-backed, deduplicated) and the logged
   slots are re-scanned at the next mark-slice boundary, exactly like
   remembered-set roots. Slices never return to the mutator in this
   stop-the-world VM, so the log is empty during collections; tests
   drive the replay directly.

   The budget lives in the recorder and is mutable between collections:
   the pause-SLO autopilot retunes it from wall-clock feedback, which is
   safe exactly because the budget can never change an outcome, only
   where the slice boundaries fall. *)

type t = {
  recorder : Trace_engine.recorder;
  log : Remset.t;  (* slots mutated while a mark is in progress *)
  mutable marking : bool;
  mutable slices : int;  (* mark slices run, all collections *)
  mutable replays : int;  (* logged slots re-scanned, all collections *)
}

let create ~slice_budget () =
  {
    recorder = Trace_engine.recorder ~budget:slice_budget;
    log = Remset.create ();
    marking = false;
    slices = 0;
    replays = 0;
  }

let slices t = t.slices

let replays t = t.replays

let log_mutation t ~src_id ~field = Remset.add t.log ~src_id ~field

(* Replays the mutation log against the current mark state: a slot of
   a marked (already-scanned or queued) source is re-scanned with the
   closure's own scan, so a target hidden by a mid-mark write is
   discovered all the same. Unmarked sources need nothing — their slots
   will be scanned when (if) the source is reached. *)
let replay_log t store rescan =
  if Remset.cardinality t.log > 0 then begin
    Remset.iter t.log (fun ~src_id ~field ->
        match Store.get_opt store src_id with
        | Some src when Header.marked src.Heap_obj.header ->
          t.replays <- t.replays + 1;
          rescan src field
        | Some _ | None -> ());
    Remset.clear t.log
  end

let mark t ?edge_note ?apply_note store roots ~stats ~config =
  t.marking <- true;
  let boundary =
    Trace_engine.mark_boundary t.recorder ~on_slice:(fun rescan ->
        t.slices <- t.slices + 1;
        replay_log t store rescan)
  in
  let deferred =
    Collector.mark ?edge_note ?apply_note ~boundary store roots ~stats ~config
  in
  t.marking <- false;
  deferred

(* No log replay here: [marking] is false, so the hook never fires
   during stale closures. *)
let stale_closure t ?events store ~stats ~set_untouched_bits ~stale_tick_gc e
    =
  let boundary =
    Trace_engine.mark_boundary t.recorder ~on_slice:(fun _ ->
        t.slices <- t.slices + 1)
  in
  Collector.stale_closure ?events ~boundary store ~stats ~set_untouched_bits
    ~stale_tick_gc e

let engine t =
  {
    Trace_engine.name =
      Printf.sprintf "inc%d" (Trace_engine.slice_budget t.recorder);
    mark =
      (fun ~gc:_ ?edge_note ?apply_note store roots ~stats ~config ->
        mark t ?edge_note ?apply_note store roots ~stats ~config);
    begin_stale = (fun () -> ());
    stale_closure =
      (fun ~gc:_ ?events store ~stats ~set_untouched_bits ~stale_tick_gc e ->
        stale_closure t ?events store ~stats ~set_untouched_bits
          ~stale_tick_gc e);
    end_stale = (fun ~gc:_ ~events:_ -> ());
    sweep =
      (fun ~gc:_ ?events:_ store ~stats ->
        Trace_engine.sweep t.recorder store ~stats);
    minor_drain = None;
    note_mutation =
      Some
        (fun ~src ~field ->
          if t.marking then
            log_mutation t ~src_id:src.Heap_obj.id ~field);
    recorder = Some t.recorder;
    shutdown = (fun () -> ());
  }
