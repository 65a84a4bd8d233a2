type edge = { src : Heap_obj.t; field : int; tgt : Heap_obj.t }

type edge_action = Trace | Defer | Poison

type mark_config = {
  set_untouched_bits : bool;
  stale_tick_gc : int option;
  edge_filter : (edge -> edge_action) option;
  on_poison : (edge -> unit) option;
  events : Lp_obs.Sink.t option;
}

let base_config =
  {
    set_untouched_bits = false;
    stale_tick_gc = None;
    edge_filter = None;
    on_poison = None;
    events = None;
  }

let tick stats gc obj =
  match gc with
  | None -> ()
  | Some gc_number ->
    stats.Gc_stats.stale_tick_scans <- stats.Gc_stats.stale_tick_scans + 1;
    if Stale_counter.tick_object ~gc_number obj then
      stats.Gc_stats.stale_ticks <- stats.Gc_stats.stale_ticks + 1

(* Staleness ticks for objects marked during a filtered closure are
   accumulated in a batch and applied only after the whole closure
   finishes: the edge filter reads target staleness, so ticking
   mid-traversal would make filter decisions depend on visit order
   (sequential and incremental DFS, the parallel engine's BFS rounds).
   Deferral keeps every filter evaluation against the mark-start
   staleness; the final counters are unchanged because a tick depends
   only on the object's own counter and the collection number. *)
type tick_batch = { gc : int option; mutable pending : Heap_obj.t list }

let tick_batch gc = { gc; pending = [] }

let flush_ticks stats batch =
  List.iter (tick stats batch.gc) (List.rev batch.pending);
  batch.pending <- []

let claim_in_use stats batch (obj : Heap_obj.t) =
  obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
  stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
  if batch.gc <> None then batch.pending <- obj :: batch.pending

let claim_stale stats ~stale_tick_gc ~bytes (obj : Heap_obj.t) =
  obj.Heap_obj.header <-
    Header.set_stale_marked (Header.set_marked obj.Heap_obj.header);
  stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
  tick stats stale_tick_gc obj;
  stats.Gc_stats.stale_closure_objects <-
    stats.Gc_stats.stale_closure_objects + 1;
  bytes := !bytes + obj.Heap_obj.size_bytes

(* A non-poisoned reference word whose target is not live is corrupt
   (fault injection, or a collector bug). Crashing inside a collection
   would take the whole VM down, so the word is quarantined instead:
   poisoned like a pruned reference, turning any later program access
   into a structured error. *)
let quarantine ?(events = None) stats fields i =
  (match events with
  | Some sink ->
    Lp_obs.Sink.emit sink
      (Lp_obs.Event.Quarantine { target = Word.target fields.(i) })
  | None -> ());
  fields.(i) <- Word.poison fields.(i);
  stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1

(* Scans one field of [obj]: maintains the untouched bit, evaluates the
   note hook and the edge filter, and dispatches the action. [on_trace]
   is called for unmarked [Trace] targets; the closure claims and queues
   there. (The parallel engine's packet scan records discoveries for the
   coordinator instead of claiming; see [Lp_par.Par_engine].) *)
let scan_field store stats ~(config : mark_config) ~note ~on_trace ~deferred
    (obj : Heap_obj.t) i =
  let fields = obj.Heap_obj.fields in
  let w = fields.(i) in
  if not (Word.is_null w) then begin
    stats.Gc_stats.fields_scanned <- stats.Gc_stats.fields_scanned + 1;
    if not (Word.poisoned w) then begin
      let w =
        if config.set_untouched_bits && not (Word.untouched w) then begin
          let w' = Word.set_untouched w in
          fields.(i) <- w';
          stats.Gc_stats.untouched_bits_set <-
            stats.Gc_stats.untouched_bits_set + 1;
          w'
        end
        else w
      in
      match Store.get_opt store (Word.target w) with
      | None -> quarantine ~events:config.events stats fields i
      | Some tgt -> (
        (match note with
        | None -> ()
        | Some f -> f { src = obj; field = i; tgt });
        let action =
          match config.edge_filter with
          | None -> Trace
          | Some filter -> filter { src = obj; field = i; tgt }
        in
        match action with
        | Trace ->
          if not (Header.marked tgt.Heap_obj.header) then on_trace tgt
        | Defer ->
          stats.Gc_stats.candidates_enqueued <-
            stats.Gc_stats.candidates_enqueued + 1;
          deferred := { src = obj; field = i; tgt } :: !deferred
        | Poison ->
          (* the hook sees the edge while the target's subtree is still
             intact, so it can capture a swap image before the sweep *)
          (match config.on_poison with
          | Some f -> f { src = obj; field = i; tgt }
          | None -> ());
          (match config.events with
          | Some sink ->
            Lp_obs.Sink.emit sink
              (Lp_obs.Event.Edge_poisoned
                 {
                   src_class = obj.Heap_obj.class_id;
                   field = i;
                   target = tgt.Heap_obj.id;
                 })
          | None -> ());
          fields.(i) <- Word.poison w;
          stats.Gc_stats.references_poisoned <-
            stats.Gc_stats.references_poisoned + 1)
    end
  end

type boundary = {
  budget : int;
  on_slice : int -> (Heap_obj.t -> int -> unit) -> unit;
}

(* Pops and scans up to [budget - work] objects; returns the slice's
   work. Top-level, so the unsliced drain allocates no closure. *)
let rec step store stats ~config ~note ~on_trace ~deferred queue budget work =
  if work >= budget then work
  else
    match Work_queue.pop queue with
    | None -> work
    | Some id ->
      let obj = Store.get store id in
      for i = 0 to Array.length obj.Heap_obj.fields - 1 do
        scan_field store stats ~config ~note ~on_trace ~deferred obj i
      done;
      step store stats ~config ~note ~on_trace ~deferred queue budget (work + 1)

(* The DFS drain of both closures. Without a boundary it pops until the
   queue is empty; with one, every [budget] scanned objects it hands
   [on_slice] the slice's work and a rescan through this very scan,
   then resumes while the queue holds work. The pop order is the same
   either way, so slicing moves boundaries and changes no outcome. *)
let drain store stats ~config ~note ~on_trace ~deferred queue boundary =
  match boundary with
  | None ->
    ignore (step store stats ~config ~note ~on_trace ~deferred queue max_int 0)
  | Some b ->
    let rescan src i =
      scan_field store stats ~config ~note ~on_trace ~deferred src i
    in
    let rec slices () =
      b.on_slice
        (step store stats ~config ~note ~on_trace ~deferred queue b.budget 0)
        rescan;
      if not (Work_queue.is_empty queue) then slices ()
    in
    slices ()

(* Fuses the split Individual_refs byte-accounting pair into the
   per-edge note hook the scan expects. The parallel engine keeps the
   halves apart so workers stay pure. *)
let note_fn ?edge_note ?apply_note () =
  match edge_note with
  | None -> None
  | Some en ->
    Some
      (fun e ->
        match en e with
        | None -> ()
        | Some triple -> (
          match apply_note with None -> () | Some ap -> ap triple))

let mark ?edge_note ?apply_note ?boundary store roots ~stats ~config =
  let queue = Work_queue.create () in
  let deferred = ref [] in
  let batch = tick_batch config.stale_tick_gc in
  let on_trace (obj : Heap_obj.t) =
    claim_in_use stats batch obj;
    Work_queue.push queue obj.Heap_obj.id
  in
  Roots.iter roots (fun id ->
      let obj = Store.get store id in
      if not (Header.marked obj.Heap_obj.header) then on_trace obj);
  drain store stats ~config ~note:(note_fn ?edge_note ?apply_note ())
    ~on_trace ~deferred queue boundary;
  flush_ticks stats batch;
  List.rev !deferred

(* The stale closure traces everything (no filter), claiming with the
   stale bit and a byte count instead of the in-use claim. *)
let stale_closure ?events ?boundary store ~stats ~set_untouched_bits
    ~stale_tick_gc (e : edge) =
  if Header.marked e.tgt.Heap_obj.header then 0
  else begin
    let config =
      {
        set_untouched_bits;
        stale_tick_gc;
        edge_filter = None;
        on_poison = None;
        events;
      }
    in
    let queue = Work_queue.create () in
    let bytes = ref 0 in
    let on_trace (obj : Heap_obj.t) =
      claim_stale stats ~stale_tick_gc ~bytes obj;
      Work_queue.push queue obj.Heap_obj.id
    in
    on_trace e.tgt;
    drain store stats ~config ~note:None ~on_trace ~deferred:(ref []) queue
      boundary;
    !bytes
  end

(* Stale closures claim shared sub-structures first-come-first-served,
   so candidate order affects which edge type the claimed bytes are
   attributed to. Every engine processes candidates in canonical
   (source id, field) order — a total order on edges — so SELECT
   outcomes do not depend on traversal strategy, slice budget or domain
   count. *)
let canonical_candidates deferred =
  List.sort
    (fun (a : edge) (b : edge) ->
      match compare a.src.Heap_obj.id b.src.Heap_obj.id with
      | 0 -> compare a.field b.field
      | c -> c)
    deferred

let resurrect_finalizables store ~stats ~on_finalize =
  (* Collect first: marking referents while iterating would otherwise make
     the visit order matter. *)
  let pending = ref [] in
  Store.iter_live store (fun obj ->
      let h = obj.Heap_obj.header in
      if
        (not (Header.marked h))
        && Header.finalizable h
        && not (Header.finalizer_enqueued h)
      then pending := obj :: !pending);
  let queue = Work_queue.create () in
  let mark_live (obj : Heap_obj.t) =
    if not (Header.marked obj.Heap_obj.header) then begin
      obj.Heap_obj.header <- Header.set_marked obj.Heap_obj.header;
      stats.Gc_stats.objects_marked <- stats.Gc_stats.objects_marked + 1;
      Work_queue.push queue obj.Heap_obj.id
    end
  in
  let finalize (obj : Heap_obj.t) =
    obj.Heap_obj.header <- Header.set_finalizer_enqueued obj.Heap_obj.header;
    stats.Gc_stats.finalizers_enqueued <- stats.Gc_stats.finalizers_enqueued + 1;
    mark_live obj;
    on_finalize obj
  in
  List.iter finalize (List.rev !pending);
  let rec loop () =
    match Work_queue.pop queue with
    | None -> ()
    | Some id ->
      let obj = Store.get store id in
      let fields = obj.Heap_obj.fields in
      for i = 0 to Array.length fields - 1 do
        let w = fields.(i) in
        if (not (Word.is_null w)) && not (Word.poisoned w) then
          match Store.get_opt store (Word.target w) with
          | None -> quarantine stats fields i
          | Some tgt -> mark_live tgt
      done;
      loop ()
  in
  loop ()

(* Segments are walked in DESCENDING slot order and each segment's dead
   are freed before the next segment is scanned: within a segment the
   dead list is built by consing during an ascending range walk (so it
   comes out descending), which makes the overall free order strictly
   descending at every segment size and keeps [Store] free-id recycling
   identical across engines. The segment count is taken as
   [(n - 1) / seg + 1], not [(n + seg - 1) / seg], which overflows for a
   segment near [max_int]. *)
let sweep ?(seg_slots = max_int) ?(on_segment = ignore) store ~stats =
  let n_slots = Store.slot_count store in
  let seg = max 1 seg_slots in
  let n_segs = if n_slots = 0 then 0 else ((n_slots - 1) / seg) + 1 in
  let live = ref 0 in
  for i = n_segs - 1 downto 0 do
    let lo = i * seg in
    let dead = ref [] in
    Store.iter_live_range store ~lo ~hi:(lo + min seg (n_slots - lo))
      (fun obj ->
        if Header.marked obj.Heap_obj.header then begin
          obj.Heap_obj.header <- Header.clear_gc_bits obj.Heap_obj.header;
          live := !live + obj.Heap_obj.size_bytes
        end
        else dead := obj :: !dead);
    List.iter
      (fun (obj : Heap_obj.t) ->
        stats.Gc_stats.objects_swept <- stats.Gc_stats.objects_swept + 1;
        stats.Gc_stats.bytes_reclaimed <-
          stats.Gc_stats.bytes_reclaimed + obj.Heap_obj.size_bytes;
        Store.free store obj)
      !dead;
    on_segment ()
  done;
  Store.set_live_bytes store !live
