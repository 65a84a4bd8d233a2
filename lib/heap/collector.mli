(** The tracing closure, written once for every engine.

    The paper piggybacks leak pruning on MMTk's parallel mark-sweep
    collector by splitting the usual transitive closure into an {e in-use}
    closure and a {e stale} closure (Section 4.2). This module is the one
    home of each step of that closure: the edge vocabulary, the per-field
    scan, the in-use and stale claims, the DFS drain both closures share
    (with an optional slice boundary), the end-of-phase staleness-tick
    batch, corrupt-word quarantine, the canonical candidate order and the
    segmented sweep. Every {!Trace_engine} composes these:

    - {!Trace_engine.sequential} runs {!mark}, {!stale_closure} and
      {!sweep} with no boundary;
    - {!Inc_engine} runs the same calls with a {!boundary} every
      [slice_budget] scanned objects and a sweep segment of
      [slice_budget] slots;
    - [Lp_par.Par_engine] scans packets on worker domains but claims
      through {!claim_in_use} and {!claim_stale}, and its one-domain and
      sliced sweeps are {!sweep}.

    The [Lp_core] controller drives the phases per collection mode:

    - base/observe collection: [mark] with no filter, then
      [resurrect_finalizables], then [sweep];
    - SELECT collection: [mark] with a filter deferring candidate
      references, then [stale_closure] per candidate, then finalizers and
      sweep;
    - PRUNE collection: [mark] with a filter poisoning selected
      references, then finalizers and sweep.

    The closures are iterative over an explicit {!Work_queue}, so
    arbitrarily deep structures cannot overflow the OCaml stack. *)

type edge = { src : Heap_obj.t; field : int; tgt : Heap_obj.t }
(** A heap reference under examination: [src.fields.(field)] refers to
    [tgt]. *)

type edge_action =
  | Trace  (** follow the reference normally *)
  | Defer  (** add to the candidate queue; do not trace now (SELECT) *)
  | Poison  (** invalidate the reference and do not trace it (PRUNE) *)

type mark_config = {
  set_untouched_bits : bool;
      (** set bit 0 of every scanned object-to-object reference so the
          read barrier can detect first use after this collection; enabled
          from the OBSERVE state onwards *)
  stale_tick_gc : int option;
      (** when [Some gc_number], apply the Section 4.1 staleness
          increment to each object marked during the closure — ticking
          piggybacks on tracing, as in the paper, so only live objects
          pay for it. The in-use closure applies its ticks in one batch
          after it finishes; see {!tick_batch} for the invariant *)
  edge_filter : (edge -> edge_action) option;
      (** [None] traces everything (base collection) *)
  on_poison : (edge -> unit) option;
      (** invoked for every edge the filter resolves to [Poison], before
          the word is poisoned — the target and its subtree are still
          fully intact, which is the window the resurrection subsystem
          uses to serialize swap images of the doomed closure *)
  events : Lp_obs.Sink.t option;
      (** observability sink: per-edge [Edge_poisoned] and [Quarantine]
          events are emitted as the scan applies them; [None] (the
          default) costs one branch per poisoned or quarantined edge and
          nothing on traced edges *)
}

val base_config : mark_config
(** No untouched bits, no filter. *)

(** {1 Claims} *)

type tick_batch
(** The staleness ticks of an in-use closure, applied in one batch after
    the closure finishes. The edge filter reads target staleness; batch
    application keeps its decisions a function of the mark-start heap
    alone, independent of traversal order (DFS, sliced DFS, or BFS
    rounds). The final counters are unchanged because a tick depends
    only on the object's own counter and the collection number. *)

val tick_batch : int option -> tick_batch
(** An empty batch for the closure's [stale_tick_gc]; [None] records
    nothing. *)

val flush_ticks : Gc_stats.t -> tick_batch -> unit
(** Applies the batch in mark order and empties it. *)

val claim_in_use : Gc_stats.t -> tick_batch -> Heap_obj.t -> unit
(** The in-use claim: sets the mark bit, counts the object in
    [objects_marked] and defers its tick into the batch. *)

val claim_stale :
  Gc_stats.t -> stale_tick_gc:int option -> bytes:int ref -> Heap_obj.t -> unit
(** The stale claim: sets the mark and stale-mark bits, counts the
    object in [objects_marked] and [stale_closure_objects], ticks it at
    once (no filter runs in a stale closure, so there is no staleness
    read to keep order-independent) and adds its size to [bytes]. *)

(** {1 Closures} *)

type boundary = {
  budget : int;  (** objects scanned per slice, [>= 1] *)
  on_slice : int -> (Heap_obj.t -> int -> unit) -> unit;
      (** called after every slice with the objects it scanned and a
          [rescan src field] that scans one field through the closure's
          own scan (the incremental engine replays its mutation log with
          it). The drain continues while the queue is non-empty after
          the call, so a rescan that discovers work extends the closure. *)
}
(** A slice boundary for the DFS drain. A closure run with one scans at
    most [budget] objects between calls to [on_slice], and calls it at
    least once; the marked set, candidate order and counters are those
    of the unsliced closure. *)

val mark :
  ?edge_note:(edge -> (int * int * int) option) ->
  ?apply_note:(int * int * int -> unit) ->
  ?boundary:boundary ->
  Store.t ->
  Roots.t ->
  stats:Gc_stats.t ->
  config:mark_config ->
  edge list
(** Runs the in-use transitive closure from the roots. Marks every object
    reached through [Trace] edges, applies [Poison] in place, and returns
    the [Defer]red edges in discovery order (the candidate queue).
    Poisoned references found in the heap are never traced. A non-null,
    non-poisoned word whose target is not live (a corrupt reference) is
    {e quarantined} — poisoned in place and counted in
    [Gc_stats.words_quarantined] — rather than crashing the collection;
    the phases below apply the same rule. [edge_note] is evaluated
    against every live scanned edge and [apply_note] applied immediately
    for every [Some] note — the Individual_refs byte accounting, split
    so the same call shape works on engines (parallel) that must keep
    the evaluation pure and apply at a merge point. *)

val stale_closure :
  ?events:Lp_obs.Sink.t ->
  ?boundary:boundary ->
  Store.t ->
  stats:Gc_stats.t ->
  set_untouched_bits:bool ->
  stale_tick_gc:int option ->
  edge ->
  int
(** [stale_closure store ~stats ~set_untouched_bits e] claims everything
    reachable from candidate [e] that no earlier closure claimed, and
    returns the number of bytes claimed — the size of the stale data
    structure rooted at [e.tgt]. *)

val canonical_candidates : edge list -> edge list
(** Sorts a candidate queue into the canonical (source id, field) order
    — a total order on edges. Stale closures claim shared
    sub-structures first-come-first-served, so candidate order affects
    byte attribution; processing in canonical order makes SELECT
    outcomes independent of traversal strategy, slice budget and domain
    count. *)

val resurrect_finalizables :
  Store.t -> stats:Gc_stats.t -> on_finalize:(Heap_obj.t -> unit) -> unit
(** Finds unreachable objects whose finalizer has not run, invokes
    [on_finalize], marks them and their referents live for this collection
    (the finalizer may access them), and records that the finalizer ran so
    the object is ordinarily reclaimed by the next collection. *)

(** {1 Sweep} *)

val sweep :
  ?seg_slots:int ->
  ?on_segment:(unit -> unit) ->
  Store.t ->
  stats:Gc_stats.t ->
  unit
(** Frees every unmarked object, clears the GC bits of survivors, and
    records the surviving bytes in the store as its new live size. The
    slot range is swept in segments of [seg_slots] slots (default: the
    whole store), walked in descending order with each segment's dead
    freed before the next segment is scanned, and [on_segment] runs
    after each one. Dead objects are freed in strictly descending slot
    order at every segment size, so [Store] identifier recycling is the
    same for every engine. A [seg_slots] below 1 counts as 1. *)
