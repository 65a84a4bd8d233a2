(** The first-class tracing-engine seam.

    A [Trace_engine.t] bundles every phase the controller drives during
    a full-heap collection — in-use mark, stale closure, sweep — plus
    the runtime hooks an engine may provide (minor-collection drain,
    mark-time write logging, slice recording, shutdown). The controller
    holds exactly one engine value and dispatches through these closures
    only; it never knows which engine is installed.

    Three engines implement the contract, all over the one closure in
    {!Collector}:

    - {!sequential} (here) — {!Collector}'s DFS with no slice boundary;
    - {!Inc_engine.engine} — the same DFS with a slice boundary every
      [slice_budget] scanned objects;
    - [Lp_par.Par_engine.engine] — BSP packet-sharded parallel marking
      on a domain pool, claiming through {!Collector}'s claims.

    Every engine is deterministic by construction: marked set, prune
    decisions, counters and reclaimed totals are identical across
    engines for the same program and seed (the differential oracle in
    the test suite enforces this). Only scheduling — and therefore wall
    time — differs. *)

type pause_phase = Mark_slice | Sweep_slice | Monolithic
(** What kind of mutator-visible pause a sample measures: a bounded
    mark (or stale-closure) slice, a bounded sweep segment, or a whole
    stop-the-world collection. Benches and the pause-SLO autopilot
    dispatch on the tag; before it existed the monolithic sweep
    remainder was indistinguishable from a slice sample. *)

val pause_phase_name : pause_phase -> string
(** ["mark_slice"], ["sweep_slice"], ["monolithic"]. *)

type recorder
(** The slice recorder of a sliced engine: its slice budget, the
    phase-tagged pause samples since the last {!take_pauses}, and the
    most objects any one mark slice has scanned. *)

val recorder : budget:int -> recorder
(** [Invalid_argument] if [budget < 1]. *)

val slice_budget : recorder -> int

val set_slice_budget : recorder -> int -> unit
(** Retunes the budget between collections (the pause-SLO autopilot's
    actuator). Outcome-neutral: the budget only moves slice boundaries.
    [Invalid_argument] if the budget is [< 1]. *)

val start_slice : recorder -> unit
(** Starts the clock of the next slice; a sliced phase calls it when it
    begins. *)

val record_slice : recorder -> pause_phase -> work:int -> unit
(** Records the wall time since the last {!start_slice} or
    {!record_slice} as one sample tagged [phase], and restarts the
    clock. [work] (objects scanned; 0 for a sweep segment) feeds
    {!max_slice_work}. *)

val mark_boundary :
  recorder -> on_slice:((Heap_obj.t -> int -> unit) -> unit) -> Collector.boundary
(** Starts the slice clock and returns a {!Collector.boundary} at the
    recorder's budget that records one [Mark_slice] per slice, then runs
    [on_slice] with the rescan. *)

val sweep : recorder -> Store.t -> stats:Gc_stats.t -> unit
(** {!Collector.sweep} in segments of the recorder's budget in slots,
    one [Sweep_slice] sample per segment. *)

type t = {
  name : string;  (** display label: ["seq"], ["par4"], ["inc64"], ... *)
  mark :
    gc:int ->
    ?edge_note:(Collector.edge -> (int * int * int) option) ->
    ?apply_note:(int * int * int -> unit) ->
    Store.t ->
    Roots.t ->
    stats:Gc_stats.t ->
    config:Collector.mark_config ->
    Collector.edge list;
      (** The in-use closure: same contract as {!Collector.mark}.
          [edge_note] must be pure; an engine may evaluate it anywhere
          but must invoke [apply_note] for the resulting notes in
          canonical scan order. *)
  begin_stale : unit -> unit;
      (** Called once before a SELECT collection's stale-closure loop. *)
  stale_closure :
    gc:int ->
    ?events:Lp_obs.Sink.t ->
    Store.t ->
    stats:Gc_stats.t ->
    set_untouched_bits:bool ->
    stale_tick_gc:int option ->
    Collector.edge ->
    int;
      (** Same contract as {!Collector.stale_closure}. *)
  end_stale : gc:int -> events:Lp_obs.Sink.t option -> unit;
      (** Called once after the stale-closure loop (worker-span flush in
          the parallel engine; no-op elsewhere). *)
  sweep : gc:int -> ?events:Lp_obs.Sink.t -> Store.t -> stats:Gc_stats.t -> unit;
      (** Same contract as {!Collector.sweep}, including the descending
          free order that keeps id recycling identical. *)
  minor_drain :
    (Store.t -> queue:int array -> slots_scanned:int ref -> unit) option;
      (** When present, the minor collector hands its marked seed set to
          this drain instead of running its own loop. *)
  note_mutation : (src:Heap_obj.t -> field:int -> unit) option;
      (** When present, the mutator write barrier reports every
          reference-slot store here. The incremental engine logs slots
          mutated while a mark is in progress and replays them at slice
          boundaries; collections in this VM are stop-the-world, so the
          log stays empty in practice and the replay machinery is the
          safety net that would make genuinely concurrent slices sound. *)
  recorder : recorder option;
      (** The sliced engines' slice budget and pause samples; [None] for
          engines that stop the world for a whole collection. *)
  shutdown : unit -> unit;
      (** Releases engine resources (joins the domain pool); idempotent. *)
}

val sequential : unit -> t
(** The sequential engine: thin closures over {!Collector}. *)

val note_mutation : t -> src:Heap_obj.t -> field:int -> unit
(** Convenience dispatcher for the optional write hook. *)

val take_pauses : t -> (pause_phase * int) list
(** Drains the engine's recorded pause slices (phase tag and wall
    nanoseconds, oldest first) since the last call. An engine without a
    recorder returns [[]]; the VM then accounts the full collection as
    one [Monolithic] pause. *)

val max_slice_work : t -> int
(** Largest number of objects scanned in a single mark slice so far (0
    without a recorder) — the deterministic quantity the pause-bench
    budget gate checks. *)
