(** The pause-SLO autopilot: feedback-controlled GC scheduling.

    Given a target p99 pause, the autopilot watches the VM's
    phase-tagged pause samples and, between collections, (a) retunes
    the sliced engines' slice budget through a PID loop on a
    nanosecond-denominated budget, and (b) picks the next collection's
    engine — [Incremental] while the workload is interactive,
    [Sliced_bsp] when the last SELECT decision predicts a stale
    closure large enough to be worth parallel marking.

    The two planes have deliberately different determinism: the budget
    is wall-clock-fed (outcome-neutral — budgets only move slice
    boundaries, never what gets reclaimed) while engine choice keys
    off SELECT's predicted bytes, a deterministic signal, so engine
    schedules replay bit-identically. The object-count budget never
    drops below a fixed floor of 32 objects, keeping count-based
    invariants meaningful on arbitrarily slow hosts. *)

type t

type decision = {
  d_budget : int;  (** slice budget for the next collection, objects *)
  d_engine : Lp_core.Config.gc_engine;
      (** engine for the next collection; [Incremental] or
          [Sliced_bsp _], never a monolithic engine *)
  d_p99_ns : int;  (** the window p99 that drove the budget *)
  d_budget_changed : bool;
  d_engine_changed : bool;
}

val create : target_p99_ns:int -> init_budget:int -> t
(** [init_budget] is the object budget in effect before any feedback
    (the config's [gc_slice_budget]).
    @raise Invalid_argument on a non-positive target or budget. *)

val note_collection :
  t ->
  samples:(Lp_heap.Trace_engine.pause_phase * int) list ->
  selection_bytes:int ->
  heap_limit:int ->
  decision
(** Feeds one finished collection's phase-tagged pause samples
    (nanoseconds) and the last SELECT decision's predicted
    stale-closure size (0 when no selection is pending), and returns
    the budget and engine for the {e next} collection. [Mark_slice]
    samples also update the per-object cost estimate that converts the
    ns budget into an object count. *)

val p99_ns : t -> int
(** Current p99 over the sample window (up to the last 256 samples);
    0 before any sample. *)

val target : t -> int
val budget : t -> int
(** The object-count slice budget currently in effect. *)

val engine : t -> Lp_core.Config.gc_engine

val adjustments : t -> int
(** Collections after which the object budget actually changed. *)

val switches : t -> int
(** Engine changes decided so far. *)

val escalations : t -> int
(** Distinct escalation episodes ([Incremental] -> [Sliced_bsp]). *)

val samples_seen : t -> int
