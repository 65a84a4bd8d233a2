(** Pause-bounded incremental engine.

    Runs {!Collector}'s in-use and stale closures with a
    {!Collector.boundary} every [slice_budget] scanned objects, and
    {!Collector.sweep} in segments of [slice_budget] slots, so no phase
    of a collection pauses for longer than one budgeted slice. Marked
    set, deferred candidate order, staleness ticks, free order and every
    {!Gc_stats} counter are those of the sequential engine; only the
    pause profile changes. Each slice lands as its own phase-tagged
    sample in the engine's {!Trace_engine.recorder} ([Mark_slice] for
    mark and stale-closure slices, [Sweep_slice] per sweep segment), and
    no mark slice ever scans more than [slice_budget] objects
    ({!Trace_engine.max_slice_work} proves it).

    Mutations performed while a mark is in progress are reported through
    the engine's [note_mutation] hook, logged in a deduplicated
    {!Remset}, and replayed — the mutated slot re-scanned against the
    current mark state — at the next mark-slice boundary. Slices never
    return to the mutator in this stop-the-world VM, so the log stays
    empty in real runs (the differential oracle relies on that); tests
    drive the replay directly via {!log_mutation}. *)

type t

val create : slice_budget:int -> unit -> t
(** [slice_budget] is the maximum number of objects one mark slice may
    scan, and the sweep segment size in slots ([>= 1];
    [Invalid_argument] otherwise). The pause-SLO autopilot retunes it
    between collections through the engine's recorder. *)

val engine : t -> Trace_engine.t
(** The {!Trace_engine} view: incremental mark, sliced stale closure
    and sweep, write logging armed while marking. *)

val slices : t -> int
(** Mark slices run so far, across all collections. *)

val replays : t -> int
(** Logged mutation slots re-scanned at slice boundaries so far. *)

val log_mutation : t -> src_id:int -> field:int -> unit
(** Appends a slot to the mutation log directly (deduplicated), as the
    [note_mutation] hook does while marking; exposed so tests can
    exercise the slice-boundary replay without a concurrent mutator. *)
