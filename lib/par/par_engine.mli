(** Deterministic parallel tracing engine.

    The engine drives the same three phases as {!Lp_heap.Collector} —
    in-use closure, stale closure, sweep — over a {!Domain_pool},
    mirroring MMTk's shared-pool parallel collector (the substrate the
    paper's leak pruning runs on) while keeping reclamation a
    deterministic function of program, seed and configuration.

    Determinism is by construction, not by locking:

    - Marking proceeds in BSP rounds over a frontier of already-marked
      objects. The frontier is split into fixed-size packets; workers
      obtain packets by work-stealing — the coordinator deals packet
      indices into one Chase–Lev {!Deque} per worker before the round,
      each worker drains its own deque LIFO and steals FIFO from the
      others — and scan them into private buffers (discovered targets,
      deferred edges, poison edges, quarantines, counter shards).
      Workers write only words they own exclusively (untouched bits
      and quarantine poisons of their packet's objects) — mark bits,
      headers and shared state are untouched during a round, so which
      worker scans a packet (and in what order) cannot influence what
      any scan observes.
    - A whole mark closure occupies the pool as one
      {!Domain_pool.session}: workers are dispatched once and
      synchronise per round on an atomic epoch, instead of paying a
      full condvar wake/join handshake every round as the legacy
      shared-counter path still does (kept, selectable with
      [~steal:false], as the control for the coordination-overhead
      bench gate).
    - Between rounds the coordinator merges packet buffers in packet
      order, claiming each discovered target through
      {!Lp_heap.Collector.claim_in_use} or
      {!Lp_heap.Collector.claim_stale}, the claims every engine uses.
      Since packet order equals frontier order, the merged
      output is identical for every domain count, packet boundary and
      worker schedule.
    - Per-packet counter shards are summed into {!Lp_heap.Gc_stats} at
      the merge (a commutative-monoid fold in packet order), and
      buffered obs events are flushed at the merge so they carry the
      VM's logical clock in a stable order.

    Discovered-target buffers are checksum-sealed; a packet whose seal
    fails verification (the chaos harness injects exactly this) is
    recovered by a pure re-scan against the round-start mark state,
    which reproduces the lost buffer exactly. Small frontiers are
    scanned inline by the coordinator through the same packet code, so
    the inline fast path provably produces identical output. *)

type t

val create :
  ?packet_size:int ->
  ?inline_threshold:int ->
  ?steal:bool ->
  ?slice_budget:int ->
  Domain_pool.t ->
  t
(** [packet_size] (default 32) objects per work packet;
    [inline_threshold] (default 16): frontiers smaller than this are
    scanned by the coordinator without waking the pool. [steal]
    (default [true]) selects steal-driven rounds (per-worker deques
    inside one pool session per closure); [false] selects the legacy
    shared fetch-and-add claim with one pool dispatch per round. None
    of the three affects any collection outcome — only scheduling.

    [slice_budget] switches the engine into sliced-BSP mode (the
    par+inc composition): each BSP round's packets are executed and
    merged in groups of at most [slice_budget / packet_size] packets —
    so no pause slice scans more than ~[slice_budget] frontier objects
    — and the sweep runs through {!Lp_heap.Collector.sweep} in
    [slice_budget]-slot segments. Every slice lands as a phase-tagged
    pause sample in the engine's {!Lp_heap.Trace_engine.recorder}, which
    also holds the budget the pause-SLO autopilot retunes. The
    grouped schedule is outcome-identical to the whole-round schedule
    (see the argument in the implementation); the differential oracle
    enforces it. *)

val domains : t -> int

val mark :
  t ->
  gc:int ->
  ?edge_note:(Lp_heap.Collector.edge -> (int * int * int) option) ->
  ?apply_note:(int * int * int -> unit) ->
  Lp_heap.Store.t ->
  Lp_heap.Roots.t ->
  stats:Lp_heap.Gc_stats.t ->
  config:Lp_heap.Collector.mark_config ->
  Lp_heap.Collector.edge list
(** Parallel equivalent of {!Lp_heap.Collector.mark}: same marked set,
    same counter totals, deferred edges in frontier (BFS) order —
    identical at every domain count. [edge_note] is evaluated by
    workers against each scanned edge (it must be pure); [apply_note]
    is invoked by the coordinator at the merge, in packet order, for
    every [Some] note — this is how the impure Individual_refs
    byte-accounting filter is split into a pure worker part and a
    deterministic coordinator part. Emits one [Par_phase_begin] /
    [Par_phase_end] span pair per worker when [config.events] is set. *)

val begin_stale : t -> unit
(** Resets the per-worker stale-phase work shards; call once before the
    stale-closure loop of a collection. *)

val stale_closure :
  t ->
  gc:int ->
  ?events:Lp_obs.Sink.t ->
  Lp_heap.Store.t ->
  stats:Lp_heap.Gc_stats.t ->
  set_untouched_bits:bool ->
  stale_tick_gc:int option ->
  Lp_heap.Collector.edge ->
  int
(** Parallel equivalent of {!Lp_heap.Collector.stale_closure}. *)

val end_stale : t -> gc:int -> events:Lp_obs.Sink.t option -> unit
(** Emits the stale-phase per-worker span pairs accumulated since
    [begin_stale]. *)

val sweep :
  t ->
  gc:int ->
  ?events:Lp_obs.Sink.t ->
  Lp_heap.Store.t ->
  stats:Lp_heap.Gc_stats.t ->
  unit
(** Parallel equivalent of {!Lp_heap.Collector.sweep}: workers scan
    disjoint slot segments, the coordinator frees dead objects in
    descending slot order — the exact free order of the sequential
    sweep, so id recycling (and therefore every later allocation) is
    unchanged. *)

val minor_drain :
  t ->
  Lp_heap.Store.t ->
  queue:int array ->
  slots_scanned:int ref ->
  unit
(** Parallel drain of a minor collection's mark queue: [queue] holds
    already-marked nursery objects; scans their fields in rounds,
    marking reachable unmarked nursery objects, counting every field
    slot (including nulls) like the sequential drain. *)

val arm_corrupt_packet : t -> unit
(** Chaos hook: corrupt the discovered-target buffer of the next
    non-empty mark packet after its seal is computed. The corruption is
    detected by seal verification and recovered exactly, so it must be
    output-neutral — the differential oracle checks this. *)

val arm_steal_race : t -> unit
(** Chaos hook: hand the packets of the next multi-packet round out in
    reverse order (the deques are dealt in reverse in steal mode),
    simulating a worst-case steal-order inversion. Output-neutral by
    construction. *)

val pooled_rounds : t -> int
(** Rounds that actually ran on the domain pool (vs inline rounds). *)

val dispatches : t -> int
(** Pool wake/join handshakes paid so far: one per session in steal
    mode, one per pooled round on the legacy path (plus one per pooled
    sweep on either). [dispatches / pooled_rounds] is the per-round
    coordination overhead the bench gates on — a deterministic count,
    not a timing. *)

val steals : t -> int
(** Total successful packet steals. Genuinely schedule-dependent (the
    only such counter here): it reports what the hardware actually did
    and never feeds any determinism oracle. *)

val stealing : t -> bool
(** Whether the engine was created with [~steal:true]. *)

val packet_recoveries : t -> int

val steal_races : t -> int

val engine : t -> Lp_heap.Trace_engine.t
(** The {!Lp_heap.Trace_engine} view of this engine: parallel mark,
    stale closure, sweep and minor drain; [shutdown] joins the
    underlying domain pool (idempotent). Named ["par<d>"], or
    ["bsp<d>"] in sliced mode. *)
