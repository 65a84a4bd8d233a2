(* What kind of mutator-visible pause a sample measures. Sliced engines
   report one [Mark_slice] per bounded mark/stale-closure slice and one
   [Sweep_slice] per store segment swept; engines that stop the world
   for the whole collection report nothing, and the VM accounts the
   entire collection as one [Monolithic] sample. *)
type pause_phase = Mark_slice | Sweep_slice | Monolithic

let pause_phase_name = function
  | Mark_slice -> "mark_slice"
  | Sweep_slice -> "sweep_slice"
  | Monolithic -> "monolithic"

(* The slice recorder: one per sliced engine, shared by its mark,
   stale-closure and sweep phases. Samples are kept in reverse order
   until [take_pauses] drains them. *)
type recorder = {
  mutable budget : int;
  mutable pauses : (pause_phase * int) list;
  mutable max_work : int;
  mutable slice_start : int;
}

let now_ns () = int_of_float (Unix.gettimeofday () *. 1e9)

let check_budget budget =
  if budget < 1 then invalid_arg "Trace_engine: slice budget < 1"

let recorder ~budget =
  check_budget budget;
  { budget; pauses = []; max_work = 0; slice_start = now_ns () }

let slice_budget r = r.budget

let set_slice_budget r budget =
  check_budget budget;
  r.budget <- budget

let start_slice r = r.slice_start <- now_ns ()

let record_slice r phase ~work =
  let now = now_ns () in
  r.pauses <- (phase, now - r.slice_start) :: r.pauses;
  r.slice_start <- now;
  if work > r.max_work then r.max_work <- work

let mark_boundary r ~on_slice =
  start_slice r;
  {
    Collector.budget = r.budget;
    on_slice =
      (fun work rescan ->
        record_slice r Mark_slice ~work;
        on_slice rescan);
  }

let sweep r store ~stats =
  start_slice r;
  Collector.sweep ~seg_slots:r.budget
    ~on_segment:(fun () -> record_slice r Sweep_slice ~work:0)
    store ~stats

type t = {
  name : string;
  mark :
    gc:int ->
    ?edge_note:(Collector.edge -> (int * int * int) option) ->
    ?apply_note:(int * int * int -> unit) ->
    Store.t ->
    Roots.t ->
    stats:Gc_stats.t ->
    config:Collector.mark_config ->
    Collector.edge list;
  begin_stale : unit -> unit;
  stale_closure :
    gc:int ->
    ?events:Lp_obs.Sink.t ->
    Store.t ->
    stats:Gc_stats.t ->
    set_untouched_bits:bool ->
    stale_tick_gc:int option ->
    Collector.edge ->
    int;
  end_stale : gc:int -> events:Lp_obs.Sink.t option -> unit;
  sweep : gc:int -> ?events:Lp_obs.Sink.t -> Store.t -> stats:Gc_stats.t -> unit;
  minor_drain :
    (Store.t -> queue:int array -> slots_scanned:int ref -> unit) option;
  note_mutation : (src:Heap_obj.t -> field:int -> unit) option;
  recorder : recorder option;
  shutdown : unit -> unit;
}

let sequential () =
  {
    name = "seq";
    mark =
      (fun ~gc:_ ?edge_note ?apply_note store roots ~stats ~config ->
        Collector.mark ?edge_note ?apply_note store roots ~stats ~config);
    begin_stale = (fun () -> ());
    stale_closure =
      (fun ~gc:_ ?events store ~stats ~set_untouched_bits ~stale_tick_gc e ->
        Collector.stale_closure ?events store ~stats ~set_untouched_bits
          ~stale_tick_gc e);
    end_stale = (fun ~gc:_ ~events:_ -> ());
    sweep = (fun ~gc:_ ?events:_ store ~stats -> Collector.sweep store ~stats);
    minor_drain = None;
    note_mutation = None;
    recorder = None;
    shutdown = (fun () -> ());
  }

let note_mutation t ~src ~field =
  match t.note_mutation with None -> () | Some f -> f ~src ~field

let take_pauses t =
  match t.recorder with
  | None -> []
  | Some r ->
    let p = List.rev r.pauses in
    r.pauses <- [];
    p

let max_slice_work t =
  match t.recorder with None -> 0 | Some r -> r.max_work
