(* Trace_engine conformance: the same SELECT-shaped and PRUNE-shaped
   collections, driven through the engine record alone, must leave every
   engine's heap in the same state — same claimed bytes, same survivors,
   same poisoned words, same recycled identifiers, same counters. The
   suite instantiates one scenario per engine (sequential, parallel on 2
   domains, incremental and sliced BSP at an 8-object and at a max_int
   slice budget) and compares the full summaries against the sequential
   baseline, plus the incremental engine's own machinery: slicing under
   a tiny budget and the mutation-log replay that would make concurrent
   slices sound. *)

open Lp_heap

let factories =
  [
    ("seq", fun () -> Trace_engine.sequential ());
    ( "par2",
      fun () ->
        Lp_par.Par_engine.engine
          (Lp_par.Par_engine.create (Lp_par.Domain_pool.create ~domains:2)) );
    ("inc8", fun () -> Inc_engine.engine (Inc_engine.create ~slice_budget:8 ()));
    ( "bsp2",
      fun () ->
        Lp_par.Par_engine.engine
          (Lp_par.Par_engine.create ~slice_budget:8
             (Lp_par.Domain_pool.create ~domains:2)) );
    (* a budget near max_int: one slice and one sweep segment, which
       must still sweep the whole store *)
    ( "inc-max",
      fun () -> Inc_engine.engine (Inc_engine.create ~slice_budget:max_int ()) );
    ( "bsp2-max",
      fun () ->
        Lp_par.Par_engine.engine
          (Lp_par.Par_engine.create ~slice_budget:max_int
             (Lp_par.Domain_pool.create ~domains:2)) );
    (* steal-heavy: one object per packet and no inline threshold, so
       every round is dealt to the deques and cross-worker stealing is
       as dense as the engine can make it *)
    ( "par2s",
      fun () ->
        Lp_par.Par_engine.engine
          (Lp_par.Par_engine.create ~packet_size:1 ~inline_threshold:1
             (Lp_par.Domain_pool.create ~domains:2)) );
    (* same schedule pressure with the legacy shared-counter claim *)
    ( "par2ns",
      fun () ->
        Lp_par.Par_engine.engine
          (Lp_par.Par_engine.create ~packet_size:1 ~inline_threshold:1
             ~steal:false
             (Lp_par.Domain_pool.create ~domains:2)) );
  ]

let build_store () = Store.create ~limit_bytes:1_000_000

let alloc store ~n_fields =
  Store.alloc store ~class_id:0 ~n_fields ~scalar_bytes:0 ~finalizable:false

let link (src : Heap_obj.t) i (tgt : Heap_obj.t) =
  src.Heap_obj.fields.(i) <- Word.of_id tgt.Heap_obj.id

let live_ids store =
  let ids = ref [] in
  Store.iter_live store (fun o -> ids := o.Heap_obj.id :: !ids);
  List.rev !ids

(* One full engine workout. Graph: root a -> b -> c is the doomed
   chain, a -> d stays in use, e is plain garbage. A SELECT-shaped
   collection defers a->b and claims {b, c}; a PRUNE-shaped collection
   poisons a->b and sweeps the chain; then two allocations exercise
   identifier recycling over the freed slots. Returns everything
   observable so the caller can compare engines structurally. *)
let run_scenario make =
  let e = make () in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let a = alloc store ~n_fields:2 in
  let b = alloc store ~n_fields:1 in
  let c = alloc store ~n_fields:0 in
  let d = alloc store ~n_fields:0 in
  ignore (alloc store ~n_fields:0);
  Roots.add_static_root roots a.Heap_obj.id;
  link a 0 b;
  link b 0 c;
  link a 1 d;
  let defer_b (edge : Collector.edge) =
    if edge.Collector.tgt.Heap_obj.id = b.Heap_obj.id then Collector.Defer
    else Collector.Trace
  in
  let deferred =
    e.Trace_engine.mark ~gc:1 store roots ~stats
      ~config:
        {
          Collector.set_untouched_bits = true;
          stale_tick_gc = Some 1;
          edge_filter = Some defer_b;
          on_poison = None;
          events = None;
        }
  in
  let candidates = Collector.canonical_candidates deferred in
  e.Trace_engine.begin_stale ();
  let claimed =
    List.fold_left
      (fun acc edge ->
        acc
        + e.Trace_engine.stale_closure ~gc:1 store ~stats
            ~set_untouched_bits:true ~stale_tick_gc:(Some 1) edge)
      0 candidates
  in
  e.Trace_engine.end_stale ~gc:1 ~events:None;
  e.Trace_engine.sweep ~gc:1 store ~stats;
  let live_after_select = live_ids store in
  let poisoned = ref [] in
  let poison_b (edge : Collector.edge) =
    if edge.Collector.tgt.Heap_obj.id = b.Heap_obj.id then Collector.Poison
    else Collector.Trace
  in
  ignore
    (e.Trace_engine.mark ~gc:2 store roots ~stats
       ~config:
         {
           Collector.set_untouched_bits = false;
           stale_tick_gc = None;
           edge_filter = Some poison_b;
           on_poison =
             Some
               (fun (edge : Collector.edge) ->
                 poisoned :=
                   (edge.Collector.src.Heap_obj.id, edge.Collector.field)
                   :: !poisoned);
           events = None;
         });
  e.Trace_engine.sweep ~gc:2 store ~stats;
  let live_after_prune = live_ids store in
  let word_poisoned = Word.poisoned a.Heap_obj.fields.(0) in
  let n1 = alloc store ~n_fields:0 in
  let n2 = alloc store ~n_fields:0 in
  e.Trace_engine.shutdown ();
  ( (List.length candidates, claimed, live_after_select),
    (!poisoned, word_poisoned, live_after_prune),
    (n1.Heap_obj.id, n2.Heap_obj.id),
    Gc_stats.copy stats )

let test_conformance () =
  let summaries = List.map (fun (n, f) -> (n, run_scenario f)) factories in
  let _, baseline = List.hd summaries in
  let (candidates, claimed, after_select), (poisoned, word_poisoned, _), _, _ =
    baseline
  in
  (* absolute checks on the sequential baseline, so the cross-engine
     equality below cannot vacuously pass on a broken scenario *)
  Alcotest.(check int) "one deferred candidate" 1 candidates;
  Alcotest.(check int) "select swept only the plain garbage" 4
    (List.length after_select);
  Alcotest.(check bool) "claimed bytes positive" true (claimed > 0);
  Alcotest.(check (list (pair int int))) "prune poisoned exactly a.0"
    [ (1, 0) ] poisoned;
  Alcotest.(check bool) "the pruned word carries the poison bit" true
    word_poisoned;
  List.iter
    (fun (name, summary) ->
      Alcotest.(check bool)
        (Printf.sprintf
           "%s: claimed bytes, survivors, poisoned words, recycled ids and \
            counters all match seq"
           name)
        true
        (summary = baseline))
    (List.tl summaries);
  Alcotest.(check int) "no leaked domains" 0 (Lp_par.Domain_pool.active_count ())

(* A one-object budget must slice a multi-object heap many times, never
   scan more than one object per slice, and still mark exactly what the
   sequential engine marks. *)
let test_inc_slicing_respects_budget () =
  let inc = Inc_engine.create ~slice_budget:1 () in
  let e = Inc_engine.engine inc in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let root = alloc store ~n_fields:10 in
  Roots.add_static_root roots root.Heap_obj.id;
  for i = 0 to 9 do
    link root i (alloc store ~n_fields:0)
  done;
  ignore
    (e.Trace_engine.mark ~gc:1 store roots ~stats
       ~config:Collector.base_config);
  e.Trace_engine.sweep ~gc:1 store ~stats;
  Alcotest.(check int) "all 11 objects marked" 11 stats.Gc_stats.objects_marked;
  Alcotest.(check int) "max slice work bounded by the budget" 1
    (Trace_engine.max_slice_work e);
  Alcotest.(check bool) "at least 11 slices ran" true (Inc_engine.slices inc >= 11);
  let pauses = Trace_engine.take_pauses e in
  let count ph = List.length (List.filter (fun (p, _) -> p = ph) pauses) in
  Alcotest.(check int) "one Mark_slice sample per mark slice"
    (Inc_engine.slices inc)
    (count Trace_engine.Mark_slice);
  Alcotest.(check bool) "the sweep contributed tagged segment samples" true
    (count Trace_engine.Sweep_slice >= 1);
  Alcotest.(check int) "a sliced engine never reports Monolithic" 0
    (count Trace_engine.Monolithic);
  Alcotest.(check int) "take_pauses drains" 0
    (List.length (Trace_engine.take_pauses e))

(* Mid-run engine switching: the pause-SLO autopilot swaps engines
   between collections (through Controller.set_engine), which is only
   sound if a mixed schedule behaves exactly like any fixed engine —
   the determinism contract, now exercised across a swap seam. Each
   scenario builds a seeded random graph, runs three collections under
   a per-collection engine schedule (every collection gets a fresh
   engine, shut down at the boundary, exactly like Vm.switch_engine),
   and mutates the surviving graph between collections. The full
   observable state — live ids, object counts, counters — must match
   between the seq -> inc -> par schedule and every fixed schedule. *)
let run_switch_scenario ~seed schedule =
  let rng = Random.State.make [| seed |] in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let n = 20 + Random.State.int rng 20 in
  let arr =
    Array.init n (fun _ -> alloc store ~n_fields:(Random.State.int rng 4))
  in
  Array.iter
    (fun (o : Heap_obj.t) ->
      Array.iteri
        (fun i _ ->
          if Random.State.bool rng then
            link o i arr.(Random.State.int rng n))
        o.Heap_obj.fields)
    arr;
  for _ = 1 to 1 + Random.State.int rng 3 do
    Roots.add_static_root roots arr.(Random.State.int rng n).Heap_obj.id
  done;
  let mutate () =
    let live = ref [] in
    Store.iter_live store (fun o -> live := o :: !live);
    let live = Array.of_list (List.rev !live) in
    let nl = Array.length live in
    if nl > 0 then begin
      for _ = 1 to 5 do
        let src = live.(Random.State.int rng nl) in
        let nf = Array.length src.Heap_obj.fields in
        if nf > 0 then
          link src (Random.State.int rng nf) live.(Random.State.int rng nl)
      done;
      for _ = 1 to 3 do
        let o = alloc store ~n_fields:(Random.State.int rng 3) in
        let keep = Random.State.bool rng in
        let dst = live.(Random.State.int rng nl) in
        let nf = Array.length dst.Heap_obj.fields in
        if keep && nf > 0 then link dst (Random.State.int rng nf) o
      done
    end
  in
  List.mapi
    (fun i make ->
      let gc = i + 1 in
      let e = make () in
      ignore
        (e.Trace_engine.mark ~gc store roots ~stats
           ~config:Collector.base_config);
      e.Trace_engine.sweep ~gc store ~stats;
      ignore (Trace_engine.take_pauses e);
      e.Trace_engine.shutdown ();
      mutate ();
      (live_ids store, Store.object_count store, Gc_stats.copy stats))
    schedule

let test_engine_switch_conformance () =
  let seq () = Trace_engine.sequential () in
  let par () =
    Lp_par.Par_engine.engine
      (Lp_par.Par_engine.create (Lp_par.Domain_pool.create ~domains:2))
  in
  let inc () = Inc_engine.engine (Inc_engine.create ~slice_budget:8 ()) in
  let bsp () =
    Lp_par.Par_engine.engine
      (Lp_par.Par_engine.create ~slice_budget:8
         (Lp_par.Domain_pool.create ~domains:2))
  in
  (* steal-saturated variants: single-object packets, no inline
     threshold, so the swap seam is crossed with deques in full use *)
  let par_s () =
    Lp_par.Par_engine.engine
      (Lp_par.Par_engine.create ~packet_size:1 ~inline_threshold:1
         (Lp_par.Domain_pool.create ~domains:2))
  in
  let bsp_s () =
    Lp_par.Par_engine.engine
      (Lp_par.Par_engine.create ~packet_size:1 ~inline_threshold:1
         ~slice_budget:8
         (Lp_par.Domain_pool.create ~domains:2))
  in
  for seed = 1 to 25 do
    let mixed = run_switch_scenario ~seed [ seq; inc; par ] in
    List.iter
      (fun (name, fixed) ->
        Alcotest.(check bool)
          (Printf.sprintf "seed %d: seq->inc->par matches all-%s" seed name)
          true
          (run_switch_scenario ~seed [ fixed; fixed; fixed ] = mixed))
      [
        ("seq", seq); ("inc", inc); ("par", par); ("bsp", bsp);
        ("par-steal", par_s); ("bsp-steal", bsp_s);
      ];
    (* a schedule that hops between stealing and non-stealing parallel
       engines mid-run must also land on the same state *)
    Alcotest.(check bool)
      (Printf.sprintf "seed %d: par-steal->seq->bsp-steal matches" seed)
      true
      (run_switch_scenario ~seed [ par_s; seq; bsp_s ] = mixed)
  done;
  Alcotest.(check int) "no leaked domains" 0 (Lp_par.Domain_pool.active_count ())

(* The mutation-log replay: a write that lands in an already-scanned
   slot mid-mark would hide its target from a naive incremental marker.
   The scenario plays the mutator from inside an edge filter — when the
   scan reaches r.1 (r.0, earlier in scan order, is already behind the
   wavefront), it stores a hidden object into r.0 and logs the slot.
   The next slice boundary must replay the log and mark the hidden
   object, or the sweep would reclaim a live object. *)
let test_inc_mutation_replay () =
  let inc = Inc_engine.create ~slice_budget:1 () in
  let e = Inc_engine.engine inc in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let r = alloc store ~n_fields:2 in
  let b = alloc store ~n_fields:0 in
  let hidden = alloc store ~n_fields:0 in
  Roots.add_static_root roots r.Heap_obj.id;
  link r 1 b;
  (* r.0 stays null until the "mutator" writes [hidden] into it *)
  let mutator_fired = ref false in
  let filter (edge : Collector.edge) =
    if edge.Collector.field = 1 && not !mutator_fired then begin
      mutator_fired := true;
      link r 0 hidden;
      Inc_engine.log_mutation inc ~src_id:r.Heap_obj.id ~field:0
    end;
    Collector.Trace
  in
  ignore
    (e.Trace_engine.mark ~gc:1 store roots ~stats
       ~config:
         {
           Collector.set_untouched_bits = false;
           stale_tick_gc = None;
           edge_filter = Some filter;
           on_poison = None;
           events = None;
         });
  e.Trace_engine.sweep ~gc:1 store ~stats;
  Alcotest.(check bool) "the mid-mark write actually happened" true !mutator_fired;
  Alcotest.(check bool) "replay rescanned the logged slot" true
    (Inc_engine.replays inc > 0);
  Alcotest.(check bool) "the hidden object survived the sweep" true
    (Store.mem store hidden.Heap_obj.id);
  Alcotest.(check int) "nothing else was lost either" 3 (Store.object_count store)

(* note_mutation only logs while a mark is in flight: a quiescent-time
   write must not leave a stale log entry behind for the next mark. *)
let test_inc_log_gated_on_marking () =
  let inc = Inc_engine.create ~slice_budget:4 () in
  let e = Inc_engine.engine inc in
  let store = build_store () in
  let roots = Roots.create () in
  let stats = Gc_stats.create () in
  let r = alloc store ~n_fields:1 in
  Roots.add_static_root roots r.Heap_obj.id;
  Trace_engine.note_mutation e ~src:r ~field:0;
  ignore
    (e.Trace_engine.mark ~gc:1 store roots ~stats
       ~config:Collector.base_config);
  Alcotest.(check int) "quiescent write never replayed" 0 (Inc_engine.replays inc)

let suite =
  ( "engines",
    [
      Alcotest.test_case
        "conformance: seq, par2, par2-steal and inc8 agree on closure, sweep, \
         poison and \
         id recycling"
        `Quick test_conformance;
      Alcotest.test_case
        "conformance: a seq->inc->par mid-run schedule matches every fixed \
         engine across 25 seeds"
        `Quick test_engine_switch_conformance;
      Alcotest.test_case "incremental: slice budget bounds every slice" `Quick
        test_inc_slicing_respects_budget;
      Alcotest.test_case "incremental: mutation log replay finds hidden objects"
        `Quick test_inc_mutation_replay;
      Alcotest.test_case "incremental: mutation log gated on marking" `Quick
        test_inc_log_gated_on_marking;
    ] )
