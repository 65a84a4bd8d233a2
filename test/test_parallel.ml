(* The parallel stop-the-world tracing engine (lib/par).

   The engine's contract is determinism by construction: every output a
   collection produces — mark bits, counters, prune decisions, events,
   reclaimed bytes, the strict verifier's verdict — is bit-identical at
   every [Config.gc_engine] setting. The differential oracle here
   sweeps chaos seeds at 1, 2 and 4 domains and compares the full
   reports (traces included, minus the parallel engine's own worker
   events, which only exist when it runs). *)

open Lp_heap

(* ------------------------------------------------------------------ *)
(* Gc_stats.merge: the commutative monoid the per-worker shards rely on. *)

let stats_a () =
  let s = Gc_stats.create () in
  s.Gc_stats.collections <- 2;
  s.Gc_stats.objects_marked <- 31;
  s.Gc_stats.fields_scanned <- 97;
  s.Gc_stats.untouched_bits_set <- 11;
  s.Gc_stats.stale_ticks <- 5;
  s.Gc_stats.candidates_enqueued <- 3;
  s.Gc_stats.bytes_reclaimed <- 4096;
  s.Gc_stats.words_quarantined <- 1;
  s

let stats_b () =
  let s = Gc_stats.create () in
  s.Gc_stats.collections <- 1;
  s.Gc_stats.objects_marked <- 7;
  s.Gc_stats.fields_scanned <- 13;
  s.Gc_stats.stale_tick_scans <- 4;
  s.Gc_stats.stale_closure_objects <- 2;
  s.Gc_stats.references_poisoned <- 6;
  s.Gc_stats.selection_scans <- 1;
  s.Gc_stats.objects_swept <- 9;
  s.Gc_stats.bytes_reclaimed <- 512;
  s.Gc_stats.finalizers_enqueued <- 2;
  s.Gc_stats.resurrections <- 1;
  s.Gc_stats.resurrection_failures <- 1;
  s.Gc_stats.words_repoisoned <- 3;
  s

let test_merge_sums () =
  let a = stats_a () and b = stats_b () in
  let m = Gc_stats.merge a b in
  (* [Gc_stats.fields] enumerates every counter, so a new field that
     merge forgot would fail here without this test changing *)
  List.iter
    (fun (name, get) ->
      Alcotest.(check int) (name ^ " sums") (get a + get b) (get m))
    Gc_stats.fields;
  Alcotest.(check bool) "merge is commutative" true
    (Gc_stats.merge b a = m);
  Alcotest.(check bool) "inputs untouched" true
    (a = stats_a () && b = stats_b ())

let test_merge_identity () =
  let a = stats_a () in
  Alcotest.(check bool) "create () is a right identity" true
    (Gc_stats.merge a (Gc_stats.create ()) = a);
  Alcotest.(check bool) "create () is a left identity" true
    (Gc_stats.merge (Gc_stats.create ()) a = a)

(* ------------------------------------------------------------------ *)
(* Direct VM equivalence on a wide heap: a 300-field statics object
   fans the mark frontier out past the packet size, so multi-packet
   pooled rounds actually run at 4 domains. *)

let build_wide_vm ?(gc_steal = true) ~gc_engine () =
  let vm =
    Lp_runtime.Vm.create
      ~config:(Lp_core.Config.make ~gc_engine ~gc_steal ())
      ~heap_bytes:600_000 ()
  in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"Wide" ~n_fields:300 in
  let prev = ref None in
  for i = 0 to 299 do
    let node =
      Lp_runtime.Vm.alloc vm ~class_name:"Wide$Node" ~scalar_bytes:16
        ~n_fields:2 ()
    in
    Lp_runtime.Mutator.write_obj vm statics i node;
    (match !prev with
    | Some p -> Lp_runtime.Mutator.write_obj vm node 0 p
    | None -> ());
    prev := Some node
  done;
  (vm, statics)

let run_wide ?(gc_steal = true) ~gc_engine () =
  let vm, statics = build_wide_vm ~gc_steal ~gc_engine () in
  for _ = 1 to 3 do
    Lp_runtime.Vm.run_gc vm
  done;
  (* drop half the graph so the sweep has parallel work too *)
  for i = 0 to 149 do
    Lp_runtime.Mutator.clear vm statics i
  done;
  Lp_runtime.Vm.run_gc vm;
  let live = ref [] in
  Store.iter_live (Lp_runtime.Vm.store vm) (fun o ->
      live := o.Heap_obj.id :: !live);
  let pooled, dispatches =
    match Lp_runtime.Vm.par_engine vm with
    | Some e ->
      (Lp_par.Par_engine.pooled_rounds e, Lp_par.Par_engine.dispatches e)
    | None -> (0, 0)
  in
  let stats = Gc_stats.copy (Lp_runtime.Vm.stats vm) in
  Lp_runtime.Vm.shutdown vm;
  (stats, List.rev !live, pooled, dispatches)

let test_wide_heap_equivalence () =
  let par4 = Lp_core.Config.Parallel 4 in
  let seq_stats, seq_live, _, _ = run_wide ~gc_engine:Sequential () in
  let par_stats, par_live, pooled, dispatches = run_wide ~gc_engine:par4 () in
  let off_stats, off_live, off_pooled, off_dispatches =
    run_wide ~gc_steal:false ~gc_engine:par4 ()
  in
  Alcotest.(check bool) "identical collector counters" true
    (seq_stats = par_stats);
  Alcotest.(check (list int)) "identical live set (same slots, same order)"
    seq_live par_live;
  Alcotest.(check bool) "steal off: identical counters too" true
    (seq_stats = off_stats);
  Alcotest.(check (list int)) "steal off: identical live set" seq_live off_live;
  Alcotest.(check bool) "pooled multi-packet rounds actually ran" true
    (pooled > 0 && off_pooled > 0);
  (* session amortisation: stealing rounds share pool dispatches, the
     legacy claim pays one per round *)
  Alcotest.(check bool) "stealing dispatches are bounded by rounds" true
    (dispatches > 0 && dispatches <= pooled);
  Alcotest.(check int) "legacy path pays one dispatch per round" off_pooled
    off_dispatches;
  Alcotest.(check int) "all collector domains joined" 0
    (Lp_par.Domain_pool.active_count ())

let test_pool_shutdown_idempotent () =
  let vm, _ = build_wide_vm ~gc_engine:(Lp_core.Config.Parallel 2) () in
  Lp_runtime.Vm.run_gc vm;
  Alcotest.(check bool) "pool live while the VM runs" true
    (Lp_par.Domain_pool.active_count () > 0);
  Lp_runtime.Vm.shutdown vm;
  Lp_runtime.Vm.shutdown vm;
  Alcotest.(check int) "no leaked domains after double shutdown" 0
    (Lp_par.Domain_pool.active_count ())

(* ------------------------------------------------------------------ *)
(* Differential determinism oracle: chaos seeds at 1, 2 and 4 domains.
   Everything observable must match — the scalar report, the outcome,
   the prune-decision log, the per-collection reclaimed bytes — with
   exactly two trace normalizations, both inherent to the design rather
   than slack in the oracle:
   - the engine's own worker-phase events are filtered out (the
     sequential collector never emits them), and
   - traversal-order events are compared as sorted runs: word-level mark
     events (Edge_poisoned, Quarantine) because the sequential collector
     discovers objects in DFS order (LIFO work queue) while the engine's
     rounds are BFS — the per-collection set is identical; each targets
     a distinct word, so application order cannot affect the heap — and
     the swap-image events (Image_capture, Image_drop) downstream of
     them, whose capture queue is seeded in poison order.
   Every decision-level event (state transitions, selections, prune
   decisions, phases, collections) keeps its exact position. *)

let differential_seeds = 50

let par_only (st : Lp_obs.Event.stamped) =
  match st.Lp_obs.Event.ev with
  | Lp_obs.Event.Par_phase_begin _ | Lp_obs.Event.Par_phase_end _
  | Lp_obs.Event.Packet_recovered _ -> true
  | _ -> false

let word_level (ev : Lp_obs.Event.t) =
  match ev with
  | Lp_obs.Event.Edge_poisoned _ | Lp_obs.Event.Quarantine _
  | Lp_obs.Event.Image_capture _ | Lp_obs.Event.Image_drop _ -> true
  | _ -> false

(* canonical form: maximal runs of consecutive word-level events are
   sorted in place; everything else keeps its exact order *)
let rec canonicalize = function
  | [] -> []
  | (at, ev) :: _ as evs when word_level ev ->
    let run, rest =
      let rec split acc = function
        | (_, ev') :: _ as l when not (word_level ev') -> (List.rev acc, l)
        | x :: xs -> split (x :: acc) xs
        | [] -> (List.rev acc, [])
      in
      split [] evs
    in
    ignore at;
    List.sort compare run @ canonicalize rest
  | x :: xs -> x :: canonicalize xs

let signature (r : Lp_harness.Chaos.report) =
  ( ( r.Lp_harness.Chaos.seed,
      r.Lp_harness.Chaos.steps_run,
      r.Lp_harness.Chaos.gc_count,
      r.Lp_harness.Chaos.faults_fired,
      r.Lp_harness.Chaos.recovered,
      r.Lp_harness.Chaos.poisoned,
      r.Lp_harness.Chaos.resurrections,
      r.Lp_harness.Chaos.safe_entries,
      r.Lp_harness.Chaos.outcome ),
    canonicalize
      (List.filter_map
         (fun (st : Lp_obs.Event.stamped) ->
           if par_only st then None
           else Some (st.Lp_obs.Event.at, st.Lp_obs.Event.ev))
         r.Lp_harness.Chaos.trace) )

let prune_decisions (r : Lp_harness.Chaos.report) =
  List.filter_map
    (fun (st : Lp_obs.Event.stamped) ->
      match st.Lp_obs.Event.ev with
      | Lp_obs.Event.Prune_decision _ as ev -> Some ev
      | _ -> None)
    r.Lp_harness.Chaos.trace

let reclaimed_total (r : Lp_harness.Chaos.report) =
  List.fold_left
    (fun acc (st : Lp_obs.Event.stamped) ->
      match st.Lp_obs.Event.ev with
      | Lp_obs.Event.Gc_end { reclaimed_bytes; _ } -> acc + reclaimed_bytes
      | _ -> acc)
    0 r.Lp_harness.Chaos.trace

let test_differential_oracle () =
  let mismatches = ref [] in
  for seed = 1 to differential_seeds do
    let run config =
      Lp_harness.Chaos.run_one ~config ~trace_capacity:65_536 ~seed ()
    in
    let run_par ?gc_packet_size ~gc_steal d =
      run
        (Lp_core.Config.make ~gc_engine:(Parallel d) ?gc_packet_size ~gc_steal
           ())
    in
    let run_inc budget =
      run
        (Lp_core.Config.make ~gc_engine:Incremental ~gc_slice_budget:budget ())
    in
    let r1 = run Lp_core.Config.default in
    (* every pooled width, stealing and legacy claim both; the stealing
       runs use an 8-object packet so rounds are multi-packet and the
       deques actually get contended *)
    let engines =
      List.concat_map
        (fun d ->
          [
            (Printf.sprintf "par%d" d, run_par ~gc_steal:false d);
            ( Printf.sprintf "par%ds" d,
              run_par ~gc_packet_size:8 ~gc_steal:true d );
          ])
        [ 2; 4; 8 ]
    in
    (* the incremental engine at two budgets — one small enough that
       every collection slices many times, one near the default *)
    let engines =
      engines @ [ ("inc8", run_inc 8); ("inc128", run_inc 128) ]
    in
    Alcotest.(check int)
      (Printf.sprintf "seed %d: ring complete under every engine" seed)
      0
      (List.fold_left
         (fun acc (_, r) -> acc + r.Lp_harness.Chaos.trace_dropped)
         r1.Lp_harness.Chaos.trace_dropped engines);
    List.iter
      (fun (engine, r) ->
        if signature r <> signature r1 then
          mismatches := (seed, engine) :: !mismatches;
        if prune_decisions r <> prune_decisions r1 then
          mismatches := (seed, engine) :: !mismatches;
        if reclaimed_total r <> reclaimed_total r1 then
          mismatches := (seed, engine) :: !mismatches)
      engines
  done;
  Alcotest.(check (list (pair int string)))
    (Printf.sprintf
       "%d seeds x {seq, par{2,4,8} x steal{off,on}, inc8, inc128}: \
        identical reports, prune logs and reclaimed totals"
       differential_seeds)
    [] (List.rev !mismatches);
  Alcotest.(check int) "sweep leaked no domains" 0
    (Lp_par.Domain_pool.active_count ())

let suite =
  ( "parallel",
    [
      Alcotest.test_case "Gc_stats.merge sums every counter" `Quick
        test_merge_sums;
      Alcotest.test_case "Gc_stats.merge identity" `Quick test_merge_identity;
      Alcotest.test_case "wide heap: 4 domains = sequential, pooled rounds ran"
        `Quick test_wide_heap_equivalence;
      Alcotest.test_case "pool shutdown joins domains, idempotent" `Quick
        test_pool_shutdown_idempotent;
      Alcotest.test_case
        "differential chaos oracle: seq vs par{2,4,8}x{off,on} vs inc{8,128}"
        `Slow
        test_differential_oracle;
    ] )
