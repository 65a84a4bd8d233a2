(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see lib/harness/experiments.mli), runs Bechamel
   microbenchmarks of the core operations, and runs the repo's bench
   scenarios, each of which returns a Report.t that Report.emit writes
   to BENCH_<scenario>.json at the repository root and gates on.

   `main.exe --list` names every id; `main.exe ID...` runs the named
   ones; `main.exe` with no argument runs them all. `--csv DIR`
   anywhere on the command line also writes the key tables and series
   as CSV files into DIR. *)

open Bechamel
open Toolkit
module Json = Lp_obs.Json

let int = Report.int
let fixed = Report.fixed
let str = Report.str

(* [key]'s number in a row built from the helpers above. *)
let number key row =
  match List.assoc key row with Json.Number f -> f | _ -> 0.0

(* ------------------------------------------------------------------ *)
(* Microbenchmarks: one Test.make per table/figure family, measuring
   the operation that dominates that experiment. *)

let barrier_vm () =
  let vm = Lp_runtime.Vm.create ~heap_bytes:1_000_000 () in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"Micro" ~n_fields:2 in
  let obj = Lp_runtime.Vm.alloc vm ~class_name:"Micro$Node" ~n_fields:2 () in
  Lp_runtime.Mutator.write_obj vm statics 0 obj;
  let tgt = Lp_runtime.Vm.alloc vm ~class_name:"Micro$Node" ~n_fields:2 () in
  Lp_runtime.Mutator.write_obj vm obj 0 tgt;
  (vm, obj)

let test_barrier_fast =
  let vm, obj = barrier_vm () in
  Test.make ~name:"fig6/read-barrier-fast-path"
    (Staged.stage (fun () -> ignore (Lp_runtime.Mutator.read vm obj 0)))

let test_barrier_cold =
  let vm, obj = barrier_vm () in
  Test.make ~name:"fig6/read-barrier-cold-path"
    (Staged.stage (fun () ->
         (* re-arm the untouched bit so every read takes the cold path *)
         obj.Lp_heap.Heap_obj.fields.(0) <-
           Lp_heap.Word.set_untouched obj.Lp_heap.Heap_obj.fields.(0);
         ignore (Lp_runtime.Mutator.read vm obj 0)))

let test_alloc =
  let vm = Lp_runtime.Vm.create ~heap_bytes:(512 * 1024 * 1024) () in
  Test.make ~name:"table1/allocation"
    (Staged.stage (fun () ->
         ignore
           (Lp_runtime.Vm.alloc vm ~class_name:"Micro$Alloc" ~scalar_bytes:32
              ~n_fields:2 ())))

let test_full_gc =
  let vm = Lp_runtime.Vm.create ~heap_bytes:4_000_000 () in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"GcMicro" ~n_fields:1 in
  (* a 2000-object list to trace *)
  for _i = 1 to 2000 do
    Lp_runtime.Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node =
          Lp_runtime.Vm.alloc vm ~class_name:"GcMicro$Node" ~scalar_bytes:16
            ~n_fields:2 ()
        in
        Lp_heap.Roots.set_slot frame 0 node.Lp_heap.Heap_obj.id;
        (match Lp_runtime.Mutator.read vm statics 0 with
        | Some head -> Lp_runtime.Mutator.write_obj vm node 0 head
        | None -> ());
        Lp_runtime.Mutator.write_obj vm statics 0 node)
  done;
  Test.make ~name:"fig7/full-heap-collection-2k-objects"
    (Staged.stage (fun () -> Lp_runtime.Vm.run_gc vm))

let test_edge_table =
  let table = Lp_core.Edge_table.create () in
  let i = ref 0 in
  Test.make ~name:"table2/edge-table-record-stale-use"
    (Staged.stage (fun () ->
         incr i;
         Lp_core.Edge_table.record_stale_use table ~src:(!i mod 97)
           ~tgt:(!i mod 89) ~stale:3))

let test_selection_scan =
  let table = Lp_core.Edge_table.create () in
  for i = 0 to 499 do
    Lp_core.Edge_table.add_bytes table ~src:(i mod 53) ~tgt:(i mod 47) (i * 8)
  done;
  Test.make ~name:"table2/edge-table-selection-scan"
    (Staged.stage (fun () -> ignore (Lp_core.Edge_table.select_max_bytes table)))

let test_compile =
  let methd =
    match
      Lp_jit.Method_gen.generate
        (Lp_jit.Method_gen.profile ~benchmark:"micro" ~n_methods:1 ~seed:7 ())
    with
    | [ m ] -> m
    | [] | _ :: _ -> assert false
  in
  Test.make ~name:"sec5/compile-method-with-barriers"
    (Staged.stage (fun () -> ignore (Lp_jit.Compiler.compile ~barriers:true methd)))

let test_paper_example =
  Test.make ~name:"fig345/worked-example-end-to-end"
    (Staged.stage (fun () -> ignore (Lp_harness.Paper_example.run ())))

let microbenches =
  Test.make_grouped ~name:"leakpruning"
    [
      test_barrier_fast;
      test_barrier_cold;
      test_alloc;
      test_full_gc;
      test_edge_table;
      test_selection_scan;
      test_compile;
      test_paper_example;
    ]


let micro () =
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:(Some 1000) ()
  in
  let instances = Instance.[ monotonic_clock ] in
  let raw = Benchmark.all cfg instances microbenches in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let cases =
    Hashtbl.fold
      (fun name ols rows ->
        let ns =
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> fixed 1 est
          | Some _ | None -> Json.Null
        in
        [ ("operation", str name); ("ns_per_run", ns) ] :: rows)
      results []
  in
  { Report.scenario = "micro"; benchmark = "micro"; host = Report.host;
    fields = []; cases = List.sort compare cases; gates = [] }

(* ------------------------------------------------------------------ *)
(* Resurrection-overhead scenario: a deterministic leak → prune →
   recover loop. Every round grows a linked list the program never
   reads until the controller prunes it, then walks back into the
   pruned structure so the read barrier restores each node from its
   swap image. Counters and simulated-cycle costs are written to
   BENCH_resurrection.json as the baseline for tracking the cost of
   the resurrection subsystem. *)

let resurrection_rounds = 24

let run_resurrection_round () =
  let vm =
    Lp_runtime.Vm.create
      ~config:(Lp_core.Config.make ~policy:Lp_core.Policy.Default ())
      ~resurrection:true ~heap_bytes:10_000 ()
  in
  let statics = Lp_runtime.Vm.statics vm ~class_name:"Bench" ~n_fields:1 in
  let guard = ref 0 in
  while
    (Lp_runtime.Vm.stats vm).Lp_heap.Gc_stats.references_poisoned = 0
    && !guard < 3_000
  do
    incr guard;
    Lp_runtime.Vm.with_frame vm ~n_slots:1 (fun frame ->
        let node =
          Lp_runtime.Vm.alloc vm ~class_name:"Bench$Node" ~scalar_bytes:40
            ~n_fields:1 ()
        in
        Lp_heap.Roots.set_slot frame 0 node.Lp_heap.Heap_obj.id;
        (match Lp_runtime.Mutator.read vm statics 0 with
        | Some head -> Lp_runtime.Mutator.write_obj vm node 0 head
        | None -> ());
        Lp_runtime.Mutator.write_obj vm statics 0 node)
  done;
  let cycles_before = Lp_runtime.Vm.cycles vm in
  (* drain: read through every live poisoned field until none remain,
     resurrecting the chain hop by hop (restores re-poison interior
     edges, so fresh poisoned words appear as the walk proceeds). A
     word whose referent left no image is truly gone — the paper's
     semantics — and its access raises Internal_error; count it and
     skip that word from then on. *)
  let lost = ref 0 in
  let dead_ends = Hashtbl.create 16 in
  let rec drain budget =
    if budget > 0 then begin
      let found = ref None in
      Lp_heap.Store.iter_live (Lp_runtime.Vm.store vm) (fun obj ->
          Array.iteri
            (fun i w ->
              if
                !found = None
                && (not (Lp_heap.Word.is_null w))
                && Lp_heap.Word.poisoned w
                && not (Hashtbl.mem dead_ends (obj.Lp_heap.Heap_obj.id, i))
              then found := Some (obj, i))
            obj.Lp_heap.Heap_obj.fields);
      match !found with
      | None -> ()
      | Some (src, field) ->
        (try ignore (Lp_runtime.Mutator.read vm src field)
         with Lp_core.Errors.Internal_error _ ->
           incr lost;
           Hashtbl.add dead_ends (src.Lp_heap.Heap_obj.id, field) ());
        drain (budget - 1)
    end
  in
  drain 500;
  (vm, Lp_runtime.Vm.cycles vm - cycles_before, !lost)

let resurrection () =
  let t0 = Sys.time () in
  let rounds = List.init resurrection_rounds (fun _ -> run_resurrection_round ()) in
  let cpu_s = Sys.time () -. t0 in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 rounds in
  let per_vm f = sum (fun (vm, _, _) -> f vm) in
  let stat f = per_vm (fun vm -> f (Lp_runtime.Vm.stats vm)) in
  let resurrections = stat (fun s -> s.Lp_heap.Gc_stats.resurrections) in
  let recover_cycles = sum (fun (_, rc, _) -> rc) in
  let cycles_per_resurrection =
    if resurrections = 0 then 0.0
    else float_of_int recover_cycles /. float_of_int resurrections
  in
  let open Lp_runtime in
  { Report.scenario = "resurrection"; benchmark = "resurrection";
    host = Report.host;
    fields =
      [ ("rounds", int resurrection_rounds);
        ("collections", int (stat (fun s -> s.Lp_heap.Gc_stats.collections)));
        ( "references_poisoned",
          int (stat (fun s -> s.Lp_heap.Gc_stats.references_poisoned)) );
        ("resurrections", int resurrections);
        ( "resurrection_failures",
          int (stat (fun s -> s.Lp_heap.Gc_stats.resurrection_failures)) );
        ( "words_repoisoned",
          int (stat (fun s -> s.Lp_heap.Gc_stats.words_repoisoned)) );
        ("unrecoverable_accesses", int (sum (fun (_, _, lost) -> lost)));
        ( "image_writes",
          int (per_vm (fun vm -> Diskswap.image_writes (Vm.swap vm))) );
        ("image_drops", int (per_vm (fun vm -> Diskswap.image_drops (Vm.swap vm))));
        ( "mispredictions",
          int (per_vm (fun vm -> Lp_core.Controller.mispredictions (Vm.controller vm))) );
        ( "safe_entries",
          int (per_vm (fun vm -> Lp_core.Controller.safe_entries (Vm.controller vm))) );
        ("cycles_total", int (per_vm Vm.cycles));
        ("cycles_gc", int (per_vm Vm.gc_cycles));
        ("cycles_recovery", int recover_cycles);
        ("cycles_per_resurrection", fixed 1 cycles_per_resurrection);
        ("cpu_seconds", fixed 3 cpu_s) ];
    cases = []; gates = [] }

(* ------------------------------------------------------------------ *)
(* Disabled-observability overhead: DESIGN.md budgets the event hooks at
   ≤ 3% on the barrier paths when no sink is attached.  [baseline_read]
   replicates the pre-observability Mutator.read from public APIs only —
   the same charges, the same word tests, the same cold-path bookkeeping,
   minus the [match Vm.sink vm with None -> ()] guards — and both
   variants run the identical read loop.  Medians over interleaved
   samples keep one scheduling hiccup from deciding the comparison. *)

let baseline_charge_barrier vm n =
  if Lp_runtime.Vm.charge_barriers vm then Lp_runtime.Vm.charge vm n

(* Full replica, error branches included: truncating them to stubs makes
   the baseline a much smaller function than the real barrier ever was
   and skews code layout in its favour. *)
let baseline_read vm (src : Lp_heap.Heap_obj.t) i =
  let open Lp_heap in
  let open Lp_runtime in
  Vm.assert_live vm src;
  let cost = Vm.cost vm in
  Vm.charge vm cost.Cost.read_ref;
  baseline_charge_barrier vm cost.Cost.barrier_fast;
  let w = src.Heap_obj.fields.(i) in
  if Word.is_null w then None
  else if Word.poisoned w then begin
    baseline_charge_barrier vm
      (cost.Cost.barrier_cold + cost.Cost.barrier_poison_check);
    let tgt_class () =
      match Store.get_opt (Vm.store vm) (Word.target w) with
      | Some obj -> Class_registry.name (Vm.registry vm) obj.Heap_obj.class_id
      | None -> "<reclaimed>"
    in
    if not (Vm.resurrection_enabled vm) then
      raise
        (Lp_core.Controller.poisoned_access_error (Vm.controller vm) ~src
           ~tgt_class:(tgt_class ()))
    else begin
      match Vm.try_resurrect vm src ~field:i with
      | Ok tgt ->
        Heap_obj.set_stale tgt 0;
        Some tgt
      | Error reason ->
        let stats = Vm.stats vm in
        stats.Gc_stats.resurrection_failures <-
          stats.Gc_stats.resurrection_failures + 1;
        raise
          (Lp_core.Errors.internal_error
             ~cause:
               (Lp_core.Errors.resurrection_failed ~target:(Word.target w)
                  ~reason ~gc_count:(Vm.gc_count vm))
             ~src_class:
               (Class_registry.name (Vm.registry vm) src.Heap_obj.class_id)
             ~tgt_class:(tgt_class ()))
    end
  end
  else begin
    let tgt =
      match Store.get_opt (Vm.store vm) (Word.target w) with
      | Some tgt -> tgt
      | None ->
        src.Heap_obj.fields.(i) <- Word.poison w;
        let stats = Vm.stats vm in
        stats.Gc_stats.words_quarantined <- stats.Gc_stats.words_quarantined + 1;
        raise
          (Lp_core.Errors.heap_corruption
             ~src_class:
               (Class_registry.name (Vm.registry vm) src.Heap_obj.class_id)
             ~field:i ~target:(Word.target w) ~gc_count:(Vm.gc_count vm))
    in
    if Word.untouched w then begin
      baseline_charge_barrier vm cost.Cost.barrier_cold;
      src.Heap_obj.fields.(i) <- Word.clear_untouched w;
      Lp_core.Controller.on_stale_use (Vm.controller vm) ~src ~tgt;
      Heap_obj.set_stale tgt 0
    end;
    (match Vm.disk vm with
    | Some d -> (
      match Diskswap.retrieve d (Vm.store vm) tgt with
      | `Not_resident -> ()
      | `Swapped_in -> Vm.charge vm cost.Cost.disk_swap_in
      | `Corrupt reason ->
        Vm.charge vm cost.Cost.disk_swap_in;
        raise
          (Lp_core.Errors.internal_error
             ~cause:
               (Lp_core.Errors.resurrection_failed ~target:tgt.Heap_obj.id
                  ~reason ~gc_count:(Vm.gc_count vm))
             ~src_class:
               (Class_registry.name (Vm.registry vm) src.Heap_obj.class_id)
             ~tgt_class:
               (Class_registry.name (Vm.registry vm) tgt.Heap_obj.class_id)))
    | None -> ());
    Some tgt
  end

let obs_pairs = 31
let obs_reads_per_sample = 500_000

(* One cold read per this many reads in the mixed stream the budget is
   gated on.  A reference goes cold once per collection and is then
   fast until the next one; real workloads re-read references far more
   than 16 times per GC, so 1/16 overstates the cold fraction. *)
let obs_cold_period = 16

(* wall-clock seconds for [obs_reads_per_sample] calls of [read];
   [mask] selects the cold duty cycle: -1 never re-arms the untouched
   bit (pure fast path), 0 re-arms before every read (pure cold path),
   [n-1] with n a power of two re-arms every n-th read *)
let time_sample ~mask obj read =
  let k = ref 0 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to obs_reads_per_sample do
    incr k;
    if !k land mask = 0 then
      obj.Lp_heap.Heap_obj.fields.(0) <-
        Lp_heap.Word.set_untouched obj.Lp_heap.Heap_obj.fields.(0);
    ignore (read ())
  done;
  Unix.gettimeofday () -. t0

(* Paired design: each slice times baseline and instrumented
   back-to-back (order alternating), so frequency drift and scheduler
   interference hit both sides of every difference.  The median of the
   per-slice differences is robust to the occasional preempted slice;
   the fastest absolute sample is reported alongside for ns/read. *)
let time_pairs ~mask obj baseline instrumented =
  let base = ref [] and inst = ref [] and deltas = ref [] in
  for round = 1 to obs_pairs do
    let b, i =
      if round land 1 = 0 then begin
        let b = time_sample ~mask obj baseline in
        let i = time_sample ~mask obj instrumented in
        (b, i)
      end
      else begin
        let i = time_sample ~mask obj instrumented in
        let b = time_sample ~mask obj baseline in
        (b, i)
      end
    in
    base := b :: !base;
    inst := i :: !inst;
    deltas := (i -. b) :: !deltas
  done;
  (!base, !inst, !deltas)

let fastest xs = List.fold_left min infinity xs

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let ns_per_read s = s *. 1e9 /. float_of_int obs_reads_per_sample

let obs_overhead ~enforce () =
  let vm, obj = barrier_vm () in
  assert (Lp_runtime.Vm.sink vm = None);
  let instrumented () = Lp_runtime.Mutator.read vm obj 0 in
  let baseline () = baseline_read vm obj 0 in
  (* warm up both paths so neither variant pays first-touch costs *)
  ignore (time_sample ~mask:(-1) obj baseline);
  ignore (time_sample ~mask:(-1) obj instrumented);
  ignore (time_sample ~mask:0 obj baseline);
  ignore (time_sample ~mask:0 obj instrumented);
  let fast_base, fast_inst, fast_deltas =
    time_pairs ~mask:(-1) obj baseline instrumented
  in
  let cold_base, cold_inst, cold_deltas =
    time_pairs ~mask:0 obj baseline instrumented
  in
  let mixed_base, mixed_inst, mixed_deltas =
    time_pairs ~mask:(obs_cold_period - 1) obj baseline instrumented
  in
  let fb = fastest fast_base and fi = fastest fast_inst in
  let cb = fastest cold_base and ci = fastest cold_inst in
  let mb = fastest mixed_base and mi = fastest mixed_inst in
  let fast_delta = median fast_deltas and cold_delta = median cold_deltas in
  let mixed_delta = median mixed_deltas in
  let fast_pct = fast_delta /. fb *. 100.0 in
  let cold_pct = cold_delta /. cb *. 100.0 in
  (* The two fast paths are compiled from identical source, so their
     paired delta is pure bias — code placement of two distinct
     functions plus harness dispatch — worth several percent either way
     at this granularity.  Subtracting it from the other streams'
     deltas isolates the sink guard, the only source-level
     difference.  The budget gates the guard's cost on the mixed
     stream, whose 1/16 cold duty cycle already overstates how often
     real workloads take the cold path; the pure-cold differential is
     reported as a diagnostic. *)
  let guard_ns = ns_per_read (cold_delta -. fast_delta) in
  let guard_cold_pct = Float.max 0.0 (guard_ns /. ns_per_read cb *. 100.0) in
  let mixed_pct =
    Float.max 0.0 ((mixed_delta -. fast_delta) /. mb *. 100.0)
  in
  let budget = 3.0 in
  let verdict =
    if not enforce then
      Report.Disarmed
        (Printf.sprintf
           "enforced by obs-gate; mixed-stream overhead here %.2f%% against \
            the %.1f%% budget"
           mixed_pct budget)
    else if mixed_pct <= budget then Report.Pass
    else
      Report.Fail
        (Printf.sprintf
           "disabled-observability overhead on the mixed read stream is \
            %.2f%%, over the %.1f%% budget (fast delta %+.2f%%, cold delta \
            %+.2f%%, guard %+.2f ns)"
           mixed_pct budget fast_pct cold_pct guard_ns)
  in
  { Report.scenario = "obs_overhead"; benchmark = "obs_disabled_overhead";
    host = Report.host;
    fields =
      [ ("reads_per_sample", int obs_reads_per_sample);
        ("pairs", int obs_pairs);
        ("cold_period", int obs_cold_period);
        ("fast_ns_baseline", fixed 2 (ns_per_read fb));
        ("fast_ns_instrumented", fixed 2 (ns_per_read fi));
        ("fast_delta_pct", fixed 2 fast_pct);
        ("cold_ns_baseline", fixed 2 (ns_per_read cb));
        ("cold_ns_instrumented", fixed 2 (ns_per_read ci));
        ("cold_delta_pct", fixed 2 cold_pct);
        ("mixed_ns_baseline", fixed 2 (ns_per_read mb));
        ("mixed_ns_instrumented", fixed 2 (ns_per_read mi));
        ("guard_ns", fixed 2 guard_ns);
        ("guard_cold_path_pct", fixed 2 guard_cold_pct);
        ("mixed_overhead_pct", fixed 2 mixed_pct);
        ("budget_pct", fixed 1 budget) ];
    cases = [];
    gates = [ ("pass", verdict) ] }

(* ------------------------------------------------------------------ *)
(* Parallel-GC speedup sweep: jbb_mod and swap_leak collected over a
   {1, 2, 4} domains x steal {off, on} matrix. The engine is
   deterministic by construction, so the sweep doubles as an
   equivalence check (collections, reclaimed bytes and fields scanned
   must match across every cell) while the wall-clock numbers measure
   the engine honestly on this host -- on a single-core box the extra
   domains cannot speed marking up, which is why host_cores is part of
   the record and the speedup gate only arms when the host actually
   has 4 cores.

   The coordination gate is count-based and therefore host-independent:
   pool_dispatches / pooled_rounds is how many times a round paid the
   full wake-all-domains dispatch. The legacy shared-counter design
   pays once per round (ratio 1.0); the steal-driven design opens one
   session per mark closure and runs every round of that closure
   inside it, so the ratio drops below 1.0 as soon as any closure has
   two or more pooled rounds. *)

let parallel_gc_schedules =
  (* (gc_domains, steal) -- domains = 1 is the sequential baseline,
     where the steal flag is irrelevant. *)
  [ (1, true); (2, false); (2, true); (4, false); (4, true) ]

let parallel_gc_workloads =
  [ Lp_workloads.Jbb_mod.workload; Lp_workloads.Swap_leak.workload ]

type parallel_gc_case = {
  pg_workload : string;
  pg_domains : int;
  pg_steal : bool;
  pg_gc_count : int;
  pg_bytes_reclaimed : int;
  pg_fields_scanned : int;
  pg_mark_ns : int;
  pg_pause_ns : int;
  pg_pooled_rounds : int;
  pg_dispatches : int;
  pg_steals : int;
}

let run_parallel_gc_case w (gc_domains, gc_steal) =
  let captured = ref None in
  let r =
    Lp_harness.Driver.run
      ~config:(Lp_core.Config.make ~gc_domains ~gc_steal ())
      ~max_iterations:5_000
      ~prepare_vm:(fun vm -> captured := Some vm)
      w
  in
  let vm = match !captured with Some vm -> vm | None -> assert false in
  let stats = Lp_runtime.Vm.stats vm in
  let pooled, dispatches, steals =
    match Lp_runtime.Vm.par_engine vm with
    | Some e ->
      ( Lp_par.Par_engine.pooled_rounds e,
        Lp_par.Par_engine.dispatches e,
        Lp_par.Par_engine.steals e )
    | None -> (0, 0, 0)
  in
  {
    pg_workload = r.Lp_harness.Driver.workload;
    pg_domains = gc_domains;
    pg_steal = gc_steal;
    pg_gc_count = r.Lp_harness.Driver.gc_count;
    pg_bytes_reclaimed = r.Lp_harness.Driver.bytes_reclaimed;
    pg_fields_scanned = stats.Lp_heap.Gc_stats.fields_scanned;
    pg_mark_ns = Lp_core.Controller.mark_wall_ns (Lp_runtime.Vm.controller vm);
    pg_pause_ns = Lp_runtime.Vm.gc_pause_ns vm;
    pg_pooled_rounds = pooled;
    pg_dispatches = dispatches;
    pg_steals = steals;
  }

let parallel_gc () =
  let cases =
    List.concat_map
      (fun w -> List.map (run_parallel_gc_case w) parallel_gc_schedules)
      parallel_gc_workloads
  in
  let base c =
    List.find
      (fun b -> b.pg_workload = c.pg_workload && b.pg_domains = 1)
      cases
  in
  let cell c =
    Printf.sprintf "%s@%d/steal-%b" c.pg_workload c.pg_domains c.pg_steal
  in
  (* Gate 1 -- equivalence across the whole matrix: same collections,
     same reclaimed bytes, same fields scanned in every cell. *)
  let diverged =
    List.filter
      (fun c ->
        let b = base c in
        not
          (c.pg_gc_count = b.pg_gc_count
          && c.pg_bytes_reclaimed = b.pg_bytes_reclaimed
          && c.pg_fields_scanned = b.pg_fields_scanned))
      cases
  in
  (* Gate 2 -- coordination overhead, a deterministic count ratio: at
     2 domains, steal-on must never dispatch the pool more often per
     pooled round than steal-off, and on at least one workload it must
     be strictly cheaper. A workload whose mark closures are all
     single-round (SwapLeak: one wide frontier, then done) cannot go
     below one dispatch per round under any design, so only
     no-regression is demanded there; JbbMod's multi-round closures
     are where the session amortisation must show up. *)
  let coord_ratio c =
    if c.pg_pooled_rounds = 0 then 1.0
    else float_of_int c.pg_dispatches /. float_of_int c.pg_pooled_rounds
  in
  let coord_pairs =
    List.filter_map
      (fun w ->
        let name = w.Lp_workloads.Workload.name in
        let find steal =
          List.find
            (fun c ->
              c.pg_workload = name && c.pg_domains = 2 && c.pg_steal = steal)
            cases
        in
        let off = find false and on = find true in
        if off.pg_pooled_rounds >= 1 then Some (name, off, on) else None)
      parallel_gc_workloads
  in
  let coord_ok =
    coord_pairs <> []
    && List.for_all
         (fun (_, off, on) -> coord_ratio on <= coord_ratio off)
         coord_pairs
    && List.exists
         (fun (_, off, on) -> coord_ratio on < coord_ratio off)
         coord_pairs
  in
  (* Gate 3 -- speedup, armed only where it is physically possible:
     with 4 real cores, 4-domain steal-on marking must beat the
     sequential baseline on both workloads. *)
  let speedup c =
    let b = base c in
    if c.pg_mark_ns = 0 then 0.0
    else float_of_int b.pg_mark_ns /. float_of_int c.pg_mark_ns
  in
  let host_cores = Report.host.Report.cores in
  let slow_cells =
    List.filter
      (fun c -> c.pg_domains = 4 && c.pg_steal && speedup c <= 1.0)
      cases
  in
  let throughput c =
    if c.pg_mark_ns = 0 then 0.0
    else float_of_int c.pg_fields_scanned /. (float_of_int c.pg_mark_ns /. 1e9)
  in
  let case_row c =
    [ ("workload", str c.pg_workload);
      ("gc_domains", int c.pg_domains);
      ("steal", Json.Bool c.pg_steal);
      ("collections", int c.pg_gc_count);
      ("bytes_reclaimed", int c.pg_bytes_reclaimed);
      ("fields_scanned", int c.pg_fields_scanned);
      ("mark_ns", int c.pg_mark_ns);
      ("total_pause_ns", int c.pg_pause_ns);
      ("pooled_rounds", int c.pg_pooled_rounds);
      ("pool_dispatches", int c.pg_dispatches);
      ("steals", int c.pg_steals);
      ("coordination_ratio", fixed 3 (coord_ratio c));
      ("mark_fields_per_s", fixed 0 (throughput c));
      ("mark_speedup_vs_1", fixed 3 (speedup c)) ]
  in
  { Report.scenario = "parallel_gc"; benchmark = "parallel_gc";
    host = Report.host;
    fields = [ ("host_cores", int host_cores) ];
    cases = List.map case_row cases;
    gates =
      [ Report.gate "deterministic_across_schedules"
          (List.map
             (fun c -> cell c ^ " reclaimed differently from 1 domain (engine bug!)")
             diverged);
        Report.gate "coordination_gate"
          (if coord_ok then []
           else
             [ "steal-driven rounds must never dispatch the pool more often \
                per pooled round than the legacy shared-counter design at 2 \
                domains, and must be strictly cheaper on at least one \
                workload ("
               ^ String.concat ", "
                   (List.map
                      (fun (name, off, on) ->
                        Printf.sprintf "%s: %.3f stealing vs %.3f legacy" name
                          (coord_ratio on) (coord_ratio off))
                      coord_pairs)
               ^ ")" ]);
        (if host_cores < 4 then
           ( "speedup_gate",
             Report.Disarmed
               (Printf.sprintf
                  "host has %d core(s), 4-domain marking cannot win here"
                  host_cores) )
         else
           Report.gate "speedup_gate"
             (List.map
                (fun c ->
                  Printf.sprintf
                    "%s: 4-domain steal-on marking %.2fx vs sequential on a \
                     %d-core host"
                    c.pg_workload (speedup c) host_cores)
                slow_cells)) ] }

(* ------------------------------------------------------------------ *)
(* Pause-time sweep: the same leak workloads collected by all three
   tracing engines, with the VM's per-pause samples (one per collection
   for the monolithic engines; one per mark slice plus the remainder
   for the incremental engine) aggregated into max / mean / a log10
   histogram. Reclamation outcomes must match across engines (the
   determinism contract — hard gate), and the incremental engine's
   biggest slice must respect its object budget; that bound is counted
   in objects, not nanoseconds, so the gate cannot be flaked by a busy
   host. The wall-clock comparison (incremental max pause vs
   sequential) is recorded in the JSON for the honest picture. *)

let pause_slice_budget = 64
let pause_gate_tolerance = 1.25

let pause_engines =
  [
    ("seq", Lp_core.Config.Sequential);
    ("par2", Lp_core.Config.Parallel 2);
    ( Printf.sprintf "inc%d" pause_slice_budget,
      Lp_core.Config.Incremental );
  ]

let pause_workloads =
  [ Lp_workloads.List_leak.workload; Lp_workloads.Swap_leak.workload ]

(* log10 buckets in microseconds: <1us, <10us, <100us, <1ms, <10ms, >=10ms *)
let pause_bucket_labels =
  [ "<1us"; "<10us"; "<100us"; "<1ms"; "<10ms"; ">=10ms" ]

let pause_histogram samples =
  let h = Array.make (List.length pause_bucket_labels) 0 in
  List.iter
    (fun ns ->
      let b =
        if ns < 1_000 then 0
        else if ns < 10_000 then 1
        else if ns < 100_000 then 2
        else if ns < 1_000_000 then 3
        else if ns < 10_000_000 then 4
        else 5
      in
      h.(b) <- h.(b) + 1)
    samples;
  h

type pause_case = {
  pc_workload : string;
  pc_engine : string;
  pc_gc_count : int;
  pc_bytes_reclaimed : int;
  pc_samples : int;
  pc_max_ns : int;
  pc_mean_ns : float;
  pc_max_slice_work : int;
  pc_histogram : int array;
}

let run_pause_case w (name, engine) =
  let captured = ref None in
  let r =
    Lp_harness.Driver.run
      ~config:
        (Lp_core.Config.make ~gc_engine:engine
           ~gc_slice_budget:pause_slice_budget ())
      ~max_iterations:5_000
      ~prepare_vm:(fun vm -> captured := Some vm)
      w
  in
  let vm = match !captured with Some vm -> vm | None -> assert false in
  let samples = Lp_runtime.Vm.pause_samples_ns vm in
  let n = List.length samples in
  {
    pc_workload = r.Lp_harness.Driver.workload;
    pc_engine = name;
    pc_gc_count = r.Lp_harness.Driver.gc_count;
    pc_bytes_reclaimed = r.Lp_harness.Driver.bytes_reclaimed;
    pc_samples = n;
    pc_max_ns = Lp_runtime.Vm.max_pause_ns vm;
    pc_mean_ns =
      (if n = 0 then 0.0
       else float_of_int (List.fold_left ( + ) 0 samples) /. float_of_int n);
    pc_max_slice_work = Lp_runtime.Vm.max_slice_work vm;
    pc_histogram = pause_histogram samples;
  }

let gc_pauses () =
  let cases =
    List.concat_map
      (fun w -> List.map (run_pause_case w) pause_engines)
      pause_workloads
  in
  let base c =
    List.find
      (fun b -> b.pc_workload = c.pc_workload && b.pc_engine = "seq")
      cases
  in
  let diverged =
    List.filter
      (fun c ->
        let b = base c in
        not
          (c.pc_gc_count = b.pc_gc_count
          && c.pc_bytes_reclaimed = b.pc_bytes_reclaimed))
      cases
  in
  let slice_cap =
    int_of_float (float_of_int pause_slice_budget *. pause_gate_tolerance)
  in
  let slice_violations =
    List.filter (fun c -> c.pc_max_slice_work > slice_cap) cases
  in
  let inc_beats_seq =
    List.filter
      (fun c ->
        c.pc_engine <> "seq" && c.pc_max_slice_work > 0
        && c.pc_max_ns < (base c).pc_max_ns)
      cases
  in
  let case_row c =
    [ ("workload", str c.pc_workload);
      ("engine", str c.pc_engine);
      ("collections", int c.pc_gc_count);
      ("bytes_reclaimed", int c.pc_bytes_reclaimed);
      ("pause_samples", int c.pc_samples);
      ("max_pause_ns", int c.pc_max_ns);
      ("mean_pause_ns", fixed 0 c.pc_mean_ns);
      ("max_slice_work", int c.pc_max_slice_work);
      ("histogram", Json.List (Array.to_list (Array.map int c.pc_histogram))) ]
  in
  { Report.scenario = "pauses"; benchmark = "gc_pauses"; host = Report.host;
    fields =
      [ ("slice_budget", int pause_slice_budget);
        ("slice_gate_tolerance", fixed 2 pause_gate_tolerance);
        ("histogram_buckets", Json.List (List.map str pause_bucket_labels)) ];
    cases = List.map case_row cases;
    gates =
      [ Report.gate "deterministic_across_engines"
          (List.map
             (fun c ->
               Printf.sprintf "%s/%s reclaimed differently from seq (engine bug!)"
                 c.pc_workload c.pc_engine)
             diverged);
        Report.gate "max_slice_within_budget"
          (List.map
             (fun c ->
               Printf.sprintf
                 "%s/%s max slice scanned %d objects, over the budget %d x \
                  %.2f = %d"
                 c.pc_workload c.pc_engine c.pc_max_slice_work
                 pause_slice_budget pause_gate_tolerance slice_cap)
             slice_violations);
        ( "incremental_max_pause_below_sequential_on",
          Report.Disarmed
            (Printf.sprintf
               "wall-clock comparison, recorded but not enforced; below \
                sequential on: %s"
               (match inc_beats_seq with
               | [] -> "none"
               | l -> String.concat ", " (List.map (fun c -> c.pc_workload) l)))
        ) ] }

(* ------------------------------------------------------------------ *)
(* Pause-SLO autopilot scenario: the same workloads under (a) the
   static incremental engine at its default 256-object budget and (b)
   the autopilot chasing a tight 50us p99 target, which pins the
   budget near the 32-object floor.  Three gates, each exit 1:

   - the autopilot's p99 pause must come in strictly below the static
     default's on every workload (the controller actually controls);
   - an autopilot run may contain no Monolithic pause sample — every
     pause was slice-bounded, i.e. the sliced sweep really removed the
     monolithic remainder;
   - two autopilot runs must agree bit-for-bit on reclaimed bytes,
     collection count and the prune log (budgets are wall-clock-fed
     but outcome-neutral — the determinism contract under feedback). *)

let slo_target_ns = 50_000
let slo_iterations = 5_000

let slo_workloads =
  [ Lp_workloads.List_leak.workload; Lp_workloads.Swap_leak.workload ]

type slo_case = {
  sc_workload : string;
  sc_mode : string;  (* "static" | "autopilot" *)
  sc_gc_count : int;
  sc_bytes_reclaimed : int;
  sc_pruned : (string * string) list;
  sc_samples : int;
  sc_monolithic : int;
  sc_p99_ns : int;
  sc_max_ns : int;
  sc_adjustments : int;
  sc_switches : int;
  sc_final_budget : int;
}

let slo_p99 samples =
  match List.sort compare samples with
  | [] -> 0
  | sorted ->
    let n = List.length sorted in
    List.nth sorted (min (n - 1) (99 * n / 100))

let run_slo_case ~autopilot w =
  let captured = ref None in
  let config =
    if autopilot then Lp_core.Config.make ~pause_slo_p99_ns:slo_target_ns ()
    else Lp_core.Config.make ~gc_engine:Lp_core.Config.Incremental ()
  in
  let r =
    Lp_harness.Driver.run ~config ~max_iterations:slo_iterations
      ~prepare_vm:(fun vm -> captured := Some vm)
      w
  in
  let vm = match !captured with Some vm -> vm | None -> assert false in
  let tagged = Lp_runtime.Vm.pause_samples vm in
  let ns = List.map snd tagged in
  let adjustments, switches, final_budget =
    match Lp_runtime.Vm.autopilot vm with
    | Some ap ->
      ( Lp_slo.Autopilot.adjustments ap,
        Lp_slo.Autopilot.switches ap,
        Lp_slo.Autopilot.budget ap )
    | None -> (0, 0, 256)
  in
  {
    sc_workload = r.Lp_harness.Driver.workload;
    sc_mode = (if autopilot then "autopilot" else "static");
    sc_gc_count = r.Lp_harness.Driver.gc_count;
    sc_bytes_reclaimed = r.Lp_harness.Driver.bytes_reclaimed;
    sc_pruned = r.Lp_harness.Driver.pruned_edge_types;
    sc_samples = List.length tagged;
    sc_monolithic =
      List.length
        (List.filter
           (fun (p, _) -> p = Lp_heap.Trace_engine.Monolithic)
           tagged);
    sc_p99_ns = slo_p99 ns;
    sc_max_ns = Lp_runtime.Vm.max_pause_ns vm;
    sc_adjustments = adjustments;
    sc_switches = switches;
    sc_final_budget = final_budget;
  }

let slo () =
  let cases =
    List.concat_map
      (fun w ->
        [ run_slo_case ~autopilot:false w; run_slo_case ~autopilot:true w ])
      slo_workloads
  in
  let static c =
    List.find
      (fun b -> b.sc_workload = c.sc_workload && b.sc_mode = "static")
      cases
  in
  let autopilots = List.filter (fun c -> c.sc_mode = "autopilot") cases in
  (* determinism under feedback: rerun every autopilot case and compare
     the reclamation outcome bit for bit (pause timings are excluded —
     they are wall-clock and may not repeat) *)
  let reruns = List.map (run_slo_case ~autopilot:true) slo_workloads in
  let outcome c = (c.sc_workload, c.sc_gc_count, c.sc_bytes_reclaimed, c.sc_pruned) in
  let nondeterministic =
    List.exists2 (fun a b -> outcome a <> outcome b) autopilots reruns
  in
  let case_row c =
    [ ("workload", str c.sc_workload);
      ("mode", str c.sc_mode);
      ("collections", int c.sc_gc_count);
      ("bytes_reclaimed", int c.sc_bytes_reclaimed);
      ("pause_samples", int c.sc_samples);
      ("monolithic_samples", int c.sc_monolithic);
      ("p99_pause_ns", int c.sc_p99_ns);
      ("max_pause_ns", int c.sc_max_ns);
      ("slo_adjustments", int c.sc_adjustments);
      ("engine_switches", int c.sc_switches);
      ("final_budget", int c.sc_final_budget) ]
  in
  { Report.scenario = "slo"; benchmark = "pause_slo"; host = Report.host;
    fields = [ ("target_p99_ns", int slo_target_ns) ];
    cases = List.map case_row cases;
    gates =
      [ Report.gate "autopilot_p99_below_static_everywhere"
          (List.filter_map
             (fun c ->
               let s = (static c).sc_p99_ns in
               if c.sc_p99_ns < s then None
               else
                 Some
                   (Printf.sprintf "%s autopilot p99 %dns not below static %dns"
                      c.sc_workload c.sc_p99_ns s))
             autopilots);
        Report.gate "monolithic_samples_in_autopilot_runs"
          (List.filter_map
             (fun c ->
               if c.sc_monolithic = 0 then None
               else
                 Some
                   (Printf.sprintf
                      "%s autopilot run contains %d Monolithic pause \
                       sample(s); every pause must be slice-bounded"
                      c.sc_workload c.sc_monolithic))
             autopilots);
        Report.gate "deterministic_under_feedback"
          (if nondeterministic then
             [ "autopilot reruns diverged on reclamation outcome (budget \
                feedback leaked into collector decisions)" ]
           else []) ] }

(* ------------------------------------------------------------------ *)
(* Fleet scenario: a small multi-tenant fleet under chaos — one tenant
   pinned SAFE, seeded kills and disk-pressure windows — reporting
   per-tenant and aggregate throughput, pause percentiles, restart
   counts and shed rate.  The gate is the fleet's isolation contract:
   zero verifier failures and zero crashes across every tenant, or the
   bench exits 1. *)

let fleet () =
  let seed = 11 and rounds = 80 and tenants = 4 in
  let specs =
    List.init tenants (fun id ->
        {
          Lp_fleet.Tenant.id;
          name = Printf.sprintf "tenant-%d" id;
          workload = Lp_workloads.List_leak.workload;
          heap_bytes = 20_000;
          quota_bytes = 20_000;
          rate_per_mille = 2_000;
          policy = Lp_core.Policy.Default;
          force_safe = id = 1;
          resurrection = true;
          liveness = Lp_core.Config.Liveness_off;
          pause_slo_p99_ns = None;
          gc_packet_size = None;
        })
  in
  let options =
    { (Lp_fleet.Fleet.default_options ~seed ~rounds ()) with
      Lp_fleet.Fleet.chaos = true;
      chaos_events = 4
    }
  in
  let t0 = Sys.time () in
  let report = Lp_fleet.Fleet.run options specs in
  let cpu_s = Sys.time () -. t0 in
  let open Lp_fleet.Fleet in
  let shed t = t.shed_queue + t.shed_deadline + t.shed_retries + t.shed_retired in
  let rate num den = if den = 0 then 0.0 else float_of_int num /. float_of_int den in
  let tenant_row t =
    let timing = List.find (fun ti -> ti.t_tenant = t.tenant) report.timings in
    Json.Obj
      [ ("tenant", int t.tenant);
        ("arrived", int t.arrived);
        ("served", int t.served);
        ("throughput_per_round", fixed 3 (rate t.served rounds));
        ("shed", int (shed t));
        ("shed_rate", fixed 4 (rate (shed t) t.arrived));
        ("restarts", int t.restarts);
        ("kills", int t.kills);
        ("crashes", int t.crashes);
        ("bytes_reclaimed", int t.bytes_reclaimed);
        ("references_poisoned", int t.references_poisoned);
        ("verifier_checks", int t.verifier_checks);
        ("verifier_failures", int t.verifier_failures);
        ("admission_denials", int t.admission_denials);
        ("pause_count", int timing.pause_count);
        ("pause_p50_ns", int timing.pause_p50_ns);
        ("pause_p99_ns", int timing.pause_p99_ns);
        ("pause_max_ns", int timing.pause_max_ns) ]
  in
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 report.tenant_reports in
  let arrived = sum (fun t -> t.arrived) in
  let served = sum (fun t -> t.served) in
  let shed_total = sum shed in
  let verifier_failures = sum (fun t -> t.verifier_failures) in
  let crashes = sum (fun t -> t.crashes) in
  { Report.scenario = "fleet"; benchmark = "fleet"; host = Report.host;
    fields =
      [ ("seed", int seed);
        ("rounds", int rounds);
        ("tenants", int tenants);
        ("chaos", Json.Bool true);
        ("faults_fired", int report.faults_fired);
        ("per_tenant", Json.List (List.map tenant_row report.tenant_reports));
        ( "aggregate",
          Json.Obj
            [ ("arrived", int arrived);
              ("served", int served);
              ("throughput_per_round", fixed 3 (rate served rounds));
              ("shed", int shed_total);
              ("shed_rate", fixed 4 (rate shed_total arrived));
              ("restarts", int (sum (fun t -> t.restarts)));
              ("verifier_failures", int verifier_failures);
              ("crashes", int crashes);
              ("backend_used_bytes", int report.backend_used_bytes);
              ("backend_denials", int report.backend_denials) ] );
        ("cpu_seconds", fixed 3 cpu_s) ];
    cases = [];
    gates =
      [ Report.gate "isolation"
          (if verifier_failures > 0 || crashes > 0 then
             [ Printf.sprintf
                 "%d verifier failure(s), %d crash(es) — isolation contract \
                  broken"
                 verifier_failures crashes ]
           else []) ] }

(* ------------------------------------------------------------------ *)
(* Restart scenario: warm (checkpoint-restoring) versus cold restarts,
   25 seeds.  One PhasedCache tenant is killed at mid-run; the warm
   fleet restores the controller brain from its last checkpoint, the
   cold baseline (warm_restart_limit = 0) relearns from scratch.  The
   oracle: both runs clean, the warm restart actually takes the warm
   path and reaches readiness, and the warm run ends with *strictly*
   fewer mispredictions than the cold one — the learning burst is paid
   once, not twice.  Any violation exits 1. *)

let restart () =
  let seeds = 25 and rounds = 60 and kill_round = 30 in
  let spec =
    {
      Lp_fleet.Tenant.id = 0;
      name = "tenant-0";
      workload = Lp_workloads.Phased_cache.workload;
      heap_bytes = 14_000;
      quota_bytes = 14_000;
      rate_per_mille = 2_200;
      policy = Lp_core.Policy.Default;
      force_safe = false;
      resurrection = true;
      liveness = Lp_core.Config.Liveness_off;
      pause_slo_p99_ns = None;
    gc_packet_size = None;
    }
  in
  (* trip bar 1000 permille: the breaker (strict inequality) can never
     trip on a 1-tenant fleet, so time-to-ready measures quarantine plus
     the readiness probe, not a storm cooldown *)
  let admission ~warm =
    if warm then Lp_core.Config.make ~storm_trip_permille:1000 ()
    else Lp_core.Config.make ~warm_restart_limit:0 ~storm_trip_permille:1000 ()
  in
  let run ~warm seed =
    let options =
      { (Lp_fleet.Fleet.default_options ~seed ~rounds ()) with
        Lp_fleet.Fleet.requests_per_round = 2;
        admission = admission ~warm;
        kills = [ (kill_round, 0) ]
      }
    in
    let t0 = Unix.gettimeofday () in
    let report = Lp_fleet.Fleet.run options [ spec ] in
    let wall_s = Unix.gettimeofday () -. t0 in
    (report, List.hd report.Lp_fleet.Fleet.tenant_reports, wall_s)
  in
  let ready_round (report : Lp_fleet.Fleet.report) =
    List.fold_left
      (fun acc (s : Lp_obs.Event.stamped) ->
        match s.Lp_obs.Event.ev with
        | Lp_obs.Event.Tenant_ready { round; _ }
          when round > kill_round && acc = None ->
          Some round
        | _ -> acc)
      None report.Lp_fleet.Fleet.events
  in
  let violations = ref [] in
  let violate seed fmt =
    Printf.ksprintf
      (fun msg -> violations := Printf.sprintf "seed %d: %s" seed msg :: !violations)
      fmt
  in
  let per_seed =
    List.init seeds (fun i ->
        let seed = i + 1 in
        let warm_report, w, warm_wall = run ~warm:true seed in
        let cold_report, c, cold_wall = run ~warm:false seed in
        if Lp_fleet.Fleet.failed warm_report then
          violate seed "warm run failed (verifier failure or crash)";
        if Lp_fleet.Fleet.failed cold_report then
          violate seed "cold run failed (verifier failure or crash)";
        if w.Lp_fleet.Fleet.warm_restarts < 1 then
          violate seed "no warm restart happened (warm=%d cold=%d fallbacks=%d)"
            w.Lp_fleet.Fleet.warm_restarts w.Lp_fleet.Fleet.cold_restarts
            w.Lp_fleet.Fleet.checkpoint_fallbacks;
        let warm_ready = ready_round warm_report in
        let cold_ready = ready_round cold_report in
        if warm_ready = None then violate seed "warm tenant never became ready";
        if cold_ready = None then violate seed "cold tenant never became ready";
        if w.Lp_fleet.Fleet.mispredictions >= c.Lp_fleet.Fleet.mispredictions then
          violate seed
            "warm mispredictions %d not strictly below cold %d — the restored \
             brain bought nothing"
            w.Lp_fleet.Fleet.mispredictions c.Lp_fleet.Fleet.mispredictions;
        let ttr = function Some r -> r - kill_round | None -> -1 in
        [ ("seed", int seed);
          ("warm_mispredictions", int w.Lp_fleet.Fleet.mispredictions);
          ("cold_mispredictions", int c.Lp_fleet.Fleet.mispredictions);
          ("warm_rounds_to_ready", int (ttr warm_ready));
          ("cold_rounds_to_ready", int (ttr cold_ready));
          ("warm_wall_s", fixed 6 warm_wall);
          ("cold_wall_s", fixed 6 cold_wall) ])
  in
  let mean key digits =
    fixed digits
      (List.fold_left (fun acc row -> acc +. number key row) 0.0 per_seed
      /. float_of_int seeds)
  in
  { Report.scenario = "restart"; benchmark = "restart"; host = Report.host;
    fields =
      [ ("workload", str "PhasedCache");
        ("seeds", int seeds);
        ("rounds", int rounds);
        ("kill_round", int kill_round);
        ("per_seed", Json.List (List.map (fun row -> Json.Obj row) per_seed));
        ( "aggregate",
          Json.Obj
            [ ("mean_warm_mispredictions", mean "warm_mispredictions" 2);
              ("mean_cold_mispredictions", mean "cold_mispredictions" 2);
              ("mean_warm_rounds_to_ready", mean "warm_rounds_to_ready" 2);
              ("mean_cold_rounds_to_ready", mean "cold_rounds_to_ready" 2);
              ("mean_warm_wall_s", mean "warm_wall_s" 6);
              ("mean_cold_wall_s", mean "cold_wall_s" 6) ] ) ];
    cases = [];
    gates = [ Report.gate "violations" (List.rev !violations) ] }

(* Static-liveness scenario: dynamic-only SELECT versus the
   access-graph oracle composed with staleness, across the four
   bytecode-modelled workloads and 25 deterministic iteration-cap
   variants each (caps stand in for seeds: the workloads are
   deterministic, so varying the cap varies how much of the phase
   schedule — and so how many prune decisions — each run sees).  Every
   run enables resurrection so a misprediction is a recovered, counted
   event rather than a fatal stop.  The oracle: guided runs are
   deterministic (each is executed twice and must agree), guided never
   mispredicts MORE than dynamic-only on any variant, and on at least
   one PhasedCache or AdaptonHull variant it mispredicts strictly
   less — those two workloads were built to make dynamic-only SELECT
   choose a stale-but-live structure.  Any violation exits 1. *)

let liveness () =
  let variants = 25 in
  let cap seed = 200 + (40 * seed) in
  let bench_workloads =
    [
      Lp_workloads.List_leak.workload;
      Lp_workloads.Swap_leak.workload;
      Lp_workloads.Phased_cache.workload;
      Lp_workloads.Adapton_hull.workload;
    ]
  in
  let run mode w n =
    let config = Lp_core.Config.make ~liveness_mode:mode () in
    Lp_harness.Driver.run ~config ~resurrection:true ~max_iterations:n w
  in
  let key (r : Lp_harness.Driver.result) =
    ( r.Lp_harness.Driver.iterations,
      r.Lp_harness.Driver.gc_count,
      r.Lp_harness.Driver.mispredictions,
      r.Lp_harness.Driver.references_poisoned,
      r.Lp_harness.Driver.bytes_reclaimed,
      r.Lp_harness.Driver.liveness_vetoes,
      r.Lp_harness.Driver.liveness_boosts )
  in
  let violations = ref [] in
  let violate fmt =
    Printf.ksprintf (fun msg -> violations := msg :: !violations) fmt
  in
  let per_workload =
    List.map
      (fun w ->
        let name = w.Lp_workloads.Workload.name in
        let rows =
          List.init variants (fun i ->
              let n = cap (i + 1) in
              let off = run Lp_core.Config.Liveness_off w n in
              let guide = run Lp_core.Config.Liveness_guide w n in
              let guide' = run Lp_core.Config.Liveness_guide w n in
              if key guide <> key guide' then
                violate "%s cap %d: guided run is not deterministic" name n;
              let om = off.Lp_harness.Driver.mispredictions in
              let gm = guide.Lp_harness.Driver.mispredictions in
              if gm > om then
                violate "%s cap %d: guided mispredicted %d > dynamic-only %d"
                  name n gm om;
              [ ("workload", str name);
                ("cap", int n);
                ("off_mispredictions", int om);
                ("guide_mispredictions", int gm);
                ("off_iterations", int off.Lp_harness.Driver.iterations);
                ("guide_iterations", int guide.Lp_harness.Driver.iterations);
                ("guide_vetoes", int guide.Lp_harness.Driver.liveness_vetoes);
                ("guide_boosts", int guide.Lp_harness.Driver.liveness_boosts) ])
        in
        let total k =
          Json.Number (List.fold_left (fun acc r -> acc +. number k r) 0.0 rows)
        in
        if
          (name = "PhasedCache" || name = "AdaptonHull")
          && not
               (List.exists
                  (fun r ->
                    number "guide_mispredictions" r < number "off_mispredictions" r)
                  rows)
        then
          violate
            "%s: guided never strictly beat dynamic-only on any variant" name;
        ( rows,
          [ ("workload", str name);
            ("off_mispredictions", total "off_mispredictions");
            ("guide_mispredictions", total "guide_mispredictions");
            ("guide_vetoes", total "guide_vetoes");
            ("guide_boosts", total "guide_boosts") ] ))
      bench_workloads
  in
  let objs rows = Json.List (List.map (fun r -> Json.Obj r) rows) in
  { Report.scenario = "liveness"; benchmark = "liveness"; host = Report.host;
    fields =
      [ ("variants_per_workload", int variants);
        ("per_variant", objs (List.concat_map fst per_workload));
        ("per_workload", objs (List.map snd per_workload)) ];
    cases = [];
    gates = [ Report.gate "violations" (List.rev !violations) ] }

(* ------------------------------------------------------------------ *)

let scenario id summary run =
  ( id,
    summary,
    fun () ->
      Lp_harness.Render.header id summary;
      Report.emit (run ()) )

(* (id, summary, run) for every experiment and scenario, in run-all
   order. *)
let all =
  Lp_harness.Experiments.all @ Lp_harness.Ablations.all
  @ [
      scenario "micro" "Bechamel wall-clock cost of core operations" micro;
      scenario "resurrection"
        "Resurrection overhead over deterministic leak/prune/recover rounds"
        resurrection;
      scenario "obs"
        "Disabled-observability overhead of the read barrier (3% budget \
         reported, not enforced)"
        (obs_overhead ~enforce:false);
      scenario "obs-gate"
        "Same measurement; fails if the overhead exceeds the 3% budget"
        (obs_overhead ~enforce:true);
      scenario "gc-parallel"
        "Parallel-GC matrix over {1,2,4} domains x steal {off,on}; fails if \
         outputs diverge, coordination regresses, or (on >= 4 cores) 4 \
         domains do not beat 1"
        parallel_gc;
      scenario "gc-pauses"
        "Pause profile under seq/par2/inc engines; fails if outputs diverge \
         or an incremental slice busts its budget"
        gc_pauses;
      scenario "slo"
        "Pause-SLO autopilot vs the static incremental default; fails unless \
         the autopilot's p99 beats static everywhere, no pause is \
         monolithic, and reruns reclaim bit-identically"
        slo;
      scenario "fleet"
        "Multi-tenant fleet under chaos; fails on any verifier failure or \
         crash"
        fleet;
      scenario "restart"
        "Warm vs cold restarts over 25 seeds; fails unless every warm run \
         beats its cold baseline"
        restart;
      scenario "liveness"
        "Static liveness oracle vs dynamic-only SELECT over 25 variants per \
         workload; fails unless guided is deterministic, never worse, and \
         strictly better somewhere"
        liveness;
    ]

let () =
  let args =
    let rec strip = function
      | "--csv" :: dir :: rest ->
        Lp_harness.Csv_export.set_directory (Some dir);
        strip rest
      | arg :: rest -> arg :: strip rest
      | [] -> []
    in
    strip (List.tl (Array.to_list Sys.argv))
  in
  match args with
  | [] ->
    (* obs-gate repeats obs's measurement with the budget enforced *)
    List.iter (fun (id, _, run) -> if id <> "obs-gate" then run ()) all
  | [ "--list" ] ->
    List.iter (fun (id, summary, _) -> Printf.printf "%-13s %s\n" id summary) all
  | ids ->
    List.iter
      (fun id ->
        match List.find_opt (fun (i, _, _) -> i = id) all with
        | Some (_, _, run) -> run ()
        | None ->
          Printf.eprintf "unknown experiment %S; try --list\n" id;
          exit 1)
      ids
