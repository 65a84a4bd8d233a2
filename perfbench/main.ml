(* The repository benchmark: one workload per invocation, driven in a
   closed loop through the public API of lp_runtime and lp_workloads.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   alternates untraced and traced episodes, prints the per-layer
   metrics and writes the spans and the probe table under
   perfbench/out/. The last line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The exit code is 0
   only when every iteration completed and every output check passed.
   README.md defines the workloads and metrics. *)

module Json = Lp_obs.Json

let out_dir = Filename.concat "perfbench" "out"

(* Set-up samples: a batch of [setups_per_episode] back to back after
   every episode, so they are spread over the run like the other
   samples, and at least [min_setups] in all. None is taken before the
   first episode, while the process is still cold. Each batch starts
   after a full host major collection; in an untraced run the batch is
   scaled to reference-host time by the kernel times around it. *)
let setups_per_episode = 21
let min_setups = 63

(* Episodes of an untraced run, at least: the first warms the process
   up and is left out of the timings; every episode is checked. *)
let min_episodes = 3

(* A p99 needs at least ten samples beyond it: the timed episodes of a
   run hold at least this many iterations and collections. *)
let min_samples = 1_000

(* ---- JSON output ---- *)

let json_quote b s =
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 || Char.code c >= 0x7f ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let rec json_to_buffer b = function
  | Json.Null -> Buffer.add_string b "null"
  | Json.Bool x -> Buffer.add_string b (string_of_bool x)
  | Json.Number f when Float.is_integer f && Float.abs f < 1e15 ->
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  | Json.Number f when Float.is_finite f -> Buffer.add_string b (Printf.sprintf "%.17g" f)
  | Json.Number _ -> Buffer.add_string b "null"
  | Json.String s -> json_quote b s
  | Json.List l ->
    Buffer.add_char b '[';
    List.iteri (fun i v -> if i > 0 then Buffer.add_char b ','; json_to_buffer b v) l;
    Buffer.add_char b ']'
  | Json.Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        json_quote b k;
        Buffer.add_char b ':';
        json_to_buffer b v)
      fields;
    Buffer.add_char b '}'

let json_string v =
  let b = Buffer.create 1024 in
  json_to_buffer b v;
  Buffer.contents b

let num x = Json.Number x
let int n = Json.Number (float n)

(* ---- host ---- *)

(* Peak resident set of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float kb /. 1024.)
        | Some _ -> scan ()
      in
      scan ())

let host_cores = Domain.recommended_domain_count ()

(* ---- metrics ---- *)

let ratio a b = if b = 0. then 0. else a /. b

let total f l = List.fold_left (fun a x -> a + f x) 0 l
let completed (o : Episode.outcome) = o.completed
let collections (o : Episode.outcome) = Samples.length o.pause_ns

(* Median over episodes of iterations per second of [f]'s samples. *)
let median_rate f eps =
  Samples.median_of_floats
    (List.map (fun (o : Episode.outcome) -> ratio (float o.completed) (float (Samples.sum (f o)) /. 1e9)) eps)

let iters_per_s eps =
  let ns = total (fun (o : Episode.outcome) -> o.loop_ns) eps in
  if ns = 0 then 0. else float (total completed eps) /. (float ns /. 1e9)

(* End-to-end metrics, from the measured episodes of an untraced run,
   in reference-host time (see Reference): each timing was scaled by the
   host's speed around it. Iteration and pause percentiles pool the
   samples of every measured episode; the rate is the median of the
   episodes' rates. *)
let e2e_metrics eps ~setups ~rss ~attempted ~failed =
  let us f q =
    let s = Samples.create () in
    List.iter (fun o -> Samples.append s (f o)) eps;
    Samples.quantile_sorted (Samples.sorted s) q /. 1e3
  in
  let iter (o : Episode.outcome) = o.iter_ref_ns and pause (o : Episode.outcome) = o.pause_ref_ns in
  [
    ("iters_per_s", median_rate iter eps, "1/s");
    ("iter_p50_us", us iter 0.5, "us");
    ("iter_p99_us", us iter 0.99, "us");
    ("gc_pause_p50_us", us pause 0.5, "us");
    ("gc_pause_p99_us", us pause 0.99, "us");
    ("setup_s", Samples.median_of_floats (List.map (fun ns -> float ns /. 1e9) setups), "s");
    ("peak_rss_mb", rss, "MB");
    ("completed_frac", ratio (float (attempted - failed)) (float attempted), "frac");
  ]

let layer_metrics (traced : Episode.outcome list) ~untraced (probes : Probes.table list) =
  let n = float (List.length traced) in
  let sum k = List.fold_left (fun a (o : Episode.outcome) -> a +. List.assoc k o.layer) 0. traced in
  let max_of k = List.fold_left (fun a (o : Episode.outcome) -> Float.max a (List.assoc k o.layer)) 0. traced in
  let per_ep k = ratio (sum k) n in
  let probe name f =
    Samples.median_of_floats (List.map (fun t -> f (Probes.find t name)) probes)
  in
  let ns name = probe name (fun r -> r.Probes.ns_per_op) in
  let words name = probe name (fun r -> r.Probes.words_per_op) in
  let mutator_ns =
    List.fold_left
      (fun a (o : Episode.outcome) -> a + Samples.sum o.iter_ns - Samples.sum o.pause_ns)
      0 traced
  in
  let traced_rate = iters_per_s traced and untraced_rate = iters_per_s untraced in
  let count = "count" in
  [
    ("vm.collections", per_ep "collections", count);
    ("vm.gc_s", per_ep "gc_ns" /. 1e9, "s");
    ("vm.mutator_s", ratio (float mutator_ns) n /. 1e9, "s");
    ("vm.pause_samples_per_gc", ratio (sum "pause_samples") (sum "collections"), "count/gc");
    ("vm.alloc_ns", ns "alloc_class", "ns");
    ("vm.alloc_minor_words", words "alloc_class", "words");
    ("vm.forced_gc_us", ns "run_gc" /. 1e3, "us");
    ( "vm.gc_untimed_frac",
      Samples.median_of_floats (List.map (fun t -> t.Probes.gc_untimed_frac) probes),
      "frac" );
    ("mutator.read_fast_ns", ns "read_fast", "ns");
    ("mutator.read_cold_ns", ns "read_cold", "ns");
    ("mutator.read_minor_words", words "read_fast", "words");
    ("mutator.read_cold_minor_words", words "read_cold", "words");
    ("heap.fields_scanned", per_ep "fields_scanned", count);
    ("heap.objects_marked", per_ep "objects_marked", count);
    ("heap.objects_swept", per_ep "objects_swept", count);
    ("heap.stale_closure_objects", per_ep "stale_closure_objects", count);
    ("heap.mark_ns_per_field", ratio (sum "mark_wall_ns") (sum "fields_scanned"), "ns/field");
    ( "heap.nonmark_ns_per_swept",
      ratio (sum "gc_ns" -. sum "mark_wall_ns") (sum "objects_swept"),
      "ns/object" );
    ("heap.tick_scans_per_marked", ratio (sum "stale_tick_scans") (sum "objects_marked"), "ratio");
    ("heap.max_slice_objects", max_of "max_slice_objects", count);
    ("host.minor_words_per_field", ratio (sum "minor_words") (sum "fields_scanned"), "words/field");
    ("host.minor_gcs", per_ep "minor_gcs", count);
    ("host.major_gcs", per_ep "major_gcs", count);
    ("controller.select_gcs", per_ep "select_gcs", count);
    ("controller.prune_gcs", per_ep "prune_gcs", count);
    ("controller.references_poisoned", per_ep "references_poisoned", count);
    ("controller.edge_types", per_ep "edge_types", count);
    ("controller.pruned_types", per_ep "pruned_types", count);
    ("controller.selection_scans", per_ep "selection_scans", count);
    ("controller.select_scan_us", ns "select_max_bytes" /. 1e3, "us");
    ("par.pooled_rounds", per_ep "pooled_rounds", count);
    ("par.dispatches", per_ep "dispatches", count);
    ("par.steals", per_ep "steals", count);
    ("par.dispatches_per_round", ratio (sum "dispatches") (sum "pooled_rounds"), "ratio");
    ("slo.adjustments", per_ep "slo_adjustments", count);
    ("slo.switches", per_ep "slo_switches", count);
    ("slo.escalations", per_ep "slo_escalations", count);
    ("slo.final_budget", per_ep "slo_budget", "objects");
    ("trace.iters_per_s", traced_rate, "1/s");
    ("trace.untraced_iters_per_s", untraced_rate, "1/s");
    ("trace.overhead_frac", ratio untraced_rate traced_rate -. 1., "frac");
  ]

(* The episodes an untraced run times: all but the warm-up. *)
let measured = function _ :: (_ :: _ as rest) -> rest | eps -> eps

(* ---- the run ---- *)

type run = {
  episodes : (bool * Episode.outcome) list;  (** (traced, outcome), in order *)
  probes : Probes.table list;
  setups : int list;
  rss : float;  (** peak resident MB through the first episode *)
  problems : string list;
}

(* In a traced run the first episode is untraced and warms the process
   up; after it, traced and untraced episodes alternate, and the
   untraced ones give the tracing overhead. *)
let run_workload (c : Cases.t) ~seed ~seconds ~trace ~spans =
  let setups = ref [] in
  let sample_setups n =
    Gc.full_major ();
    let kernel () = if trace then Reference.k0_ns else Reference.measure () in
    let before = kernel () in
    let batch = List.init n (fun _ -> Episode.setup_only c ~seed) in
    let factor = float (before + kernel ()) /. 2. /. float Reference.k0_ns in
    setups := List.map (fun ns -> int_of_float (float ns /. factor)) batch @ !setups
  in
  let rss = ref 0. in
  let start = Clock.now () in
  let budget_ns = int_of_float (seconds *. 1e9) in
  let probes = ref [] in
  let rec loop acc =
    let k = List.length acc in
    let traced = trace && k mod 2 = 1 in
    let probe vm = probes := Probes.run ?spans vm :: !probes in
    let o =
      if traced then Episode.run ?spans ~probe c ~seed
      else Episode.run ~calibrate:(not trace) c ~seed
    in
    if k = 0 then rss := peak_rss_mb ();
    sample_setups setups_per_episode;
    let acc = (traced, o) :: acc in
    let elapsed = Clock.now () - start in
    let per_episode = elapsed / (k + 1) in
    let enough =
      if trace then k + 1 >= 3
      else
        let timed = measured (List.rev_map snd acc) in
        k + 1 >= min_episodes
        && total completed timed >= min_samples
        && total collections timed >= min_samples
    in
    if o.Episode.problem <> None then acc
    else if (not enough) || elapsed + per_episode <= budget_ns then loop acc
    else acc
  in
  let episodes = List.rev (loop []) in
  if List.length !setups < min_setups then sample_setups (min_setups - List.length !setups);
  let outcomes = List.map snd episodes in
  let first = List.hd outcomes in
  let problems =
    List.filter_map (fun (o : Episode.outcome) -> o.problem) outcomes
    @ List.filter_map
        (fun (o : Episode.outcome) ->
          if o.problem = None && o.digest <> first.digest then
            Some ("digest differs across episodes: " ^ o.digest)
          else None)
        outcomes
  in
  {
    episodes;
    probes = List.rev !probes;
    setups = !setups;
    rss = !rss;
    problems;
  }

let seq_problem (c : Cases.t) ~seed (first : Episode.outcome) =
  if not c.seq_reference then None
  else
    let s = Episode.run (Cases.sequential c) ~seed in
    match s.problem with
    | Some p -> Some ("sequential reference: " ^ p)
    | None when s.digest <> first.digest ->
      Some (Printf.sprintf "digest differs from sequential: %s vs %s" first.digest s.digest)
    | None -> None

let probe_json (t : Probes.table) =
  Json.Obj
    (List.map
       (fun (r : Probes.row) ->
         ( r.name,
           Json.Obj [ ("ops", int r.ops); ("ns_per_op", num r.ns_per_op); ("minor_words_per_op", num r.words_per_op) ] ))
       t.rows
    @ [ ("gc_untimed_frac", num t.gc_untimed_frac) ])

let main ~workload ~seed ~seconds ~trace =
  let c =
    match Cases.find workload with
    | Some c -> c
    | None ->
      Printf.eprintf "unknown workload %S (one of: %s)\n" workload
        (String.concat ", " (List.map (fun c -> c.Cases.name) Cases.all));
      exit 2
  in
  let spans = if trace then Some (Spans.create ()) else None in
  let { episodes; probes; setups; rss; problems } =
    run_workload c ~seed ~seconds ~trace ~spans
  in
  let outcomes = List.map snd episodes in
  let first = List.hd outcomes in
  let problems =
    match (problems, seq_problem c ~seed first) with
    | [], Some p -> [ p ]
    | ps, _ -> ps
  in
  let attempted = total (fun (o : Episode.outcome) -> o.attempted) outcomes in
  let failed = if problems = [] then attempted - total completed outcomes else attempted in
  let correct = failed = 0 in
  let metrics =
    if trace then
      layer_metrics
        (List.filter_map (fun (t, o) -> if t then Some o else None) episodes)
        ~untraced:(List.filter_map (fun (t, o) -> if t then None else Some o) (List.tl episodes))
        probes
    else e2e_metrics (measured outcomes) ~setups ~rss ~attempted ~failed
  in
  let info =
    [
      ("workload", Json.String c.name);
      ("seed", int seed);
      ("seed_reaches_program", Json.Bool c.seeded);
      ("trace", Json.Bool trace);
      ("host_cores", int host_cores);
      ("ocaml_version", Json.String Sys.ocaml_version);
      ("engine", Json.String (Lp_core.Config.gc_engine_to_string c.config.Lp_core.Config.gc_engine));
      ("episodes", int (List.length outcomes));
      ("iterations_per_episode", int c.iterations);
      ("iterations", int (total completed outcomes));
      ("collections", int (total collections outcomes));
      ("collections_per_episode", int (collections first));
      ("measured_episodes", int (List.length (measured outcomes)));
      ("host_factor", num (Samples.median_of_floats (List.map (fun (o : Episode.outcome) -> o.host_factor) (measured outcomes))));
      ("raw_iters_per_s", num (median_rate (fun o -> o.Episode.iter_ns) (measured outcomes)));
      ("setup_samples", int (List.length setups));
      ("digest", Json.String first.digest);
      ("problems", Json.List (List.map (fun p -> Json.String p) problems));
    ]
  in
  List.iter (fun (k, v) -> Printf.printf "%-22s %s\n" k (json_string v)) info;
  List.iter (fun (name, v, unit) -> Printf.printf "  %-32s %14.4f %s\n" name v unit) metrics;
  let metrics_json =
    Json.Obj (List.map (fun (name, v, unit) -> (name, Json.Obj [ ("value", num v); ("unit", Json.String unit) ])) metrics)
  in
  (try
     if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
     let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d-trace%d" c.name seed (Bool.to_int trace)) in
     let record =
       info
       @ [ ("metrics", metrics_json) ]
       @ if trace then [ ("probes", Json.List (List.map probe_json probes)) ] else []
     in
     Out_channel.with_open_text (base ^ ".json") (fun oc ->
         output_string oc (json_string (Json.Obj record));
         output_char oc '\n');
     Option.iter (fun s -> Spans.write s (base ^ ".trace.json")) spans
   with Sys_error e -> Printf.eprintf "could not write results: %s\n" e);
  print_endline
    (json_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", int attempted);
            ("failed", int failed);
            ("metrics", metrics_json);
          ]));
  exit (if correct then 0 else 1)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed (reaches jython-steady only)");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or traced per-layer (1) run");
    ]
  in
  let usage = "main.exe --workload NAME --seed N --seconds S --trace 0|1" in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !workload = "" || !seconds <= 0. || (!trace <> 0 && !trace <> 1) then begin
    Arg.usage spec usage;
    exit 2
  end;
  main ~workload:!workload ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
