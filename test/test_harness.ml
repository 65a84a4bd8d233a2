(* Harness pieces: rendering helpers, CSV export, the driver. *)

let test_downsample_linear () =
  let points = List.init 100 (fun i -> (i, i * 2)) in
  let sampled = Lp_harness.Render.downsample_linear ~every:10 points in
  Alcotest.(check bool) "about one point per bucket" true
    (List.length sampled <= 12);
  (match List.rev sampled with
  | (x, _) :: _ -> Alcotest.(check int) "last point kept" 99 x
  | [] -> Alcotest.fail "empty")

let test_downsample_log () =
  let points = List.init 10_000 (fun i -> (i + 1, i)) in
  let sampled = Lp_harness.Render.downsample_log points in
  Alcotest.(check bool) "logarithmic density" true (List.length sampled < 60);
  match List.rev sampled with
  | (x, _) :: _ -> Alcotest.(check int) "last point kept" 10_000 x
  | [] -> Alcotest.fail "empty"

let test_percent_and_factor () =
  Alcotest.(check string) "percent" "+3.4%" (Lp_harness.Render.percent 0.034);
  Alcotest.(check string) "factor" "21.3X" (Lp_harness.Render.factor 21.3);
  Alcotest.(check string) "big factor" "250X" (Lp_harness.Render.factor 250.4);
  Alcotest.(check string) "infinite" "inf" (Lp_harness.Render.factor infinity)

let test_csv_roundtrip () =
  let dir = Filename.temp_file "lpcsv" "" in
  Sys.remove dir;
  Lp_harness.Csv_export.set_directory (Some dir);
  Lp_harness.Csv_export.table ~experiment:"t" ~name:"n"
    ~columns:[ "a"; "b" ]
    ~rows:[ [ "1"; "x,y" ]; [ "2"; "plain" ] ];
  Lp_harness.Csv_export.series ~experiment:"t" ~name:"s" [ (1, 10); (2, 20) ];
  Lp_harness.Csv_export.set_directory None;
  let read_file f =
    let ic = open_in f in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let table = read_file (Filename.concat dir "t_n.csv") in
  Alcotest.(check string) "table contents" "a,b\n1,\"x,y\"\n2,plain\n" table;
  let series = read_file (Filename.concat dir "t_s.csv") in
  Alcotest.(check string) "series contents" "x,y\n1,10\n2,20\n" series

let test_csv_disabled_is_noop () =
  Lp_harness.Csv_export.set_directory None;
  Alcotest.(check bool) "disabled" false (Lp_harness.Csv_export.enabled ());
  (* must not raise or create files *)
  Lp_harness.Csv_export.table ~experiment:"x" ~name:"y" ~columns:[ "a" ] ~rows:[]

let test_driver_records_series_and_outcome () =
  let r =
    Lp_harness.Driver.run ~policy:Lp_core.Policy.None_ ~max_iterations:400
      ~record_iteration_cycles:true Lp_workloads.List_leak.workload
  in
  (match r.Lp_harness.Driver.outcome with
  | Lp_harness.Driver.Out_of_memory _ -> ()
  | o -> Alcotest.failf "expected OOM, got %s" (Lp_harness.Driver.outcome_to_string o));
  Alcotest.(check int) "one cycle sample per iteration" r.Lp_harness.Driver.iterations
    (Array.length r.Lp_harness.Driver.iteration_cycles);
  Alcotest.(check bool) "reachable series recorded" true
    (r.Lp_harness.Driver.reachable_series <> []);
  (* the series' iteration indices are non-decreasing *)
  let rec sorted = function
    | (a, _) :: ((b, _) :: _ as rest) -> a <= b && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "series ordered" true (sorted r.Lp_harness.Driver.reachable_series)

(* A listener installed in [prepare_vm] stays in place: the driver
   builds its series from the VM's collection history instead of
   installing a listener of its own. The run ends out of memory, so the
   collections of the failing iteration are covered too. *)
let test_driver_keeps_prepare_listener () =
  let seen = ref [] in
  let r =
    Lp_harness.Driver.run ~policy:Lp_core.Policy.None_ ~max_iterations:400
      ~prepare_vm:(fun vm ->
        Lp_runtime.Vm.set_gc_listener vm
          (Some (fun g -> seen := g.Lp_runtime.Vm.live_bytes_after :: !seen)))
      Lp_workloads.List_leak.workload
  in
  Alcotest.(check bool) "collections ran" true (r.Lp_harness.Driver.gc_count > 0);
  Alcotest.(check int) "listener fired once per collection"
    r.Lp_harness.Driver.gc_count (List.length !seen);
  Alcotest.(check (list int)) "series covers the same collections"
    (List.rev !seen)
    (List.map snd r.Lp_harness.Driver.reachable_series)

let test_driver_survival_factor () =
  let base =
    { (Lp_harness.Driver.run ~policy:Lp_core.Policy.None_ ~max_iterations:10
         Lp_workloads.List_leak.workload)
      with Lp_harness.Driver.iterations = 100 }
  in
  let better = { base with Lp_harness.Driver.iterations = 250 } in
  Alcotest.(check (float 0.001)) "factor" 2.5
    (Lp_harness.Driver.survival_factor ~base better)

let suite =
  ( "harness",
    [
      Alcotest.test_case "downsample linear" `Quick test_downsample_linear;
      Alcotest.test_case "downsample log" `Quick test_downsample_log;
      Alcotest.test_case "percent/factor" `Quick test_percent_and_factor;
      Alcotest.test_case "csv roundtrip" `Quick test_csv_roundtrip;
      Alcotest.test_case "csv disabled" `Quick test_csv_disabled_is_noop;
      Alcotest.test_case "driver records" `Quick test_driver_records_series_and_outcome;
      Alcotest.test_case "survival factor" `Quick test_driver_survival_factor;
      Alcotest.test_case "driver keeps a prepare_vm listener" `Quick
        test_driver_keeps_prepare_listener;
    ] )
