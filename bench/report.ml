(* The one record every bench scenario returns, and the one place its
   results leave the process. [emit] writes BENCH_<scenario>.json at the
   repository root (run from there), prints the same data as tables,
   prints each gate's verdict and exits 1 iff a gate failed. *)

module Json = Lp_obs.Json

type verdict =
  | Pass
  | Fail of string  (* what broke, printed on stderr *)
  | Disarmed of string  (* why the condition is not enforced in this run *)

type host = { cores : int; ocaml_version : string }

type t = {
  scenario : string;  (* file stem: BENCH_<scenario>.json *)
  benchmark : string;  (* the file's "benchmark" value *)
  host : host;
  fields : (string * Json.value) list;
  cases : (string * Json.value) list list;  (* one table row per case *)
  gates : (string * verdict) list;
}

let host =
  { cores = Domain.recommended_domain_count (); ocaml_version = Sys.ocaml_version }

let int n = Json.Number (float_of_int n)

(* [x] as printed with [digits] decimals, so a measured time does not
   carry 17 significant digits of noise into the file. *)
let fixed digits x = Json.Number (float_of_string (Printf.sprintf "%.*f" digits x))

let str s = Json.String s

(* Pass iff [problems] is empty, else Fail listing every one. *)
let gate name problems =
  (name, if problems = [] then Pass else Fail (String.concat "; " problems))

let verdict_json = function
  | Pass -> Json.Obj [ ("verdict", str "pass") ]
  | Fail detail -> Json.Obj [ ("verdict", str "fail"); ("detail", str detail) ]
  | Disarmed reason ->
    Json.Obj [ ("verdict", str "disarmed"); ("reason", str reason) ]

let data r =
  if r.cases = [] then r.fields
  else r.fields @ [ ("cases", Json.List (List.map (fun c -> Json.Obj c) r.cases)) ]

let members r =
  (("benchmark", str r.benchmark)
   :: ( "host",
        Json.Obj
          [ ("cores", int r.host.cores); ("ocaml_version", str r.host.ocaml_version) ] )
   :: data r)
  @ [ ("gates", Json.Obj (List.map (fun (n, v) -> (n, verdict_json v)) r.gates)) ]

(* One member per line, and one line per element of a list of objects,
   so a regenerated baseline diffs line by line. *)
let to_text r =
  let member (k, v) =
    let v =
      match v with
      | Json.List (Json.Obj _ :: _ as rows) ->
        "[\n    " ^ String.concat ",\n    " (List.map Json.to_string rows) ^ "\n  ]"
      | v -> Json.to_string v
    in
    "  " ^ Json.quote k ^ ": " ^ v
  in
  "{\n" ^ String.concat ",\n" (List.map member (members r)) ^ "\n}\n"

let cell = function Json.String s -> s | v -> Json.to_string v

(* Scalars, and objects flattened to dotted names, go in one
   metric/value table; every list of objects gets a table of its own. *)
let render r =
  let scalars = ref [] and tables = ref [] in
  let rec walk prefix (k, v) =
    let name = if prefix = "" then k else prefix ^ "." ^ k in
    match v with
    | Json.Obj members -> List.iter (walk name) members
    | Json.List (Json.Obj columns :: _ as rows) ->
      tables := (name, List.map fst columns, rows) :: !tables
    | v -> scalars := [ name; cell v ] :: !scalars
  in
  List.iter (walk "") (data r);
  if !scalars <> [] then
    Lp_harness.Render.table ~columns:[ "metric"; "value" ] ~rows:(List.rev !scalars);
  List.iter
    (fun (name, columns, rows) ->
      print_endline name;
      Lp_harness.Render.table ~columns
        ~rows:
          (List.map
             (fun row ->
               List.map
                 (fun c -> Option.fold ~none:"" ~some:cell (Json.member c row))
                 columns)
             rows))
    (List.rev !tables)

let emit r =
  let path = "BENCH_" ^ r.scenario ^ ".json" in
  let oc = open_out path in
  output_string oc (to_text r);
  close_out oc;
  render r;
  Printf.printf "wrote %s\n" path;
  List.iter
    (fun (name, v) ->
      match v with
      | Pass -> Printf.printf "gate %s: PASS\n" name
      | Disarmed reason -> Printf.printf "gate %s: DISARMED (%s)\n" name reason
      | Fail detail -> Printf.eprintf "gate %s: FAIL: %s\n" name detail)
    r.gates;
  if List.exists (function _, Fail _ -> true | _ -> false) r.gates then exit 1
