(* In-memory spans for the traced run, written out once at exit as a
   Chrome trace (open it in Perfetto or chrome://tracing). Every span
   carries its own id, its parent's id (0 for none) and the counts
   recorded at its boundaries. *)

type span = {
  id : int;
  parent : int;
  name : string;
  start_ns : int;
  dur_ns : int;
  counts : (string * int) list;
}

type t = { origin : int; mutable spans : span list; mutable next_id : int }

let create () = { origin = Clock.now (); spans = []; next_id = 1 }

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

(* Records a finished span under an id obtained from [fresh_id], so a
   parent can hand its id to children before it ends. *)
let record t ~id ?(parent = 0) ~name ~start_ns ~dur_ns counts =
  t.spans <- { id; parent; name; start_ns; dur_ns; counts } :: t.spans

let add t ?parent ~name ~start_ns ~dur_ns counts =
  record t ~id:(fresh_id t) ?parent ~name ~start_ns ~dur_ns counts

let write t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          Printf.fprintf oc
            "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d"
            s.name
            (float (s.start_ns - t.origin) /. 1e3)
            (float s.dur_ns /. 1e3) s.id s.parent;
          List.iter (fun (k, v) -> Printf.fprintf oc ",%S:%d" k v) s.counts;
          output_string oc "}}")
        (List.rev t.spans);
      output_string oc "]}\n")
