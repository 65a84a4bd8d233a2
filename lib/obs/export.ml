let default_class_name id = Printf.sprintf "class#%d" id

(* The event-specific payload, as JSON object members. [cls] renders a
   class id as a name. *)
let fields ~cls (ev : Event.t) =
  let s k v = (k, Json.quote v) in
  let i k v = (k, string_of_int v) in
  let b k v = (k, if v then "true" else "false") in
  match ev with
  | Event.Gc_begin { gc; state } -> [ i "gc" gc; s "state" state ]
  | Event.Gc_end { gc; state; live_bytes; reclaimed_bytes } ->
    [ i "gc" gc; s "state" state; i "live_bytes" live_bytes;
      i "reclaimed_bytes" reclaimed_bytes ]
  | Event.Phase_begin { gc; phase } -> [ i "gc" gc; s "phase" phase ]
  | Event.Phase_end { gc; phase; work } -> [ i "gc" gc; s "phase" phase; i "work" work ]
  | Event.Minor_begin { n } -> [ i "minor" n ]
  | Event.Minor_end { n; promoted; freed } ->
    [ i "minor" n; i "promoted" promoted; i "freed" freed ]
  | Event.Barrier_cold { src_class; field } ->
    [ s "src_class" (cls src_class); i "field" field ]
  | Event.Poison_trap { src_class; field; target } ->
    [ s "src_class" (cls src_class); i "field" field; i "target" target ]
  | Event.Edge_poisoned { src_class; field; target } ->
    [ s "src_class" (cls src_class); i "field" field; i "target" target ]
  | Event.Quarantine { target } -> [ i "target" target ]
  | Event.Prune_decision { src_class; tgt_class; refs_poisoned; bytes_reclaimed } ->
    [ s "src_class" (cls src_class); s "tgt_class" (cls tgt_class);
      i "refs_poisoned" refs_poisoned; i "bytes_reclaimed" bytes_reclaimed ]
  | Event.Resurrection_attempt { target } -> [ i "target" target ]
  | Event.Resurrection_ok { target; new_id } -> [ i "target" target; i "new_id" new_id ]
  | Event.Resurrection_failed { target; reason } ->
    [ i "target" target; s "reason" reason ]
  | Event.Safe_enter { mispredictions } -> [ i "mispredictions" mispredictions ]
  | Event.Safe_exit { forced } -> [ b "forced" forced ]
  | Event.Disk_offload { id; bytes } -> [ i "id" id; i "bytes" bytes ]
  | Event.Disk_restore { id; ok } -> [ i "id" id; b "ok" ok ]
  | Event.Image_capture { id; bytes } -> [ i "id" id; i "bytes" bytes ]
  | Event.Image_drop { id } -> [ i "id" id ]
  | Event.Par_phase_begin { gc; phase; worker } ->
    [ i "gc" gc; s "phase" phase; i "worker" worker ]
  | Event.Par_phase_end { gc; phase; worker; work } ->
    [ i "gc" gc; s "phase" phase; i "worker" worker; i "work" work ]
  | Event.Packet_recovered { gc; packet } -> [ i "gc" gc; i "packet" packet ]
  | Event.Tenant_killed { tenant; round } -> [ i "tenant" tenant; i "round" round ]
  | Event.Tenant_restarted { tenant; round; reason; restarts } ->
    [ i "tenant" tenant; i "round" round; s "reason" reason; i "restarts" restarts ]
  | Event.Request_shed { tenant; round; reason } ->
    [ i "tenant" tenant; i "round" round; s "reason" reason ]
  | Event.Fleet_pressure { capacity_bytes; active } ->
    [ i "capacity_bytes" capacity_bytes; b "active" active ]
  | Event.Checkpoint_saved { tenant; round; bytes } ->
    [ i "tenant" tenant; i "round" round; i "bytes" bytes ]
  | Event.Checkpoint_restored { tenant; round; edges } ->
    [ i "tenant" tenant; i "round" round; i "edges" edges ]
  | Event.Checkpoint_fallback { tenant; round; reason } ->
    [ i "tenant" tenant; i "round" round; s "reason" reason ]
  | Event.Restart_escalated { tenant; round; level } ->
    [ i "tenant" tenant; i "round" round; s "level" level ]
  | Event.Tenant_ready { tenant; round } -> [ i "tenant" tenant; i "round" round ]
  | Event.Tenant_retired { tenant; round; restarts } ->
    [ i "tenant" tenant; i "round" round; i "restarts" restarts ]
  | Event.Breaker_tripped { round; restarted; tenants } ->
    [ i "round" round; i "restarted" restarted; i "tenants" tenants ]
  | Event.Breaker_reset { round } -> [ i "round" round ]
  | Event.Liveness_verdict { src_class; field; depth } ->
    [ s "src_class" (cls src_class); i "field" field; i "depth" depth ]
  | Event.Liveness_veto { src_class; field } ->
    [ s "src_class" (cls src_class); i "field" field ]
  | Event.Liveness_boost { src_class; field } ->
    [ s "src_class" (cls src_class); i "field" field ]
  | Event.Slo_adjust { gc; budget; p99_ns } ->
    [ i "gc" gc; i "budget" budget; i "p99_ns" p99_ns ]
  | Event.Engine_switch { gc; from_engine; to_engine } ->
    [ i "gc" gc; s "from" from_engine; s "to" to_engine ]

let members l =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "\"%s\":%s" k v) l)

let jsonl_line ~cls (e : Event.stamped) =
  Printf.sprintf "{%s}"
    (members
       (("seq", string_of_int e.Event.seq)
        :: ("at", string_of_int e.Event.at)
        :: ("type", Printf.sprintf "\"%s\"" (Event.type_name e.Event.ev))
        :: fields ~cls e.Event.ev))

let to_jsonl ?(class_name = default_class_name) events =
  let buf = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string buf (jsonl_line ~cls:class_name e);
      Buffer.add_char buf '\n')
    events;
  Buffer.contents buf

(* Chrome trace_event JSON object format. Logical cycles stand in for
   the microsecond timestamps; `B`/`E` spans carry matching names so
   the nesting survives into the timeline UI. *)
let to_chrome_trace ?(class_name = default_class_name) ?(dropped = 0) events =
  let buf = Buffer.create 8192 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  let first = ref true in
  List.iter
    (fun (e : Event.stamped) ->
      if not !first then Buffer.add_char buf ',';
      first := false;
      let ph =
        match Event.span e.Event.ev with
        | `Begin -> "B"
        | `End -> "E"
        | `Instant -> "i"
      in
      let name =
        match Event.span e.Event.ev with
        | `Begin | `End -> Event.span_label e.Event.ev
        | `Instant -> Event.type_name e.Event.ev
      in
      let extra = match ph with "i" -> ",\"s\":\"t\"" | _ -> "" in
      (* Parallel-phase spans land on per-worker tracks: worker [w]
         renders as tid [w + 2], keeping tid 1 for the VM's own track. *)
      let tid =
        match e.Event.ev with
        | Event.Par_phase_begin { worker; _ } | Event.Par_phase_end { worker; _ }
          ->
          worker + 2
        | _ -> 1
      in
      Buffer.add_string buf
        (Printf.sprintf
           "{\"name\":%s,\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%d,\"pid\":1,\"tid\":%d%s,\"args\":{%s}}"
           (Json.quote name)
           (Event.type_name e.Event.ev)
           ph e.Event.at tid extra
           (members (("seq", string_of_int e.Event.seq) :: fields ~cls:class_name e.Event.ev))))
    events;
  Buffer.add_string buf
    (Printf.sprintf "],\"otherData\":{\"droppedEvents\":\"%d\"}}" dropped);
  Buffer.contents buf

(* Span discipline: every End closes the innermost open Begin with the
   same label. When [allow_truncated_head] (a ring that dropped its
   oldest events), unmatched Ends at the bottom of the stack are
   tolerated. *)
let check_spans ?(allow_truncated_head = false) events =
  let rec go stack unmatched_head = function
    | [] ->
      if stack = [] then Ok unmatched_head
      else Error (Printf.sprintf "unclosed span %s" (List.hd stack))
    | (e : Event.stamped) :: rest -> (
      match Event.span e.Event.ev with
      | `Instant -> go stack unmatched_head rest
      | `Begin -> go (Event.span_label e.Event.ev :: stack) unmatched_head rest
      | `End -> (
        let label = Event.span_label e.Event.ev in
        match stack with
        | top :: stack' when top = label -> go stack' unmatched_head rest
        | top :: _ ->
          Error (Printf.sprintf "span %s closed while %s is open" label top)
        | [] ->
          if allow_truncated_head then go [] (unmatched_head + 1) rest
          else Error (Printf.sprintf "span %s closed but never opened" label)))
  in
  go [] 0 events
