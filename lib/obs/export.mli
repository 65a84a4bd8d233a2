(** Exporters for the event log.

    Three formats: JSONL (one event object per line, the machine-grep
    format), the Chrome [trace_event] object format (load it in
    [chrome://tracing] / Perfetto to see the GC and prune timeline as
    nested spans), and — via {!Metrics.to_text} — a plain-text metrics
    dump. Timestamps are the VM's logical cycles in every format. *)

val to_jsonl : ?class_name:(int -> string) -> Event.stamped list -> string
(** One JSON object per line: [{"seq":..,"at":..,"type":..,...}].
    [class_name] renders class ids (default ["class#<id>"]). *)

val to_chrome_trace :
  ?class_name:(int -> string) -> ?dropped:int -> Event.stamped list -> string
(** The Chrome trace_event JSON object format. GC collections, their
    sub-phases and minor collections become nested [B]/[E] duration
    spans; every other event is an instant. [dropped] (the sink's
    dropped-event count) is recorded under [otherData]. *)

val check_spans :
  ?allow_truncated_head:bool -> Event.stamped list -> (int, string) result
(** Verifies begin/end span events nest properly (LIFO, matching
    labels). Returns the number of unmatched closing events tolerated
    at the head, which is only nonzero when [allow_truncated_head] is
    set (for rings that dropped their oldest events). *)
