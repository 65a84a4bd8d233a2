(** A minimal JSON reader and writer, enough to validate and round-trip
    the exporters' output (JSONL event dumps, Chrome traces) inside the
    test suite and the CLI's self-checks, and to write the bench
    reports, without an external dependency. Accepts standard JSON;
    [\uXXXX] escapes are decoded byte-wise below 256 and flattened to
    ['?'] above (validation does not need exact transcoding). *)

type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of value list
  | Obj of (string * value) list

val parse : string -> (value, string) result
(** Whole-input parse: trailing non-whitespace is an error. *)

val to_string : value -> string
(** Compact JSON text. [parse (to_string v) = Ok v] for every [v] whose
    numbers are finite (non-finite numbers print as [null]). Integral
    numbers print with no fraction; string bytes >= 0x80 pass through
    unchanged, so UTF-8 text stays UTF-8. *)

val quote : string -> string
(** A JSON string literal, quotes included, escaped as {!to_string}
    escapes strings. *)

val member : string -> value -> value option
(** Object field lookup; [None] on non-objects. *)

val to_int : value -> int option

val to_str : value -> string option

val to_list : value -> value list option

val validate_jsonl : string -> (int, string) result
(** Checks that every non-blank line parses as a JSON object. Returns
    the number of object lines, or the first offending line's error. *)
