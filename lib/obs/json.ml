type value =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | List of value list
  | Obj of (string * value) list

exception Parse_error of string

(* Bytes >= 0x80 pass through, so UTF-8 text stays UTF-8. *)
let quote s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* 15 significant digits when they read back exactly (integral values
   below 1e15 then print with no fraction), else the 17 that always do. *)
let number_to_string f =
  let short = Printf.sprintf "%.15g" f in
  if float_of_string short = f then short else Printf.sprintf "%.17g" f

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Number f when Float.is_finite f -> number_to_string f
  | Number _ -> "null"
  | String s -> quote s
  | List l -> "[" ^ String.concat "," (List.map to_string l) ^ "]"
  | Obj members ->
    "{"
    ^ String.concat "," (List.map (fun (k, v) -> quote k ^ ":" ^ to_string v) members)
    ^ "}"

type state = { src : string; mutable pos : int }

let error st msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
    advance st;
    skip_ws st
  | Some _ | None -> ()

let expect st c =
  match peek st with
  | Some c' when c' = c -> advance st
  | Some c' -> error st (Printf.sprintf "expected %c, found %c" c c')
  | None -> error st (Printf.sprintf "expected %c, found end of input" c)

let literal st word value =
  let n = String.length word in
  if st.pos + n <= String.length st.src && String.sub st.src st.pos n = word then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" word)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> error st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
      advance st;
      match peek st with
      | None -> error st "unterminated escape"
      | Some c ->
        advance st;
        (match c with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if st.pos + 4 > String.length st.src then error st "truncated \\u escape";
          let hex = String.sub st.src st.pos 4 in
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> error st "invalid \\u escape"
          in
          st.pos <- st.pos + 4;
          (* decoded as a raw byte for code points < 256, '?' otherwise:
             enough for validation, which is this parser's job *)
          Buffer.add_char buf (if code < 256 then Char.chr code else '?')
        | c -> error st (Printf.sprintf "invalid escape \\%c" c));
        go ())
    | Some c when Char.code c < 0x20 -> error st "control character in string"
    | Some c ->
      advance st;
      Buffer.add_char buf c;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let consume_while p =
    let rec go () =
      match peek st with
      | Some c when p c ->
        advance st;
        go ()
      | Some _ | None -> ()
    in
    go ()
  in
  (match peek st with Some '-' -> advance st | Some _ | None -> ());
  consume_while (function '0' .. '9' -> true | _ -> false);
  (match peek st with
  | Some '.' ->
    advance st;
    consume_while (function '0' .. '9' -> true | _ -> false)
  | Some _ | None -> ());
  (match peek st with
  | Some ('e' | 'E') ->
    advance st;
    (match peek st with Some ('+' | '-') -> advance st | Some _ | None -> ());
    consume_while (function '0' .. '9' -> true | _ -> false)
  | Some _ | None -> ());
  let text = String.sub st.src start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error st (Printf.sprintf "invalid number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' -> parse_obj st
  | Some '[' -> parse_list st
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some ('-' | '0' .. '9') -> Number (parse_number st)
  | Some c -> error st (Printf.sprintf "unexpected character %c" c)

and parse_obj st =
  expect st '{';
  skip_ws st;
  match peek st with
  | Some '}' ->
    advance st;
    Obj []
  | _ ->
    let rec members acc =
      skip_ws st;
      let key = parse_string st in
      skip_ws st;
      expect st ':';
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        members ((key, v) :: acc)
      | Some '}' ->
        advance st;
        Obj (List.rev ((key, v) :: acc))
      | _ -> error st "expected , or } in object"
    in
    members []

and parse_list st =
  expect st '[';
  skip_ws st;
  match peek st with
  | Some ']' ->
    advance st;
    List []
  | _ ->
    let rec elements acc =
      let v = parse_value st in
      skip_ws st;
      match peek st with
      | Some ',' ->
        advance st;
        elements (v :: acc)
      | Some ']' ->
        advance st;
        List (List.rev (v :: acc))
      | _ -> error st "expected , or ] in array"
    in
    elements []

let parse s =
  let st = { src = s; pos = 0 } in
  try
    let v = parse_value st in
    skip_ws st;
    if st.pos <> String.length s then
      Error (Printf.sprintf "trailing garbage at offset %d" st.pos)
    else Ok v
  with Parse_error msg -> Error msg

let member name = function Obj fields -> List.assoc_opt name fields | _ -> None

let to_int = function Number f -> Some (int_of_float f) | _ -> None

let to_str = function String s -> Some s | _ -> None

let to_list = function List l -> Some l | _ -> None

let validate_jsonl s =
  let lines = String.split_on_char '\n' s in
  let rec go i = function
    | [] -> Ok i
    | line :: rest ->
      if String.trim line = "" then go i rest
      else begin
        match parse line with
        | Ok (Obj _) -> go (i + 1) rest
        | Ok _ -> Error (Printf.sprintf "line %d: not a JSON object" (i + 1))
        | Error msg -> Error (Printf.sprintf "line %d: %s" (i + 1) msg)
      end
  in
  go 0 lines
