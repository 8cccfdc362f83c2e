type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

let escape_string s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | '\b' -> Buffer.add_string b "\\b"
      | '\012' -> Buffer.add_string b "\\f"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Num v ->
    if Float.is_integer v && Float.abs v < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.0f" v)
    else Buffer.add_string b (Printf.sprintf "%.17g" v)
  | Str s ->
    Buffer.add_char b '"';
    Buffer.add_string b (escape_string s);
    Buffer.add_char b '"'
  | Arr vs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char b ',';
        to_buffer b v)
      vs;
    Buffer.add_char b ']'
  | Obj kvs ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        Buffer.add_string b (escape_string k);
        Buffer.add_string b "\":";
        to_buffer b v)
      kvs;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Recursive-descent parser over a string with an index cursor.        *)

type cursor = { src : string; mutable pos : int }

let fail msg = raise (Parse_error msg)

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c = c.pos <- c.pos + 1

let skip_ws c =
  while
    match peek c with
    | Some (' ' | '\t' | '\n' | '\r') -> true
    | Some _ | None -> false
  do
    advance c
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> advance c
  | Some x -> fail (Printf.sprintf "expected %C at %d, got %C" ch c.pos x)
  | None -> fail (Printf.sprintf "expected %C at %d, got end of input" ch c.pos)

let literal c word value =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    value
  end
  else fail (Printf.sprintf "bad literal at %d" c.pos)

let hex_digit ch =
  match ch with
  | '0' .. '9' -> Char.code ch - Char.code '0'
  | 'a' .. 'f' -> Char.code ch - Char.code 'a' + 10
  | 'A' .. 'F' -> Char.code ch - Char.code 'A' + 10
  | _ -> fail "bad \\u escape"

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> advance c
    | Some '\\' -> (
      advance c;
      match peek c with
      | None -> fail "unterminated escape"
      | Some ch ->
        advance c;
        (match ch with
        | '"' -> Buffer.add_char b '"'
        | '\\' -> Buffer.add_char b '\\'
        | '/' -> Buffer.add_char b '/'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if c.pos + 4 > String.length c.src then fail "truncated \\u escape";
          let v =
            (hex_digit c.src.[c.pos] lsl 12)
            lor (hex_digit c.src.[c.pos + 1] lsl 8)
            lor (hex_digit c.src.[c.pos + 2] lsl 4)
            lor hex_digit c.src.[c.pos + 3]
          in
          c.pos <- c.pos + 4;
          (* we only emit \u00XX for control bytes; decode the low byte and
             pass anything larger through as UTF-8 would be overkill here *)
          if v < 0x100 then Buffer.add_char b (Char.chr v)
          else fail "\\u escape above \\u00ff unsupported"
        | _ -> fail "unknown escape");
        go ())
    | Some ch ->
      advance c;
      Buffer.add_char b ch;
      go ()
  in
  go ();
  Buffer.contents b

let parse_number c =
  let start = c.pos in
  let numchar ch = String.contains "0123456789+-.eE" ch in
  while (match peek c with Some ch -> numchar ch | None -> false) do
    advance c
  done;
  if c.pos = start then fail (Printf.sprintf "expected number at %d" start);
  match float_of_string_opt (String.sub c.src start (c.pos - start)) with
  | Some v -> v
  | None -> fail (Printf.sprintf "bad number at %d" start)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some '"' -> Str (parse_string c)
  | Some '{' ->
    advance c;
    skip_ws c;
    if peek c = Some '}' then begin
      advance c;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws c;
        let k = parse_string c in
        skip_ws c;
        expect c ':';
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          members ((k, v) :: acc)
        | Some '}' ->
          advance c;
          List.rev ((k, v) :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or '}' at %d" c.pos)
      in
      Obj (members [])
    end
  | Some '[' ->
    advance c;
    skip_ws c;
    if peek c = Some ']' then begin
      advance c;
      Arr []
    end
    else begin
      let rec elems acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          advance c;
          elems (v :: acc)
        | Some ']' ->
          advance c;
          List.rev (v :: acc)
        | _ -> fail (Printf.sprintf "expected ',' or ']' at %d" c.pos)
      in
      Arr (elems [])
    end
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some _ -> Num (parse_number c)

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail (Printf.sprintf "trailing input at %d" c.pos);
  v

(* ------------------------------------------------------------------ *)

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

let to_str = function Str s -> Some s | _ -> None
let to_float = function Num v -> Some v | _ -> None

let to_int = function
  | Num v when Float.is_integer v && Float.abs v <= 1e15 -> Some (int_of_float v)
  | _ -> None

let to_bool = function Bool v -> Some v | _ -> None
let to_list = function Arr vs -> Some vs | _ -> None

let hex_float v = Printf.sprintf "%h" v

let of_hex_float = float_of_string_opt
