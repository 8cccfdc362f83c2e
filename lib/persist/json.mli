(** Minimal JSON tree, encoder and parser — just enough for the journal
    and snapshot files, with no external dependency.

    Strings are treated as byte sequences: every byte below [0x20] is
    escaped as [\u00XX] (plus the usual two-character escapes), so any
    diagnostic or signature the pipeline produces round-trips through a
    journal line as valid JSON. Numbers are parsed as [float]; integers
    survive exactly up to 2{^53}. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val escape_string : string -> string
(** Escaped contents of a JSON string literal (without the surrounding
    quotes): ["\""], ["\\"], [\n], [\r], [\t], [\b], [\f] as two-character
    escapes, every other byte < 0x20 as [\u00XX]. *)

val to_string : t -> string
(** Compact single-line rendering (no newlines — one value per journal
    line). [Num] renders integers without a fractional part and other
    floats with 17 significant digits; non-finite numbers are a
    programming error (encode them as {!Str} hex floats instead). *)

val parse : string -> t
(** Parses exactly one JSON value (surrounding whitespace allowed).
    Raises {!Parse_error} on malformed or trailing input. *)

(** Accessors; all return [None] on a type mismatch. *)

val member : string -> t -> t option
val to_str : t -> string option
val to_float : t -> float option
val to_int : t -> int option
val to_bool : t -> bool option
val to_list : t -> t list option

val hex_float : float -> string
(** Lossless float rendering ([%h]): hexadecimal for finite values,
    ["infinity"]/["-infinity"]/["nan"] otherwise. Journals store every
    measurement float this way so replayed records are bit-identical. *)

val of_hex_float : string -> float option
(** Inverse of {!hex_float} (plain [float_of_string_opt]); [None] on
    garbage. Each decoder maps [None] to its own typed error, so a bad
    float in already-parsed JSON never escapes as {!Parse_error}. *)
