(** The one JSON module: value type, compact writer and strict reader.

    Every JSON artifact in the tree goes through here: Chrome traces
    ({!Export}), journal and flight-recorder JSONL, speedscope profiles,
    incident bundles ({!Autopsy}), the bench harness's [BENCH_*.json]
    files and the tests that re-read them. One module therefore decides
    what valid JSON is for all of them.

    Strings are bytes: the writer escapes ['"'], ['\\'] and control
    bytes (short escapes where JSON has them, [\u00XX] otherwise) and
    passes everything else through verbatim; the reader decodes [\u]
    escapes to UTF-8. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** {1 Writer} — compact: no whitespace between tokens. *)

val write : Buffer.t -> t -> unit
(** Append the compact text of a value. Floats: integral values below
    [1e15] in magnitude print as ["%.1f"]; every other finite float as
    the shortest of ["%.15g"], ["%.16g"], ["%.17g"] that reads back to
    the same float (with [".0"] appended when that has no ['.'] or
    exponent, so it reads back as a float); non-finite floats as
    [null]. *)

val to_string : t -> string
(** {!write} into a fresh string, without a trailing newline. *)

val to_file : string -> t -> unit
(** Write the value and a newline to [path], creating missing parent
    directories. *)

val lines_to_file : string -> t list -> unit
(** JSON Lines: one compact value per line, creating missing parent
    directories. *)

val mkdirs : string -> unit
(** Create a directory and its missing parents ([mkdir -p]). *)

(** {1 Reader} — RFC 8259, nothing more: no trailing commas, comments,
    leading zeros, bare words or raw control bytes in strings.
    A number that [int_of_string] accepts reads as [Int], any other as
    [Float]. *)

exception Parse_error of string
(** The message names what was expected and the byte offset. *)

val parse : string -> t
(** One value, optionally surrounded by whitespace. *)

val of_file : string -> t

val member : string -> t -> t option
(** The first field named [k] of an object; [None] on non-objects. *)

val to_int : t option -> int option
(** [Int], or a [Float] with an integral value. *)

val to_float : t option -> float option
(** [Float], or an [Int] widened. *)

val to_str : t option -> string option
