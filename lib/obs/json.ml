type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s

(* Integral floats keep the short "%.1f" form; the rest take the fewest
   digits that read back exactly, so traces keep nanosecond precision
   at any timestamp. A float must not read back as an [Int]. *)
let float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s =
      List.find
        (fun s -> float_of_string s = f)
        [
          Printf.sprintf "%.15g" f;
          Printf.sprintf "%.16g" f;
          Printf.sprintf "%.17g" f;
        ]
    in
    if String.exists (fun c -> c = '.' || c = 'e') s then s else s ^ ".0"

let rec write buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | Str s ->
      Buffer.add_char buf '"';
      add_escaped buf s;
      Buffer.add_char buf '"'
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          write buf (Str k);
          Buffer.add_char buf ':';
          write buf v)
        fields;
      Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 1024 in
  write buf j;
  Buffer.contents buf

let rec mkdirs dir =
  if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir) then begin
    mkdirs (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let lines_to_file path js =
  mkdirs (Filename.dirname path);
  let buf = Buffer.create 4096 in
  List.iter
    (fun j ->
      write buf j;
      Buffer.add_char buf '\n')
    js;
  let oc = open_out_bin path in
  Buffer.output_buffer oc buf;
  close_out oc

let to_file path j = lines_to_file path [ j ]

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while !pos < n && String.contains " \t\n\r" s.[!pos] do
      incr pos
    done
  in
  let expect c =
    if peek () = Some c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let lit word v =
    let len = String.length word in
    if !pos + len <= n && String.sub s !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail ("expected " ^ word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let code = ref 0 in
    for i = !pos to !pos + 3 do
      let d =
        match s.[i] with
        | '0' .. '9' as c -> Char.code c - 48
        | 'a' .. 'f' as c -> Char.code c - 87
        | 'A' .. 'F' as c -> Char.code c - 55
        | _ -> fail "bad \\u escape"
      in
      code := (!code * 16) + d
    done;
    pos := !pos + 4;
    !code
  in
  let add_utf8 buf code =
    let byte c = Buffer.add_char buf (Char.chr c) in
    if code < 0x80 then byte code
    else if code < 0x800 then begin
      byte (0xC0 lor (code lsr 6));
      byte (0x80 lor (code land 0x3F))
    end
    else begin
      byte (0xE0 lor (code lsr 12));
      byte (0x80 lor ((code lsr 6) land 0x3F));
      byte (0x80 lor (code land 0x3F))
    end
  in
  let string_lit () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          incr pos;
          Buffer.contents buf
      | Some '\\' ->
          incr pos;
          let e =
            match peek () with Some e -> e | None -> fail "truncated escape"
          in
          incr pos;
          (match e with
          | '"' | '\\' | '/' -> Buffer.add_char buf e
          | 'n' -> Buffer.add_char buf '\n'
          | 't' -> Buffer.add_char buf '\t'
          | 'r' -> Buffer.add_char buf '\r'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' -> add_utf8 buf (hex4 ())
          | c -> fail (Printf.sprintf "bad escape \\%c" c));
          go ()
      | Some c when Char.code c < 0x20 -> fail "raw control byte in string"
      | Some c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    let accept cs =
      match peek () with
      | Some c when String.contains cs c ->
          incr pos;
          true
      | _ -> false
    in
    let digits () =
      let d = !pos in
      while accept "0123456789" do () done;
      if !pos = d then fail "expected a digit"
    in
    ignore (accept "-");
    if not (accept "0") then digits ();
    if accept "." then digits ();
    if accept "eE" then begin
      ignore (accept "+-");
      digits ()
    end;
    let tok = String.sub s start (!pos - start) in
    match int_of_string_opt tok with
    | Some i -> Int i
    | None -> Float (float_of_string tok)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> Obj (seq '{' '}' member)
    | Some '[' -> List (seq '[' ']' value)
    | Some '"' -> Str (string_lit ())
    | Some 't' -> lit "true" (Bool true)
    | Some 'f' -> lit "false" (Bool false)
    | Some 'n' -> lit "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected %C" c)
    | None -> fail "unexpected end of input"
  and member () =
    skip_ws ();
    let k = string_lit () in
    skip_ws ();
    expect ':';
    (k, value ())
  (* A bracketed, comma-separated run of [item]s, possibly empty. *)
  and seq : 'a. char -> char -> (unit -> 'a) -> 'a list =
   fun open_ close item ->
    expect open_;
    skip_ws ();
    if peek () = Some close then begin
      incr pos;
      []
    end
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' ->
            incr pos;
            go acc
        | Some c when c = close ->
            incr pos;
            List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or %C" close)
      in
      go []
  in
  let v = value () in
  skip_ws ();
  if !pos <> n then fail "trailing input";
  v

let of_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  parse s

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int = function
  | Some (Int i) -> Some i
  | Some (Float f) when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float = function
  | Some (Float f) -> Some f
  | Some (Int i) -> Some (float_of_int i)
  | _ -> None

let to_str = function Some (Str s) -> Some s | _ -> None
