type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let add_escaped buf s =
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
  Buffer.add_char buf '"'

let add_float buf f =
  if Float.is_nan f || Float.abs f = Float.infinity then
    Buffer.add_string buf "null"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.1f" f)
  else begin
    (* shortest representation that round-trips *)
    let s = Printf.sprintf "%.12g" f in
    let s = if float_of_string s = f then s else Printf.sprintf "%.17g" f in
    Buffer.add_string buf s;
    (* %.17g prints huge integer-valued doubles (2^53) without a point
       or exponent; keep them parsing back as floats, not ints *)
    if not (String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s) then
      Buffer.add_string buf ".0"
  end

let rec add_compact buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | Str s -> add_escaped buf s
  | List l ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        add_compact buf v)
      l;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        add_escaped buf k;
        Buffer.add_char buf ':';
        add_compact buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  add_compact buf v;
  Buffer.contents buf

let rec add_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | Str _) as v -> add_compact buf v
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List l ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        add_pretty buf (indent + 2) v)
      l;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj kvs ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        add_escaped buf k;
        Buffer.add_string buf ": ";
        add_pretty buf (indent + 2) v)
      kvs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'

let to_string_pretty v =
  let buf = Buffer.create 1024 in
  add_pretty buf 0 v;
  Buffer.contents buf

let write_file path v =
  let oc = open_out path in
  output_string oc (to_string_pretty v);
  output_char oc '\n';
  close_out oc

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

type cursor = { src : string; mutable pos : int }

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let rec skip_ws c =
  match peek c with
  | Some (' ' | '\t' | '\n' | '\r') ->
    c.pos <- c.pos + 1;
    skip_ws c
  | _ -> ()

let expect_char c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | Some x -> fail "expected %C at offset %d, found %C" ch c.pos x
  | None -> fail "expected %C, found end of input" ch

let literal c word v =
  let n = String.length word in
  if c.pos + n <= String.length c.src && String.sub c.src c.pos n = word then begin
    c.pos <- c.pos + n;
    v
  end
  else fail "malformed literal at offset %d" c.pos

let parse_string_body c =
  (* opening quote consumed *)
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
      c.pos <- c.pos + 1;
      match peek c with
      | None -> fail "unterminated escape"
      | Some e ->
        c.pos <- c.pos + 1;
        (match e with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'u' ->
          if c.pos + 4 > String.length c.src then fail "truncated \\u escape";
          let hex = String.sub c.src c.pos 4 in
          c.pos <- c.pos + 4;
          let code =
            try int_of_string ("0x" ^ hex)
            with _ -> fail "malformed \\u escape %S" hex
          in
          (* UTF-8 encode the code point (no surrogate-pair handling:
             the printer above never emits one) *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | e -> fail "unknown escape \\%C" e);
        go ())
    | Some ch ->
      c.pos <- c.pos + 1;
      Buffer.add_char buf ch;
      go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let accept ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while (match peek c with Some ch -> accept ch | None -> false) do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  match int_of_string_opt s with
  | Some i -> Int i
  | None -> (
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "malformed number %S" s)

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail "unexpected end of input"
  | Some 'n' -> literal c "null" Null
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some '"' ->
    c.pos <- c.pos + 1;
    Str (parse_string_body c)
  | Some '[' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some ']' then begin
      c.pos <- c.pos + 1;
      List []
    end
    else
      let rec items acc =
        let v = parse_value c in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (v :: acc)
        | Some ']' ->
          c.pos <- c.pos + 1;
          List (List.rev (v :: acc))
        | _ -> fail "expected ',' or ']' at offset %d" c.pos
      in
      items []
  | Some '{' ->
    c.pos <- c.pos + 1;
    skip_ws c;
    if peek c = Some '}' then begin
      c.pos <- c.pos + 1;
      Obj []
    end
    else
      let pair () =
        skip_ws c;
        expect_char c '"';
        let k = parse_string_body c in
        skip_ws c;
        expect_char c ':';
        let v = parse_value c in
        (k, v)
      in
      let rec items acc =
        let kv = pair () in
        skip_ws c;
        match peek c with
        | Some ',' ->
          c.pos <- c.pos + 1;
          items (kv :: acc)
        | Some '}' ->
          c.pos <- c.pos + 1;
          Obj (List.rev (kv :: acc))
        | _ -> fail "expected ',' or '}' at offset %d" c.pos
      in
      items []
  | Some ('0' .. '9' | '-') -> parse_number c
  | Some ch -> fail "unexpected character %C at offset %d" ch c.pos

let of_string src =
  let c = { src; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length src then fail "trailing content at offset %d" c.pos;
  v

let read_text path = In_channel.with_open_bin path In_channel.input_all

let read_file path =
  try of_string (read_text path) with Parse_error m -> fail "%s: %s" path m

let read_ndjson path =
  String.split_on_char '\n' (read_text path)
  |> List.mapi (fun i l -> (i + 1, String.trim l))
  |> List.filter_map (fun (line, l) ->
         if l = "" then None
         else
           Some (line, try Ok (of_string l) with Parse_error m -> Error m))

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None
