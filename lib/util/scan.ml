exception Parse_error of { source : string; line : int; message : string }

let fail ~source line fmt =
  Printf.ksprintf (fun message -> raise (Parse_error { source; line; message })) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* ------------------------------------------------------------------ *)
(* Line formats                                                       *)
(* ------------------------------------------------------------------ *)

let words s =
  String.split_on_char ' ' s
  |> List.concat_map (String.split_on_char '\t')
  |> List.concat_map (String.split_on_char '\r')
  |> List.filter (fun w -> w <> "")

let finite v =
  match float_of_string_opt v with
  | Some f when Float.is_finite f -> Ok f
  | Some _ -> Error (Printf.sprintf "non-finite number %S" v)
  | None -> Error (Printf.sprintf "malformed number %S" v)

let float ~source line what v =
  match finite v with Ok f -> f | Error m -> fail ~source line "%s: %s" what m

(* ------------------------------------------------------------------ *)
(* Character scanner                                                  *)
(* ------------------------------------------------------------------ *)

type cursor = { source : string; src : string; mutable pos : int; mutable line : int }

let line c = c.line
let error c fmt = fail ~source:c.source c.line fmt
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let advance c =
  (match peek c with Some '\n' -> c.line <- c.line + 1 | _ -> ());
  c.pos <- c.pos + 1

let rec skip_space c =
  match peek c with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance c;
    skip_space c
  | _ -> ()

let rec skip_trivia c =
  skip_space c;
  let at2 ch = c.pos + 1 < String.length c.src && c.src.[c.pos + 1] = ch in
  match peek c with
  | Some '/' when at2 '/' ->
    while peek c <> None && peek c <> Some '\n' do
      advance c
    done;
    skip_trivia c
  | Some '/' when at2 '*' ->
    advance c;
    advance c;
    let rec close () =
      match peek c with
      | None -> error c "unterminated block comment"
      | Some '*' when at2 '/' ->
        advance c;
        advance c
      | Some _ ->
        advance c;
        close ()
    in
    close ();
    skip_trivia c
  | _ -> ()

let take_while c ok =
  let start = c.pos in
  while match peek c with Some ch -> ok ch | None -> false do
    advance c
  done;
  String.sub c.src start (c.pos - start)

let quoted c =
  advance c;
  let s = take_while c (fun ch -> ch <> '"') in
  if peek c = None then error c "unterminated string";
  advance c;
  s

let number c =
  let s =
    take_while c (function
      | '0' .. '9' | '+' | '-' | '.' | 'e' | 'E' -> true
      | _ -> false)
  in
  match finite s with Ok f -> f | Error m -> error c "%s" m

(* ------------------------------------------------------------------ *)
(* Token lookahead                                                    *)
(* ------------------------------------------------------------------ *)

type 'tok lexer = { cur : cursor; lex : cursor -> 'tok; mutable tok : 'tok }

let lexer ~source lex src =
  let cur = { source; src; pos = 0; line = 1 } in
  { cur; lex; tok = lex cur }

let next l = l.tok <- l.lex l.cur

let expect l tok what = if l.tok = tok then next l else error l.cur "expected %s" what

let take l proj what =
  match proj l.tok with
  | Some x ->
    next l;
    x
  | None -> error l.cur "expected %s" what
