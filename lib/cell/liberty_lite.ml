module Log = Tka_obs.Log
module Scan = Tka_util.Scan

let log_src = Log.Src.create "liberty" ~doc:"Liberty-lite cell-library parser"
let m_cells = Tka_obs.Metrics.Counter.make "liberty.cells_parsed"

type t = { library_name : string; cells : Cell.t list }

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Number of float
  | Str of string
  | Lparen
  | Rparen
  | Lbrace
  | Rbrace
  | Colon
  | Semi
  | Eof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_'

let lex_token c =
  Scan.skip_trivia c;
  let tok t = Scan.advance c; t in
  match Scan.peek c with
  | None -> Eof
  | Some '(' -> tok Lparen
  | Some ')' -> tok Rparen
  | Some '{' -> tok Lbrace
  | Some '}' -> tok Rbrace
  | Some ':' -> tok Colon
  | Some ';' -> tok Semi
  | Some '"' -> Str (Scan.quoted c)
  | Some ('0' .. '9' | '-' | '+' | '.') -> Number (Scan.number c)
  | Some ch when is_ident_char ch -> Ident (Scan.take_while c is_ident_char)
  | Some ch -> Scan.error c "unexpected character %C" ch

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let error st fmt = Scan.error st.Scan.cur fmt
let expect_ident st what = Scan.take st (function Ident s -> Some s | _ -> None) what

type value = Vnum of float | Vstr of string

let parse_value st =
  match st.Scan.tok with
  | Number f ->
    Scan.next st;
    Vnum f
  | Str s ->
    Scan.next st;
    Vstr s
  | Ident s ->
    Scan.next st;
    Vstr s
  | Lparen | Rparen | Lbrace | Rbrace | Colon | Semi | Eof ->
    error st "expected a value"

(* attr := IDENT ':' value ';' — the IDENT is already consumed. *)
let parse_attr_tail st =
  Scan.expect st Colon "':'";
  let v = parse_value st in
  Scan.expect st Semi "';'";
  v

let num st key = function
  | Vnum f -> f
  | Vstr _ -> error st "attribute %s must be numeric" key

let str st key = function
  | Vstr s -> s
  | Vnum _ -> error st "attribute %s must be a string" key

type raw_pin = {
  rp_name : string;
  rp_direction : string option;
  rp_capacitance : float option;
}

let parse_pin st =
  (* 'pin' consumed *)
  Scan.expect st Lparen "'('";
  let pname = expect_ident st "pin name" in
  Scan.expect st Rparen "')'";
  Scan.expect st Lbrace "'{'";
  let direction = ref None and capacitance = ref None in
  let rec items () =
    match st.Scan.tok with
    | Rbrace ->
      Scan.next st
    | Ident key ->
      Scan.next st;
      let v = parse_attr_tail st in
      (match key with
      | "direction" -> direction := Some (str st key v)
      | "capacitance" -> capacitance := Some (num st key v)
      | _ ->
        (* tolerated, but no longer silent *)
        let line = Scan.line st.cur in
        Log.warn log_src (fun m ->
            m
              ~fields:
                [
                  Log.int "line" line;
                  Log.str "pin" pname;
                  Log.str "attribute" key;
                ]
              "line %d: ignoring unknown pin attribute %S on pin %s" line key pname));
      items ()
    | _ -> error st "expected pin attribute or '}'"
  in
  items ();
  { rp_name = pname; rp_direction = !direction; rp_capacitance = !capacitance }

let parse_cell st =
  (* 'cell' consumed *)
  Scan.expect st Lparen "'('";
  let cname = expect_ident st "cell name" in
  Scan.expect st Rparen "')'";
  Scan.expect st Lbrace "'{'";
  let attrs = Hashtbl.create 8 in
  let pins = ref [] in
  let rec items () =
    match st.Scan.tok with
    | Rbrace ->
      Scan.next st
    | Ident "pin" ->
      Scan.next st;
      pins := parse_pin st :: !pins;
      items ()
    | Ident key ->
      Scan.next st;
      let v = parse_attr_tail st in
      Hashtbl.replace attrs key v;
      items ()
    | _ -> error st "expected cell attribute, pin or '}'"
  in
  items ();
  let required key =
    match Hashtbl.find_opt attrs key with
    | Some v -> num st key v
    | None ->
      error st "cell %s: missing attribute %s" cname key
  in
  let logic =
    match Hashtbl.find_opt attrs "function" with
    | Some v -> str st "function" v
    | None -> ""
  in
  let classify p =
    match p.rp_direction with
    | Some "input" -> (
      match p.rp_capacitance with
      | Some c -> (
        try `Input (Cell.input_pin ~name:p.rp_name ~capacitance:c)
        with Invalid_argument m ->
          error st "cell %s: %s" cname m)
      | None ->
        error st "cell %s: input pin %s has no capacitance" cname p.rp_name)
    | Some "output" -> `Output (Cell.output_pin ~name:p.rp_name)
    | Some d ->
      error st "cell %s: pin %s: bad direction %S" cname p.rp_name d
    | None ->
      error st "cell %s: pin %s has no direction" cname p.rp_name
  in
  let classified = List.rev_map classify !pins in
  let inputs =
    List.filter_map (function `Input p -> Some p | `Output _ -> None) classified
  in
  let outputs =
    List.filter_map (function `Output p -> Some p | `Input _ -> None) classified
  in
  let output =
    match outputs with
    | [ o ] -> o
    | [] -> error st "cell %s: no output pin" cname
    | _ -> error st "cell %s: multiple output pins" cname
  in
  try
    Cell.make ~name:cname ~inputs ~output ~logic
      ~intrinsic_delay:(required "intrinsic_delay")
      ~drive_resistance:(required "drive_resistance")
      ~intrinsic_slew:(required "intrinsic_slew")
      ~slew_resistance:(required "slew_resistance")
  with Invalid_argument m -> error st "cell %s: %s" cname m

let parse src =
  Tka_obs.Trace.with_span ~cat:"parse" "liberty.parse" @@ fun () ->
  let st = Scan.lexer ~source:"liberty" lex_token src in
  (match st.Scan.tok with
  | Ident "library" -> Scan.next st
  | _ -> error st "expected 'library'");
  Scan.expect st Lparen "'('";
  let library_name = expect_ident st "library name" in
  Scan.expect st Rparen "')'";
  Scan.expect st Lbrace "'{'";
  let cells = ref [] in
  let rec items () =
    match st.Scan.tok with
    | Rbrace ->
      Scan.next st
    | Ident "cell" ->
      Scan.next st;
      cells := parse_cell st :: !cells;
      items ()
    | _ -> error st "expected 'cell' or '}'"
  in
  items ();
  (match st.Scan.tok with
  | Eof -> ()
  | _ -> error st "trailing content after library");
  Tka_obs.Metrics.Counter.add m_cells (List.length !cells);
  Log.info log_src (fun m ->
      m
        ~fields:
          [ Log.str "library" library_name; Log.int "cells" (List.length !cells) ]
        "parsed library %s: %d cells" library_name (List.length !cells));
  { library_name; cells = List.rev !cells }

let parse_file path = parse (Scan.read_file path)

let find t n = List.find_opt (fun c -> c.Cell.name = n) t.cells
