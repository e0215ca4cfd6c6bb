module N = Netlist
module Scan = Tka_util.Scan

let fail line fmt = Scan.fail ~source:"sdf" line fmt

(* ------------------------------------------------------------------ *)
(* Writer                                                             *)
(* ------------------------------------------------------------------ *)

let print ~delay_of nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "(DELAYFILE\n";
  Buffer.add_string buf "  (SDFVERSION \"3.0-lite\")\n";
  Buffer.add_string buf (Printf.sprintf "  (DESIGN \"%s\")\n" (N.name nl));
  Buffer.add_string buf "  (TIMESCALE 1ns)\n";
  Array.iter
    (fun g ->
      let d = delay_of g in
      Buffer.add_string buf
        (Printf.sprintf "  (CELL (CELLTYPE \"%s\") (INSTANCE %s)\n"
           g.N.cell.Tka_cell.Cell.name g.N.gate_name);
      Buffer.add_string buf "    (DELAY (ABSOLUTE\n";
      List.iter
        (fun (pin, _) ->
          Buffer.add_string buf
            (Printf.sprintf "      (IOPATH %s %s (%.6f))\n" pin
               g.N.cell.Tka_cell.Cell.output.Tka_cell.Cell.pin_name d))
        g.N.fanin;
      Buffer.add_string buf "    )))\n")
    (N.gates nl);
  Buffer.add_string buf ")\n";
  Buffer.contents buf

let write_file ~delay_of nl path =
  let oc = open_out path in
  output_string oc (print ~delay_of nl);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

type annotation = {
  sdf_design : string option;
  sdf_arcs : (string * string * string * float) list;
}

(* S-expression-ish tokens: parens, quoted strings, atoms; [None] at
   the end. SDF has no comments: a "//" is part of an atom. *)
type token = Lp | Rp | Atom of string | Str of string

let lex c =
  Scan.skip_space c;
  match Scan.peek c with
  | None -> None
  | Some '(' -> Scan.advance c; Some Lp
  | Some ')' -> Scan.advance c; Some Rp
  | Some '"' -> Some (Str (Scan.quoted c))
  | Some _ ->
    Some
      (Atom
         (Scan.take_while c (function
           | '(' | ')' | ' ' | '\t' | '\n' | '\r' | '"' -> false
           | _ -> true)))

(* Each token with the line it ends on. *)
let tokenize src =
  let l = Scan.lexer ~source:"sdf" lex src in
  let rec go acc =
    match l.tok with
    | None -> List.rev acc
    | Some tok ->
      let line = Scan.line l.cur in
      Scan.next l;
      go ((tok, line) :: acc)
  in
  go []

(* Every node carries the source line of its first token so the
   second-phase checker can point at the offending SDF line. *)
type sexp = L of int * sexp list | A of int * string | S of int * string

let sexp_line = function L (l, _) | A (l, _) | S (l, _) -> l

let last_line tokens =
  List.fold_left (fun _ (_, line) -> line) 1 tokens

let parse_sexps tokens =
  let eof_line = last_line tokens in
  let rec one = function
    | [] -> fail eof_line "unexpected end of input"
    | (Lp, line) :: rest ->
      let items, rest = list_items line rest in
      (L (line, items), rest)
    | (Rp, line) :: _ -> fail line "unexpected ')'"
    | (Atom a, line) :: rest -> (A (line, a), rest)
    | (Str s, line) :: rest -> (S (line, s), rest)
  and list_items open_line tokens =
    match tokens with
    | (Rp, _) :: rest -> ([], rest)
    | [] -> fail eof_line "missing ')' for '(' on line %d" open_line
    | _ :: _ ->
      let x, rest = one tokens in
      let xs, rest = list_items open_line rest in
      (x :: xs, rest)
  in
  let rec all tokens =
    match tokens with
    | [] -> []
    | _ :: _ ->
      let x, rest = one tokens in
      x :: all rest
  in
  all tokens

let parse src =
  match parse_sexps (tokenize src) with
  | [ L (_, A (_, "DELAYFILE") :: items) ] ->
    let design = ref None in
    let arcs = ref [] in
    let rec walk_cell instance = function
      | L (_, A (_, "DELAY") :: dels) :: rest ->
        List.iter
          (function
            | L (_, A (_, "ABSOLUTE") :: paths) ->
              List.iter
                (function
                  | L (line, [ A (_, "IOPATH"); A (_, from_pin); A (_, to_pin);
                               L (_, [ A (_, v) ]) ]) -> (
                    match float_of_string_opt v with
                    | Some d when Float.is_finite d ->
                      arcs := (instance, from_pin, to_pin, d) :: !arcs
                    | Some _ -> fail line "non-finite delay %S" v
                    | None -> fail line "bad delay %S" v)
                  | node -> fail (sexp_line node) "malformed IOPATH")
                paths
            | node -> fail (sexp_line node) "expected ABSOLUTE")
          dels;
        walk_cell instance rest
      | _ :: rest -> walk_cell instance rest
      | [] -> ()
    in
    List.iter
      (function
        | L (_, [ A (_, "SDFVERSION"); S _ ]) | L (_, [ A (_, "TIMESCALE"); A _ ]) -> ()
        | L (_, [ A (_, "DESIGN"); S (_, name) ]) -> design := Some name
        | L (line, A (_, "CELL") :: cell_items) ->
          let instance =
            List.find_map
              (function
                | L (_, [ A (_, "INSTANCE"); A (_, i) ]) -> Some i
                | _ -> None)
              cell_items
          in
          (match instance with
          | Some i -> walk_cell i cell_items
          | None -> fail line "CELL without INSTANCE")
        | node -> fail (sexp_line node) "unexpected item in DELAYFILE")
      items;
    { sdf_design = !design; sdf_arcs = List.rev !arcs }
  | node :: _ -> fail (sexp_line node) "expected a single (DELAYFILE ...)"
  | [] -> fail 1 "expected a single (DELAYFILE ...)"

let check_against ann ~delay_of nl =
  List.filter_map
    (fun (instance, _, _, d) ->
      match N.find_gate nl instance with
      | None -> N.link_error "sdf" "unknown instance %S" instance
      | Some g ->
        let expect = delay_of g in
        if Float.abs (expect -. d) > 1e-6 then Some (instance, d, expect) else None)
    ann.sdf_arcs
