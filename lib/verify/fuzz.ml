module Rng = Tka_util.Rng
module Nf = Tka_circuit.Netlist_format
module V = Tka_circuit.Verilog_lite
module Spef = Tka_circuit.Spef_lite
module Sdf = Tka_circuit.Sdf_lite
module Liberty = Tka_cell.Liberty_lite
module Lib = Tka_cell.Default_lib

type format = Netlist_fmt | Verilog | Spef | Sdf | Liberty

let all = [ Netlist_fmt; Verilog; Spef; Sdf; Liberty ]

let name = function
  | Netlist_fmt -> "netlist"
  | Verilog -> "verilog"
  | Spef -> "spef"
  | Sdf -> "sdf"
  | Liberty -> "liberty"

let of_name n = List.find_opt (fun f -> name f = n) all

let generate rng = function
  | Netlist_fmt -> Nf.print (Gen.small_circuit rng)
  | Verilog -> V.print (Gen.small_circuit rng)
  | Spef -> Spef.print (Gen.small_circuit rng)
  | Sdf ->
    Sdf.print ~delay_of:(fun _ -> 0.05) (Gen.small_circuit rng)
  | Liberty -> Lib.to_liberty ()

(* Delimiters the five grammars are sensitive to, plus hostile number
   literals: mutations biased towards them hit parser decision points
   far more often than uniform byte noise. *)
let hostile_chars = "()\"*.=,;{}/ \t\r\n"
let hostile_tokens = [| "nan"; "inf"; "-inf"; "1e999"; "-1e999"; "0x"; "" |]

let mutate_once rng src =
  let n = String.length src in
  if n = 0 then String.make 1 hostile_chars.[Rng.int rng (String.length hostile_chars)]
  else
    match Rng.int rng 7 with
    | 0 ->
      (* flip a byte *)
      let b = Bytes.of_string src in
      let i = Rng.int rng n in
      Bytes.set b i
        (if Rng.bool rng then
           hostile_chars.[Rng.int rng (String.length hostile_chars)]
         else Char.chr (Rng.int rng 256));
      Bytes.to_string b
    | 1 ->
      (* insert a byte *)
      let i = Rng.int rng (n + 1) in
      let c = hostile_chars.[Rng.int rng (String.length hostile_chars)] in
      String.sub src 0 i ^ String.make 1 c ^ String.sub src i (n - i)
    | 2 ->
      (* delete a span *)
      let i = Rng.int rng n in
      let len = min (n - i) (1 + Rng.int rng 8) in
      String.sub src 0 i ^ String.sub src (i + len) (n - i - len)
    | 3 ->
      (* truncate *)
      String.sub src 0 (Rng.int rng n)
    | 4 -> (
      (* delete or duplicate a line *)
      match String.split_on_char '\n' src with
      | [] | [ _ ] -> String.sub src 0 (Rng.int rng n)
      | lines ->
        let i = Rng.int rng (List.length lines) in
        let lines =
          if Rng.bool rng then List.filteri (fun j _ -> j <> i) lines
          else
            List.concat_map
              (fun (j, l) -> if j = i then [ l; l ] else [ l ])
              (List.mapi (fun j l -> (j, l)) lines)
        in
        String.concat "\n" lines)
    | 5 -> (
      (* swap two lines *)
      match String.split_on_char '\n' src with
      | [] | [ _ ] -> src
      | lines ->
        let arr = Array.of_list lines in
        let i = Rng.int rng (Array.length arr)
        and j = Rng.int rng (Array.length arr) in
        let t = arr.(i) in
        arr.(i) <- arr.(j);
        arr.(j) <- t;
        String.concat "\n" (Array.to_list arr))
    | _ ->
      (* replace a whitespace-delimited token with a hostile literal *)
      let i = Rng.int rng n in
      let is_sep c = c = ' ' || c = '\t' || c = '\n' in
      let s = ref i in
      while !s > 0 && not (is_sep src.[!s - 1]) do decr s done;
      let e = ref i in
      while !e < n && not (is_sep src.[!e]) do incr e done;
      String.sub src 0 !s ^ Rng.pick rng hostile_tokens
      ^ String.sub src !e (n - !e)

let mutate rng src =
  let rounds = Rng.int_in rng 1 4 in
  let out = ref src in
  for _ = 1 to rounds do
    out := mutate_once rng !out
  done;
  !out

let run_parser fmt src =
  let lookup = Lib.find in
  let parse () =
    match fmt with
    | Netlist_fmt -> ignore (Nf.parse ~lookup src)
    | Verilog -> ignore (V.parse ~lookup src)
    | Spef -> ignore (Spef.parse src)
    | Sdf -> ignore (Sdf.parse src)
    | Liberty -> ignore (Liberty.parse src)
  in
  match parse () with
  | () -> `Parsed
  | exception Tka_util.Scan.Parse_error { line; message; _ } -> `Rejected (line, message)

let count_lines src =
  1 + String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 src

let check fmt src =
  match run_parser fmt src with
  | `Parsed -> None
  | `Rejected (line, message) ->
    let max_line = count_lines src + 1 in
    if line >= 0 && line <= max_line then None
    else
      Some
        (Printf.sprintf
           "%s: Parse_error line %d outside the input's [0, %d]: %s" (name fmt)
           line max_line message)
  | exception e ->
    Some
      (Printf.sprintf "%s parser escaped the structured error contract: %s"
         (name fmt) (Printexc.to_string e))
