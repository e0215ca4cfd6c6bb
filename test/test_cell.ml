(* Tests for the cell model, delay model, default library and the
   Liberty-lite parser. *)

module Cell = Tka_cell.Cell
module DM = Tka_cell.Delay_model
module Lib = Tka_cell.Default_lib
module Liberty = Tka_cell.Liberty_lite

let check_f = Alcotest.(check (float 1e-9))

let mk_cell ?(name = "T") () =
  Cell.make ~name
    ~inputs:[ Cell.input_pin ~name:"A" ~capacitance:0.003 ]
    ~output:(Cell.output_pin ~name:"Y") ~logic:"!A" ~intrinsic_delay:0.02
    ~drive_resistance:2.0 ~intrinsic_slew:0.015 ~slew_resistance:2.5

(* ------------------------------------------------------------------ *)
(* Cell                                                               *)
(* ------------------------------------------------------------------ *)

let test_cell_make () =
  let c = mk_cell () in
  Alcotest.(check int) "arity" 1 (Cell.arity c);
  Alcotest.(check (list string)) "input names" [ "A" ] (Cell.input_names c);
  check_f "input cap" 0.003 (Cell.input_capacitance c "A")

let test_cell_no_inputs () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Cell.make ~name:"X" ~inputs:[] ~output:(Cell.output_pin ~name:"Y")
            ~logic:"" ~intrinsic_delay:0.01 ~drive_resistance:1.
            ~intrinsic_slew:0.01 ~slew_resistance:1.);
       false
     with Invalid_argument _ -> true)

let test_cell_duplicate_pins () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Cell.make ~name:"X"
            ~inputs:
              [
                Cell.input_pin ~name:"A" ~capacitance:0.001;
                Cell.input_pin ~name:"A" ~capacitance:0.002;
              ]
            ~output:(Cell.output_pin ~name:"Y") ~logic:"" ~intrinsic_delay:0.01
            ~drive_resistance:1. ~intrinsic_slew:0.01 ~slew_resistance:1.);
       false
     with Invalid_argument _ -> true)

let test_cell_bad_params () =
  Alcotest.(check bool) "raises" true
    (try
       ignore
         (Cell.make ~name:"X"
            ~inputs:[ Cell.input_pin ~name:"A" ~capacitance:0.001 ]
            ~output:(Cell.output_pin ~name:"Y") ~logic:"" ~intrinsic_delay:0.
            ~drive_resistance:1. ~intrinsic_slew:0.01 ~slew_resistance:1.);
       false
     with Invalid_argument _ -> true)

let test_cell_find_input () =
  let c = mk_cell () in
  Alcotest.(check bool) "found" true (Cell.find_input c "A" <> None);
  Alcotest.(check bool) "absent" true (Cell.find_input c "B" = None);
  Alcotest.(check bool) "input_capacitance raises" true
    (try
       ignore (Cell.input_capacitance c "Z");
       false
     with Not_found -> true)

let test_negative_pin_cap () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Cell.input_pin ~name:"A" ~capacitance:(-1.));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Delay model                                                        *)
(* ------------------------------------------------------------------ *)

let test_gate_delay_linear () =
  let c = mk_cell () in
  check_f "no load" 0.02 (DM.gate_delay ~cell:c ~load:0.);
  check_f "loaded" (0.02 +. (2.0 *. 0.01)) (DM.gate_delay ~cell:c ~load:0.01);
  (* linearity *)
  let d1 = DM.gate_delay ~cell:c ~load:0.005 in
  let d2 = DM.gate_delay ~cell:c ~load:0.010 in
  let d3 = DM.gate_delay ~cell:c ~load:0.015 in
  check_f "equal increments" (d2 -. d1) (d3 -. d2)

let test_gate_delay_negative_load () =
  let c = mk_cell () in
  Alcotest.(check bool) "raises" true
    (try
       ignore (DM.gate_delay ~cell:c ~load:(-1.));
       false
     with Invalid_argument _ -> true)

let test_output_slew () =
  let c = mk_cell () in
  check_f "cell-limited"
    (0.015 +. (2.5 *. 0.01))
    (DM.output_slew ~cell:c ~input_slew:0.01 ~load:0.01);
  (* very slow input leaks through *)
  check_f "input-limited" (DM.slew_leak *. 1.0)
    (DM.output_slew ~cell:c ~input_slew:1.0 ~load:0.)

let test_holding_resistance () =
  let c = mk_cell () in
  check_f "holding = drive" 2.0 (DM.holding_resistance c)

let test_rc_units () = check_f "kOhm * pF = ns" 0.02 (DM.rc ~resistance:2. ~capacitance:0.01)

(* ------------------------------------------------------------------ *)
(* Default library                                                    *)
(* ------------------------------------------------------------------ *)

let test_lib_lookup () =
  Alcotest.(check bool) "INV_X1" true (Lib.find "INV_X1" <> None);
  Alcotest.(check bool) "NAND2_X4" true (Lib.find "NAND2_X4" <> None);
  Alcotest.(check bool) "unknown" true (Lib.find "NAND9_X1" = None);
  Alcotest.(check bool) "find_exn raises" true
    (try
       ignore (Lib.find_exn "NOPE");
       false
     with Not_found -> true)

let test_lib_complete () =
  (* 12 functions x 3 drives *)
  Alcotest.(check int) "cell count" 36 (List.length Lib.cells);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (c.Cell.name ^ " arity sane")
        true
        (Cell.arity c >= 1 && Cell.arity c <= 3))
    Lib.cells

let test_lib_drive_ordering () =
  let r n = (Lib.find_exn n).Cell.drive_resistance in
  Alcotest.(check bool) "X2 stronger" true (r "INV_X2" < r "INV_X1");
  Alcotest.(check bool) "X4 strongest" true (r "INV_X4" < r "INV_X2");
  let cap n = Cell.input_capacitance (Lib.find_exn n) "A" in
  Alcotest.(check bool) "X2 bigger pins" true (cap "INV_X2" > cap "INV_X1")

let test_lib_arity_query () =
  List.iter
    (fun c -> Alcotest.(check int) (c.Cell.name ^ " arity") 2 (Cell.arity c))
    (Lib.combinational_of_arity 2);
  Alcotest.(check bool) "some 2-input cells" true
    (List.length (Lib.combinational_of_arity 2) > 0)

(* ------------------------------------------------------------------ *)
(* Liberty-lite                                                       *)
(* ------------------------------------------------------------------ *)

let test_liberty_dump_complete () =
  let text = Lib.to_liberty () in
  List.iter
    (fun c ->
      let needle = Printf.sprintf "cell(%s)" c.Cell.name in
      let rec find i =
        i + String.length needle <= String.length text
        && (String.sub text i (String.length needle) = needle || find (i + 1))
      in
      Alcotest.(check bool) (c.Cell.name ^ " in dump") true (find 0))
    Lib.cells

let test_liberty_roundtrip () =
  let parsed = Liberty.parse (Lib.to_liberty ()) in
  Alcotest.(check string) "library name" Lib.name parsed.Liberty.library_name;
  Alcotest.(check int) "cell count" (List.length Lib.cells)
    (List.length parsed.Liberty.cells);
  let approx = Tka_util.Float_cmp.approx ~eps:1e-6 in
  List.iter2
    (fun a b ->
      let ok =
        a.Cell.name = b.Cell.name
        && Cell.input_names a = Cell.input_names b
        && a.Cell.logic = b.Cell.logic
        && approx a.Cell.intrinsic_delay b.Cell.intrinsic_delay
        && approx a.Cell.drive_resistance b.Cell.drive_resistance
        && approx a.Cell.intrinsic_slew b.Cell.intrinsic_slew
        && approx a.Cell.slew_resistance b.Cell.slew_resistance
        && List.for_all
             (fun p ->
               approx p.Cell.capacitance
                 (Cell.input_capacitance b p.Cell.pin_name))
             a.Cell.inputs
      in
      Alcotest.(check bool) (a.Cell.name ^ " round-trips") true ok)
    Lib.cells parsed.Liberty.cells

let minimal_lib =
  {|
library(mini) {
  // a comment
  cell(INV) {
    intrinsic_delay : 0.02;
    drive_resistance : 2.0;
    intrinsic_slew : 0.015;
    slew_resistance : 2.5;
    function : "!A";
    pin(A) { direction : input; capacitance : 0.003; }
    pin(Y) { direction : output; }
  }
}
|}

let test_liberty_minimal () =
  let l = Liberty.parse minimal_lib in
  Alcotest.(check string) "name" "mini" l.Liberty.library_name;
  match Liberty.find l "INV" with
  | None -> Alcotest.fail "INV missing"
  | Some c ->
    check_f "delay" 0.02 c.Cell.intrinsic_delay;
    Alcotest.(check string) "logic" "!A" c.Cell.logic

let test_liberty_block_comment () =
  let src = "library(x) { /* nothing \n here */ }" in
  let l = Liberty.parse src in
  Alcotest.(check int) "no cells" 0 (List.length l.Liberty.cells)

let expect_error src =
  try
    ignore (Liberty.parse src);
    Alcotest.fail "expected Parse_error"
  with Tka_util.Scan.Parse_error _ -> ()

let test_liberty_errors () =
  expect_error "cell(X) {}";
  expect_error "library(x) { cell(A) { pin(Y) { direction : output; } } }";
  (* missing model attrs *)
  expect_error
    "library(x) { cell(A) { intrinsic_delay : 1; drive_resistance : 1; \
     intrinsic_slew : 1; slew_resistance : 1; } }";
  (* no output pin *)
  expect_error "library(x) { cell(A) { intrinsic_delay : oops; } }";
  expect_error "library(x) { cell(A) "

let test_liberty_error_line () =
  try
    ignore (Liberty.parse "library(x) {\n  cell(A) {\n    bad bad\n  }\n}")
  with Tka_util.Scan.Parse_error { line; _ } ->
    Alcotest.(check bool) "line recorded" true (line >= 2)

(* Table-driven error paths: (case, source, expected line, message
   substring). Lexical errors carry the exact offending line; semantic
   errors (missing attribute, pin checks) are exercised on one-line
   sources so the reported line is unambiguous. *)
let test_liberty_error_table () =
  List.iter
    (fun (case, src, want_line, want_sub) ->
      match Liberty.parse src with
      | _ -> Alcotest.fail (Printf.sprintf "%s: expected Parse_error" case)
      | exception Tka_util.Scan.Parse_error { source = "liberty"; line; message } ->
        Alcotest.(check int) (Printf.sprintf "%s: line" case) want_line line;
        let contains_sub s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          m = 0 || go 0
        in
        if not (contains_sub message want_sub) then
          Alcotest.fail
            (Printf.sprintf "%s: message %S does not mention %S" case message
               want_sub))
    [
      ("not a library", "cell(X) {}", 1, "expected 'library'");
      ( "malformed number",
        "library(x) {\ncell(A) {\nintrinsic_delay : 1.2.3;\n}\n}",
        3,
        "malformed number" );
      ( "non-finite number",
        "library(x) {\ncell(A) {\nintrinsic_delay : 1e999;\n}\n}",
        3,
        "non-finite number" );
      ("unterminated block comment", "library(x) {\n/* foo", 2, "unterminated");
      ( "unterminated string",
        "library(x) {\ncell(A) {\nfunction : \"!A",
        3,
        "unterminated string" );
      ( "missing attribute",
        "library(x) { cell(A) { pin(Y) { direction : output; } } }",
        1,
        "missing attribute" );
      ( "no output pin",
        "library(x) { cell(A) { intrinsic_delay : 1; drive_resistance : 1; \
         intrinsic_slew : 1; slew_resistance : 1; } }",
        1,
        "no output pin" );
      ("truncated file", "library(x) { cell(A) ", 1, "expected '{'");
      ( "trailing content",
        "library(x) { } garbage",
        1,
        "trailing content" );
    ]

let test_liberty_unknown_pin_attr_tolerated () =
  let src =
    {|
library(x) {
  cell(B) {
    intrinsic_delay : 0.01;
    drive_resistance : 1.0;
    intrinsic_slew : 0.01;
    slew_resistance : 1.0;
    pin(A) { direction : input; capacitance : 0.001; max_transition : 0.5; }
    pin(Y) { direction : output; }
  }
}
|}
  in
  let l = Liberty.parse src in
  Alcotest.(check int) "parsed" 1 (List.length l.Liberty.cells)

(* ------------------------------------------------------------------ *)
(* Corners                                                            *)
(* ------------------------------------------------------------------ *)

module Corner = Tka_cell.Corner

let test_corner_typical_identity () =
  let c = mk_cell () in
  let d = Corner.derate_cell Corner.typical c in
  Alcotest.(check string) "name kept" c.Cell.name d.Cell.name;
  check_f "delay" c.Cell.intrinsic_delay d.Cell.intrinsic_delay;
  check_f "res" c.Cell.drive_resistance d.Cell.drive_resistance;
  check_f "cap" (Cell.input_capacitance c "A") (Cell.input_capacitance d "A")

let test_corner_slow_fast_ordering () =
  let c = mk_cell () in
  let s = Corner.derate_cell Corner.slow c in
  let f = Corner.derate_cell Corner.fast c in
  Alcotest.(check bool) "slow slower" true
    (s.Cell.intrinsic_delay > c.Cell.intrinsic_delay);
  Alcotest.(check bool) "fast faster" true
    (f.Cell.intrinsic_delay < c.Cell.intrinsic_delay);
  Alcotest.(check bool) "slow weaker" true
    (s.Cell.drive_resistance > f.Cell.drive_resistance);
  Alcotest.(check string) "suffix" "T@ss" s.Cell.name

let test_corner_library () =
  let lib = Corner.derate_library Corner.slow Lib.cells in
  Alcotest.(check int) "size kept" (List.length Lib.cells) (List.length lib);
  Alcotest.(check bool) "validation" true
    (try
       ignore (Corner.make ~name:"x" ~delay_factor:0. ~resistance_factor:1.
                 ~capacitance_factor:1.);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* QCheck                                                              *)
(* ------------------------------------------------------------------ *)

let qcheck_tests =
  let open QCheck in
  [
    Test.make ~name:"gate delay monotone in load" ~count:200
      (pair (float_range 0. 0.1) (float_range 0. 0.1)) (fun (l1, l2) ->
        let c = mk_cell () in
        let lo, hi = (Float.min l1 l2, Float.max l1 l2) in
        DM.gate_delay ~cell:c ~load:lo <= DM.gate_delay ~cell:c ~load:hi +. 1e-12);
    Test.make ~name:"output slew at least leak" ~count:200
      (pair (float_range 0. 2.) (float_range 0. 0.1)) (fun (s, l) ->
        let c = mk_cell () in
        DM.output_slew ~cell:c ~input_slew:s ~load:l >= (DM.slew_leak *. s) -. 1e-12);
  ]

let () =
  Alcotest.run "tka_cell"
    [
      ( "cell",
        [
          Alcotest.test_case "make" `Quick test_cell_make;
          Alcotest.test_case "no inputs" `Quick test_cell_no_inputs;
          Alcotest.test_case "duplicate pins" `Quick test_cell_duplicate_pins;
          Alcotest.test_case "bad params" `Quick test_cell_bad_params;
          Alcotest.test_case "find input" `Quick test_cell_find_input;
          Alcotest.test_case "negative pin cap" `Quick test_negative_pin_cap;
        ] );
      ( "delay_model",
        [
          Alcotest.test_case "linear" `Quick test_gate_delay_linear;
          Alcotest.test_case "negative load" `Quick test_gate_delay_negative_load;
          Alcotest.test_case "output slew" `Quick test_output_slew;
          Alcotest.test_case "holding resistance" `Quick test_holding_resistance;
          Alcotest.test_case "rc units" `Quick test_rc_units;
        ] );
      ( "default_lib",
        [
          Alcotest.test_case "lookup" `Quick test_lib_lookup;
          Alcotest.test_case "complete" `Quick test_lib_complete;
          Alcotest.test_case "drive ordering" `Quick test_lib_drive_ordering;
          Alcotest.test_case "arity query" `Quick test_lib_arity_query;
        ] );
      ( "corner",
        [
          Alcotest.test_case "typical identity" `Quick test_corner_typical_identity;
          Alcotest.test_case "slow/fast ordering" `Quick test_corner_slow_fast_ordering;
          Alcotest.test_case "library" `Quick test_corner_library;
        ] );
      ( "liberty",
        [
          Alcotest.test_case "dump complete" `Quick test_liberty_dump_complete;
          Alcotest.test_case "roundtrip" `Quick test_liberty_roundtrip;
          Alcotest.test_case "minimal" `Quick test_liberty_minimal;
          Alcotest.test_case "block comment" `Quick test_liberty_block_comment;
          Alcotest.test_case "errors" `Quick test_liberty_errors;
          Alcotest.test_case "error line" `Quick test_liberty_error_line;
          Alcotest.test_case "error table" `Quick test_liberty_error_table;
          Alcotest.test_case "unknown pin attr" `Quick
            test_liberty_unknown_pin_attr_tolerated;
        ] );
      ("properties", List.map QCheck_alcotest.to_alcotest qcheck_tests);
    ]
