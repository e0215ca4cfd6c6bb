(* The tka binary's exit paths: observability dumps requested with
   --metrics-out/--trace-out are written even when a command ends with
   a failure exit code, and out-of-range flag values end in a plain
   "error:" line and exit 1, not an internal error. *)

(* the binary sits next to this test's directory in the build tree *)
let tka =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "tka.exe" ]

let run args =
  Sys.command (Filename.quote_command tka args ~stdout:Filename.null ~stderr:Filename.null)

let temp_dir () =
  let d = Filename.temp_file "tka_cli" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let read_file path =
  let ic = open_in path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  text

let check_dump label path =
  Alcotest.(check bool) (label ^ " written") true (Sys.file_exists path);
  let text = read_file path in
  Alcotest.(check bool) (label ^ " holds JSON") true
    (String.length text > 0 && (text.[0] = '{' || text.[0] = '['))

let test_repair_exit_4 () =
  let d = temp_dir () in
  let net = Filename.concat d "i1.tka" in
  Alcotest.(check int) "gen" 0 (run [ "gen"; "-b"; "i1"; "-o"; net ]);
  let metrics = Filename.concat d "m.json" and trace = Filename.concat d "t.json" in
  (* two edits cannot meet the target, so repair exits 4 *)
  Alcotest.(check int) "repair exit code" 4
    (run
       [
         "repair"; "-k"; "5"; "--budget"; "2"; "--dry-run"; "--metrics-out"; metrics;
         "--trace-out"; trace; net;
       ]);
  check_dump "metrics" metrics;
  check_dump "trace" trace

let write_file path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* A malformed input ends in one "<source> parse error, line N: ..."
   line on stderr and exit 1, and the dumps are still written. *)
let test_error_exit_1 () =
  let d = temp_dir () in
  let good = Filename.concat d "i1.tka" in
  Alcotest.(check int) "gen" 0 (run [ "gen"; "-b"; "i1"; "-o"; good ]);
  let bad_tka = Filename.concat d "bad.tka"
  and bad_v = Filename.concat d "bad.v"
  and bad_lib = Filename.concat d "bad.lib" in
  write_file bad_tka "this is not a netlist\n";
  write_file bad_v "module m (a);\n  input a;\n  wire [3:0] w;\nendmodule\n";
  write_file bad_lib "library(x) {\n  /* one cell */\n  cell(A) {\n    area : ;\n  }\n}\n";
  List.iter
    (fun (label, args, want) ->
      let metrics = Filename.concat d "m.json" and err = Filename.concat d "err.txt" in
      if Sys.file_exists metrics then Sys.remove metrics;
      let code =
        Sys.command
          (Filename.quote_command tka
             ([ "topk"; "-k"; "2"; "--metrics-out"; metrics ] @ args)
             ~stdout:Filename.null ~stderr:err)
      in
      Alcotest.(check int) (label ^ " exit code") 1 code;
      Alcotest.(check string) (label ^ " stderr") want (read_file err);
      check_dump (label ^ " metrics") metrics)
    [
      ( "tka text",
        [ bad_tka ],
        "netlist parse error, line 1: unknown keyword \"this\"\n" );
      ( "verilog",
        [ bad_v ],
        "verilog parse error, line 3: vectors are not supported by the \
         Verilog-lite subset\n" );
      ( "liberty",
        [ "--liberty"; bad_lib; good ],
        "liberty parse error, line 4: expected a value\n" );
    ]

let contains ~sub s =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_bad_value_exit_1 () =
  let d = temp_dir () in
  let net = Filename.concat d "i1.tka" in
  Alcotest.(check int) "gen" 0 (run [ "gen"; "-b"; "i1"; "-o"; net ]);
  List.iter
    (fun args ->
      let label = String.concat " " args in
      let err = Filename.concat d "err.txt" in
      let code =
        Sys.command
          (Filename.quote_command tka (args @ [ net ]) ~stdout:Filename.null
             ~stderr:err)
      in
      let text = read_file err in
      Alcotest.(check int) (label ^ " exit code") 1 code;
      Alcotest.(check bool) (label ^ " says error:") true
        (String.length text >= 6 && String.sub text 0 6 = "error:");
      Alcotest.(check bool) (label ^ " is no internal error") false
        (contains ~sub:"internal error" text))
    [
      [ "topk"; "-k"; "0" ];
      [ "sensitivity"; "--trials"; "0" ];
      [ "eco"; "-k"; "3"; "--fix-k"; "4" ];
      [ "repair"; "--budget=-1" ];
      [ "repair"; "--recover"; "2" ];
    ]

(* [tka eco] lists the removed couplings on their own line: the delay
   line that follows starts a line of its own. *)
let test_eco_lines () =
  let d = temp_dir () in
  let net = Filename.concat d "i1.tka" in
  Alcotest.(check int) "gen" 0 (run [ "gen"; "-b"; "i1"; "-o"; net ]);
  let out = Filename.concat d "eco.txt" in
  Alcotest.(check int) "eco exit code" 0
    (Sys.command
       (Filename.quote_command tka [ "eco"; "-k"; "5"; net ] ~stdout:out
          ~stderr:Filename.null));
  let lines = String.split_on_char '\n' (read_file out) in
  Alcotest.(check bool) "a line starts with the noisy delay" true
    (List.exists (fun l -> String.starts_with ~prefix:"  noisy delay" l) lines);
  Alcotest.(check bool) "no line glues it to the set" false
    (List.exists
       (fun l -> contains ~sub:"noisy delay" l && not (String.starts_with ~prefix:"  noisy delay" l))
       lines)

(* stdout of [tka args], and the exit code *)
let stdout_of d args =
  let out = Filename.concat d "stdout.txt" in
  let code =
    Sys.command (Filename.quote_command tka args ~stdout:out ~stderr:Filename.null)
  in
  (code, read_file out)

(* With [--json -] the JSON report is all that goes to stdout, so it
   pipes into a JSON reader; the text report is left out. *)
let test_json_stdout () =
  let d = temp_dir () in
  let net = Filename.concat d "i1.tka" in
  Alcotest.(check int) "gen" 0 (run [ "gen"; "-b"; "i1"; "-o"; net ]);
  List.iter
    (fun (args, want_code, key) ->
      let label = String.concat " " args in
      let code, out = stdout_of d (args @ [ "--json"; "-"; net ]) in
      Alcotest.(check int) (label ^ " exit code") want_code code;
      let json =
        match Tka_obs.Jsonx.of_string out with
        | j -> Some j
        | exception _ -> None
      in
      Alcotest.(check bool) (label ^ ": stdout is one JSON object") true
        (Option.bind json (Tka_obs.Jsonx.member key) <> None))
    [
      ([ "eco"; "-k"; "5" ], 0, "identical");
      ([ "repair"; "-k"; "5"; "--budget"; "1"; "--dry-run" ], 4, "outcome");
    ]

(* With no fix set nothing is edited, so the text report has no
   after-fix delay and no re-analysis line. *)
let test_eco_no_fix_text () =
  let d = temp_dir () in
  let tiny = Filename.concat d "tiny.tka" and net = Filename.concat d "nc.tka" in
  Alcotest.(check int) "gen" 0 (run [ "gen"; "-b"; "tiny"; "-o"; tiny ]);
  let oc = open_out net in
  String.split_on_char '\n' (read_file tiny)
  |> List.filter (fun l -> not (String.starts_with ~prefix:"coupling " l))
  |> String.concat "\n" |> output_string oc;
  close_out oc;
  let code, out = stdout_of d [ "eco"; "-k"; "4"; net ] in
  Alcotest.(check int) "no fix set: exit 2" 2 code;
  Alcotest.(check bool) "says nothing to fix" true (contains ~sub:"nothing to fix" out);
  Alcotest.(check bool) "no after-fix delay" false (contains ~sub:"after fix" out);
  Alcotest.(check bool) "no re-analysis line" false (contains ~sub:"dirty nets" out)

(* bench-diff: a regression is exit 1, a file that is not one JSON
   document exit 2, with the error on stderr. *)
let test_bench_diff_exits () =
  let d = temp_dir () in
  let base = Filename.concat d "base.json"
  and slow = Filename.concat d "slow.json"
  and two = Filename.concat d "two.json"
  and err = Filename.concat d "err.txt" in
  write_file base "{\"section_runtime_s\": {\"table1\": 1.0}}\n";
  write_file slow "{\"section_runtime_s\": {\"table1\": 1.5}}\n";
  write_file two "{\"total_runtime_s\": 1.0}\n{\"total_runtime_s\": 9.0}\n";
  let bench_diff a b =
    Sys.command
      (Filename.quote_command tka [ "bench-diff"; a; b ] ~stdout:Filename.null ~stderr:err)
  in
  Alcotest.(check int) "identical files" 0 (bench_diff base base);
  Alcotest.(check int) "a regression" 1 (bench_diff base slow);
  Alcotest.(check int) "two documents as base" 2 (bench_diff two base);
  Alcotest.(check bool) "the error names the file" true
    (String.starts_with ~prefix:("json parse error: " ^ two ^ ": ") (read_file err));
  Alcotest.(check int) "two documents as new" 2 (bench_diff base two)

let () =
  Alcotest.run "tka_cli"
    [
      ( "exit",
        [
          Alcotest.test_case "dumps survive exit 4" `Quick test_repair_exit_4;
          Alcotest.test_case "dumps survive an input error" `Quick test_error_exit_1;
          Alcotest.test_case "bad flag values exit 1" `Quick test_bad_value_exit_1;
          Alcotest.test_case "eco delay on its own line" `Quick test_eco_lines;
          Alcotest.test_case "--json - prints JSON alone" `Quick test_json_stdout;
          Alcotest.test_case "eco text with no fix" `Quick test_eco_no_fix_text;
          Alcotest.test_case "bench-diff exit codes" `Quick test_bench_diff_exits;
        ] );
    ]
