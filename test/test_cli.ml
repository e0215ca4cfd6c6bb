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

let test_error_exit_1 () =
  let d = temp_dir () in
  let net = Filename.concat d "bad.tka" in
  let oc = open_out net in
  output_string oc "this is not a netlist\n";
  close_out oc;
  let metrics = Filename.concat d "m.json" in
  Alcotest.(check int) "parse error exit code" 1
    (run [ "topk"; "-k"; "2"; "--metrics-out"; metrics; net ]);
  check_dump "metrics" metrics

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
        ] );
    ]
