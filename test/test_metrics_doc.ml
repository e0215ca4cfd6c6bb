(* Every metric the libraries register has a row in the metrics table
   of docs/observability.md. The executable links every library in
   full (-linkall), so each module's toplevel [Metrics.*.make] has run
   before the registry is read. *)

module Metrics = Tka_obs.Metrics

(* Backquoted names in the first column of the rows of the table that
   follows "Metrics currently registered:". *)
let documented path =
  let ic = open_in path in
  let rec lines acc =
    match input_line ic with
    | l -> lines (l :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  let rec table_start = function
    | [] -> []
    | l :: tl ->
      if String.starts_with ~prefix:"Metrics currently registered:" l then tl
      else table_start tl
  in
  let rec rows acc = function
    | l :: tl when String.starts_with ~prefix:"|" l -> rows (l :: acc) tl
    | "" :: tl when acc = [] -> rows acc tl
    | _ -> acc
  in
  let names row =
    match String.split_on_char '|' row with
    | _ :: first :: _ ->
      String.split_on_char '`' first |> List.filteri (fun i _ -> i mod 2 = 1)
    | _ -> []
  in
  rows [] (table_start (lines [])) |> List.concat_map names

let registered () =
  match Metrics.to_json () with
  | Tka_obs.Jsonx.Obj fields -> List.map fst fields
  | _ -> Alcotest.fail "metrics registry did not export an object"

(* [dune runtest] runs this in _build/default/test, next to the copy of
   docs/ its rule depends on; [dune exec test/test_metrics_doc.exe] runs
   it in the repository root. *)
let doc_path () =
  match List.find_opt Sys.file_exists [ "docs/observability.md"; "../docs/observability.md" ] with
  | Some p -> p
  | None -> Alcotest.fail "docs/observability.md not found from the working directory"

let test_documented () =
  let doc = documented (doc_path ()) in
  let reg = registered () in
  Alcotest.(check bool) "the table parses" true (List.length doc >= 20);
  Alcotest.(check bool) "the serve library registered its metrics" true
    (List.mem "serve.requests" reg);
  Alcotest.(check (list string))
    "registered metrics missing from docs/observability.md" []
    (List.filter (fun n -> not (List.mem n doc)) reg)

let () =
  Alcotest.run "tka_metrics_doc"
    [ ("docs", [ Alcotest.test_case "every metric documented" `Quick test_documented ]) ]
