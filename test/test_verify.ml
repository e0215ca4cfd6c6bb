(* Tests for the differential verification layer: ddmin, reproducer
   round-trips, the fuzzer's contract checker, the oracle invariants,
   and a short smoke run of the full driver loop. *)

module Rng = Tka_util.Rng
module N = Tka_circuit.Netlist
module Topo = Tka_circuit.Topo
module Nf = Tka_circuit.Netlist_format
module CS = Tka_topk.Coupling_set
module Lib = Tka_cell.Default_lib
module Minimize = Tka_verify.Minimize
module Gen = Tka_verify.Gen
module Repro = Tka_verify.Repro
module Edit = Tka_incr.Edit
module J = Tka_obs.Jsonx
module Oracle = Tka_verify.Oracle
module Fuzz = Tka_verify.Fuzz
module Driver = Tka_verify.Driver

(* ------------------------------------------------------------------ *)
(* Minimize                                                           *)
(* ------------------------------------------------------------------ *)

let test_ddmin_pair () =
  (* failure needs exactly {3, 7}: ddmin must find that pair *)
  let test xs = List.mem 3 xs && List.mem 7 xs in
  let out = Minimize.ddmin test [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  Alcotest.(check (list int)) "minimal pair" [ 3; 7 ] out

let test_ddmin_single () =
  let test xs = List.mem 5 xs in
  let out = Minimize.ddmin test (List.init 20 Fun.id) in
  Alcotest.(check (list int)) "singleton" [ 5 ] out

let test_ddmin_monotone_count () =
  (* any 3 elements of the tail suffice: result must have exactly 3 *)
  let test xs = List.length (List.filter (fun x -> x >= 10) xs) >= 3 in
  let out = Minimize.ddmin test (List.init 16 Fun.id) in
  Alcotest.(check int) "three elements" 3 (List.length out);
  Alcotest.(check bool) "still fails" true (test out)

let test_ddmin_not_failing () =
  let xs = [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "unchanged" xs (Minimize.ddmin (fun _ -> false) xs)

let test_ddmin_exception_is_false () =
  (* a test that raises on some inputs must be wrapped by the caller;
     ddmin itself only sees the wrapped total function *)
  let test xs = try List.hd xs = 9 with Failure _ -> false in
  Alcotest.(check (list int)) "hd found" [ 9 ] (Minimize.ddmin test [ 9; 1; 2 ])

let test_minimize_lines_substring () =
  let contains sub s =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let src = "aaa\nbbb\nMAGIC\nccc\n" in
  let out = Minimize.lines (contains "MAGIC") src in
  Alcotest.(check string) "one line" "MAGIC" out

(* ------------------------------------------------------------------ *)
(* Repro                                                              *)
(* ------------------------------------------------------------------ *)

let sample_repro =
  {
    Repro.rp_invariant = "incr";
    rp_seed = 42;
    rp_trial = 7;
    rp_detail = "delay mismatch";
    rp_k = Some 2;
    rp_netlist = Some "circuit t\ninput a\n";
    rp_set = Some [ 0; 3; 5 ];
    rp_edits =
      Some
        [
          Edit.Remove_coupling 1;
          Edit.Scale_coupling { coupling = 2; factor = 0.5 };
          Edit.Resize_driver { gate = 0; cell = Option.get (Lib.find "INV_X2") };
          Edit.Strengthen_driver { gate = 3; factor = 1.5 };
        ];
    rp_input = None;
  }

let test_repro_json_roundtrip () =
  match Repro.of_json (Repro.to_json sample_repro) with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "roundtrip identical" true (r = sample_repro)

let test_repro_save_load () =
  let path = Filename.temp_file "tka_repro" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let second = { sample_repro with Repro.rp_invariant = "fuzz_spef";
                     rp_input = Some "*D_NET a 1\n"; rp_edits = None } in
      Repro.save path [ sample_repro; second ];
      match Repro.load path with
      | Error e -> Alcotest.fail e
      | Ok rs ->
        Alcotest.(check int) "two records" 2 (List.length rs);
        Alcotest.(check bool) "both roundtrip" true
          (rs = [ sample_repro; second ]))

let test_repro_load_bad_line () =
  let path = Filename.temp_file "tka_repro" ".ndjson" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc "{\"invariant\":\"brute\",\"seed\":1,\"trial\":0,\"detail\":\"d\"}\nnot json\n";
      close_out oc;
      match Repro.load path with
      | Ok _ -> Alcotest.fail "expected load error"
      | Error e ->
        Alcotest.(check bool) "error names line 2" true
          (let contains sub s =
             let n = String.length s and m = String.length sub in
             let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
             m = 0 || go 0
           in
           contains ":2" e))

(* Edits travel in Edit's wire format: a cell outside the default
   library, or an op of another format, is a load error, not a
   misread script. *)
let test_edit_spec_unknown_cell () =
  let with_edit e =
    match Repro.to_json { sample_repro with Repro.rp_edits = Some [] } with
    | J.Obj kvs ->
      J.Obj (List.map (fun (k, v) -> if k = "edits" then (k, J.List [ e ]) else (k, v)) kvs)
    | j -> j
  in
  let error_of e =
    match Repro.of_json (with_edit e) with Ok _ -> "" | Error m -> m
  in
  Alcotest.(check string) "unknown cell" "reproducer: unknown cell \"NOPE_X9\""
    (error_of
       (J.Obj [ ("op", J.Str "resize_driver"); ("gate", J.Int 0); ("cell", J.Str "NOPE_X9") ]));
  Alcotest.(check string) "old op name" "reproducer: unknown edit op \"remove\""
    (error_of (J.Obj [ ("op", J.Str "remove"); ("coupling", J.Int 1) ]))

(* ------------------------------------------------------------------ *)
(* Fuzz                                                               *)
(* ------------------------------------------------------------------ *)

let test_fuzz_names () =
  List.iter
    (fun fmt ->
      match Fuzz.of_name (Fuzz.name fmt) with
      | Some fmt' -> Alcotest.(check bool) "name roundtrip" true (fmt = fmt')
      | None -> Alcotest.fail ("of_name failed for " ^ Fuzz.name fmt))
    Fuzz.all

let test_fuzz_generate_valid () =
  (* every generated document must parse cleanly: check returns None
     and, with no mutation, no Parse_error fires either *)
  let rng = Rng.create 11 in
  List.iter
    (fun fmt ->
      match Fuzz.check fmt (Fuzz.generate rng fmt) with
      | None -> ()
      | Some d -> Alcotest.fail (Fuzz.name fmt ^ ": valid doc rejected: " ^ d))
    Fuzz.all

let test_fuzz_check_structured_error_ok () =
  (* malformed input with an in-range Parse_error satisfies the contract *)
  Alcotest.(check bool) "netlist garbage ok" true
    (Fuzz.check Fuzz.Netlist_fmt "frobnicate\n" = None);
  Alcotest.(check bool) "liberty garbage ok" true
    (Fuzz.check Fuzz.Liberty "cell(X) {}" = None);
  Alcotest.(check bool) "sdf garbage ok" true
    (Fuzz.check Fuzz.Sdf "((((" = None)

let test_fuzz_mutate_deterministic () =
  let doc = Fuzz.generate (Rng.create 3) Fuzz.Netlist_fmt in
  let a = Fuzz.mutate (Rng.create 5) doc in
  let b = Fuzz.mutate (Rng.create 5) doc in
  Alcotest.(check string) "same seed, same mutation" a b

(* What a parser made of one input, canonically: the parsed value with
   every float in %h, or the line and message of the rejection, or the
   exception that escaped. *)
let parse_outcome fmt src =
  let lookup = Lib.find in
  let netlist nl =
    Nf.print nl
    ^ String.concat ""
        (Array.to_list
           (Array.map
              (fun n -> Printf.sprintf "%h %h\n" n.N.wire_cap n.N.wire_res)
              (N.nets nl)))
    ^ String.concat ""
        (Array.to_list
           (Array.map
              (fun c -> Printf.sprintf "%h\n" c.N.coupling_cap)
              (N.couplings nl)))
  in
  let parsed () =
    match fmt with
    | Fuzz.Netlist_fmt -> netlist (Nf.parse ~lookup src)
    | Fuzz.Verilog -> netlist (Tka_circuit.Verilog_lite.parse ~lookup src)
    | Fuzz.Spef ->
      let a = Tka_circuit.Spef_lite.parse src in
      String.concat "\n"
        (Option.value ~default:"-" a.design
        :: List.map (fun (n, c, r) -> Printf.sprintf "%s %h %h" n c r) a.ground
        @ List.map (fun (x, y, c) -> Printf.sprintf "%s %s %h" x y c) a.couplings)
    | Fuzz.Sdf ->
      let a = Tka_circuit.Sdf_lite.parse src in
      String.concat "\n"
        (Option.value ~default:"-" a.sdf_design
        :: List.map
             (fun (i, f, t, d) -> Printf.sprintf "%s %s %s %h" i f t d)
             a.sdf_arcs)
    | Fuzz.Liberty ->
      let l = Tka_cell.Liberty_lite.parse src in
      let module C = Tka_cell.Cell in
      let pin p =
        Printf.sprintf "%s/%s/%h" p.C.pin_name
          (match p.C.direction with C.Input -> "in" | C.Output -> "out")
          p.C.capacitance
      in
      String.concat "\n"
        (l.library_name
        :: List.map
             (fun c ->
               Printf.sprintf "%s %S %s %s %h %h %h %h" c.C.name c.C.logic
                 (String.concat "," (List.map pin c.C.inputs))
                 (pin c.C.output) c.C.intrinsic_delay c.C.drive_resistance
                 c.C.intrinsic_slew c.C.slew_resistance)
             l.cells)
  in
  match Fuzz.run_parser fmt src with
  | `Parsed -> "P " ^ parsed ()
  | `Rejected (line, message) -> Printf.sprintf "R %d %s" line message
  | exception e -> "E " ^ Printexc.to_string e

(* A fixed mutation corpus, 1,200 inputs per format, pinned by one
   digest: every accepted input must parse to the same value and every
   rejected one must report the same line and message. *)
let test_fuzz_corpus_digest () =
  let h = Buffer.create (1 lsl 20) in
  List.iter
    (fun fmt ->
      for seed = 1 to 1200 do
        let rng = Rng.create (7919 * seed) in
        let doc = Fuzz.generate rng fmt in
        let src = if seed mod 50 = 0 then doc else Fuzz.mutate rng doc in
        Buffer.add_string h (Fuzz.name fmt);
        Buffer.add_string h (parse_outcome fmt src);
        Buffer.add_char h '\000'
      done)
    Fuzz.all;
  Alcotest.(check string) "corpus digest" "91493bece5a0d8c9195679738cf5ddb7"
    (Digest.to_hex (Digest.string (Buffer.contents h)))

(* ------------------------------------------------------------------ *)
(* Oracle                                                             *)
(* ------------------------------------------------------------------ *)

let test_oracle_duality_tiny () =
  let nl = Gen.small_circuit (Rng.create 21) in
  let topo = Topo.create nl in
  let u = 2 * N.num_couplings nl in
  Alcotest.(check bool) "has couplings" true (u > 0);
  (* empty set, full universe, and an arbitrary subset *)
  List.iter
    (fun s ->
      match Oracle.duality ~set:(CS.of_list s) topo with
      | Oracle.Pass -> ()
      | Oracle.Skip why -> Alcotest.fail ("unexpected skip: " ^ why)
      | Oracle.Fail d -> Alcotest.fail ("duality violated: " ^ d))
    [ []; List.init u Fun.id; List.filteri (fun i _ -> i mod 2 = 0) (List.init u Fun.id) ]

let test_oracle_brute_tiny () =
  let nl = Gen.small_circuit (Rng.create 31) in
  match Oracle.brute ~k:1 (Topo.create nl) with
  | Oracle.Pass | Oracle.Skip _ -> ()
  | Oracle.Fail d -> Alcotest.fail ("brute k=1 violated: " ^ d)

let test_oracle_brute_rejects_large_k () =
  let nl = Gen.small_circuit (Rng.create 31) in
  Alcotest.(check bool) "k=4 rejected" true
    (try
       ignore (Oracle.brute ~k:4 (Topo.create nl));
       false
     with Invalid_argument _ -> true)

let test_oracle_table2x_pinned () =
  (* regeneration determinism plus a pinned fingerprint: the generator
     draws from one seeded stream in a fixed order, so this value only
     moves if the draw order (or the builder) changes — which must be a
     conscious decision, not an accident *)
  let spec = Tka_layout.Table2x.spec ~nets:2000 () in
  (match Oracle.table2x ~expected:"360b9029a9814172" spec with
  | Oracle.Pass -> ()
  | Oracle.Skip why -> Alcotest.fail ("unexpected skip: " ^ why)
  | Oracle.Fail d -> Alcotest.fail ("table2x pin violated: " ^ d));
  (* a different seed must produce a different circuit *)
  let other = Tka_layout.Table2x.spec ~nets:2000 ~seed:99 () in
  Alcotest.(check bool) "seed changes the netlist" true
    (Oracle.netlist_fingerprint (Tka_layout.Table2x.generate spec)
    <> Oracle.netlist_fingerprint (Tka_layout.Table2x.generate other))

let test_oracle_incremental_tiny () =
  let rng = Rng.create 41 in
  let nl = Gen.medium_circuit rng in
  let edits = Gen.edits rng nl in
  match Oracle.incremental ~k:2 nl edits with
  | Oracle.Pass | Oracle.Skip _ -> ()
  | Oracle.Fail d -> Alcotest.fail ("incremental violated: " ^ d)

let test_oracle_rerank_tiny () =
  List.iter
    (fun seed ->
      let nl = Gen.medium_circuit (Rng.create seed) in
      match Oracle.rerank ~k:3 (Topo.create nl) with
      | Oracle.Pass -> ()
      | Oracle.Skip why -> Alcotest.fail ("unexpected skip: " ^ why)
      | Oracle.Fail d -> Alcotest.fail ("rerank violated: " ^ d))
    [ 3; 17 ]

let test_oracle_repair_tiny () =
  let rng = Rng.create 43 in
  let nl = Gen.medium_circuit rng in
  match Oracle.repair ~budget:2 ~k:2 nl with
  | Oracle.Pass | Oracle.Skip _ -> ()
  | Oracle.Fail d -> Alcotest.fail ("repair violated: " ^ d)

(* ------------------------------------------------------------------ *)
(* Driver                                                             *)
(* ------------------------------------------------------------------ *)

let test_driver_smoke () =
  (* a short run across all eight trial families must find nothing *)
  let s = Driver.run ~seed:7 ~trials:21 ~minimize:false () in
  Alcotest.(check int) "all trials ran" 21 s.Driver.vs_trials;
  Alcotest.(check int) "families split" 21 Driver.(s.vs_oracle + s.vs_fuzz);
  (match s.Driver.vs_failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.fail
      (Printf.sprintf "defect found by %s: %s" f.Repro.rp_invariant
         f.Repro.rp_detail));
  Alcotest.(check bool) "elapsed recorded" true (s.Driver.vs_elapsed_s >= 0.)

let test_driver_budget_stops () =
  let s = Driver.run ~seed:7 ~trials:1_000_000 ~budget_s:0. () in
  Alcotest.(check int) "budget stops immediately" 0 s.Driver.vs_trials

let test_driver_replay_fuzz () =
  (* a reproducer for a fuzz case that parses fine now reports Passed *)
  let r =
    {
      Repro.rp_invariant = "fuzz_netlist";
      rp_seed = 1;
      rp_trial = 0;
      rp_detail = "";
      rp_k = None;
      rp_netlist = None;
      rp_set = None;
      rp_edits = None;
      rp_input = Some "circuit t\ninput a\noutput a\n";
    }
  in
  (match Driver.replay r with
  | Driver.Passed -> ()
  | Driver.Reproduced d -> Alcotest.fail ("unexpectedly reproduced: " ^ d)
  | Driver.Skipped why -> Alcotest.fail ("unexpected skip: " ^ why));
  (* a malformed record must NOT look fixed *)
  match Driver.replay { r with Repro.rp_input = None } with
  | Driver.Reproduced _ -> ()
  | Driver.Passed | Driver.Skipped _ ->
    Alcotest.fail "record without payload must report Reproduced"

let () =
  Alcotest.run "tka_verify"
    [
      ( "minimize",
        [
          Alcotest.test_case "pair" `Quick test_ddmin_pair;
          Alcotest.test_case "single" `Quick test_ddmin_single;
          Alcotest.test_case "monotone count" `Quick test_ddmin_monotone_count;
          Alcotest.test_case "not failing" `Quick test_ddmin_not_failing;
          Alcotest.test_case "wrapped exceptions" `Quick
            test_ddmin_exception_is_false;
          Alcotest.test_case "lines" `Quick test_minimize_lines_substring;
        ] );
      ( "repro",
        [
          Alcotest.test_case "json roundtrip" `Quick test_repro_json_roundtrip;
          Alcotest.test_case "save/load" `Quick test_repro_save_load;
          Alcotest.test_case "load bad line" `Quick test_repro_load_bad_line;
          Alcotest.test_case "unknown cell" `Quick test_edit_spec_unknown_cell;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "names" `Quick test_fuzz_names;
          Alcotest.test_case "generate valid" `Quick test_fuzz_generate_valid;
          Alcotest.test_case "structured errors ok" `Quick
            test_fuzz_check_structured_error_ok;
          Alcotest.test_case "mutate deterministic" `Quick
            test_fuzz_mutate_deterministic;
          Alcotest.test_case "corpus digest" `Quick test_fuzz_corpus_digest;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "duality" `Quick test_oracle_duality_tiny;
          Alcotest.test_case "brute k=1" `Quick test_oracle_brute_tiny;
          Alcotest.test_case "brute rejects k>3" `Quick
            test_oracle_brute_rejects_large_k;
          Alcotest.test_case "incremental" `Quick test_oracle_incremental_tiny;
          Alcotest.test_case "repair" `Quick test_oracle_repair_tiny;
          Alcotest.test_case "rerank" `Quick test_oracle_rerank_tiny;
          Alcotest.test_case "table2x pinned" `Quick
            test_oracle_table2x_pinned;
        ] );
      ( "driver",
        [
          Alcotest.test_case "smoke" `Slow test_driver_smoke;
          Alcotest.test_case "budget" `Quick test_driver_budget_stops;
          Alcotest.test_case "replay" `Quick test_driver_replay_fuzz;
        ] );
    ]
