(* Golden digests of the enumeration engine. Each digest covers, for
   one circuit, mode and filter at k = 5, every per-k choice and every
   [res_top] candidate (coupling set, objective printed with %h, sink)
   and the five [res_stats] counts. They were recorded from the engine
   as it stood before the sweep kept one prelude per net, scanned each
   dominance pair once and skipped repeated extension sets; those
   changes must not move a single bit of the results, at any jobs
   count (the suite runs under TKA_JOBS=1 and TKA_JOBS=4). The i6
   digests (143 primary outputs, where i1-i4 have at most 58) were
   recorded before sink selection became linear in the output count,
   the co-scans started at the dominance interval and the objectives
   stopped building their combined waveforms. *)

module B = Tka_layout.Benchmarks
module Topo = Tka_circuit.Topo
module Engine = Tka_topk.Engine
module Ilist = Tka_topk.Ilist
module CS = Tka_topk.Coupling_set
module Filter_mode = Tka_filter.Mode

let golden =
  [
    ("i1", "add", "none", "3adcd2282379d5606c84a124266b3692");
    ("i1", "add", "window", "a01724503eb27d9f3fdea8cd93681152");
    ("i1", "elim", "none", "bd2aa9b0313d33f518696aefa94ec563");
    ("i1", "elim", "window", "85bef888593d9b81e681d828311ed873");
    ("i2", "add", "none", "9a039fe79c8b421c98cc7498ea8eba79");
    ("i2", "add", "window", "0218f87ecb99218950d32518f96d07ab");
    ("i2", "elim", "none", "a4e16ea4b610965498058672fc2ef897");
    ("i2", "elim", "window", "39cafa4b7fe3f47f0619c8f2ebeef48d");
    ("i3", "add", "none", "cbef2a30fcbbadf18796d1924a2b9bdd");
    ("i3", "add", "window", "13be94a6d4052f140a62078bdfe2b633");
    ("i3", "elim", "none", "b64ce53206388ab53bb5e14a605c0454");
    ("i3", "elim", "window", "3e928c4d360dc1ef672e61d023615712");
    ("i4", "add", "none", "99398469119dd921a2dc2f59efe02172");
    ("i4", "add", "window", "701e663f868c26456e5ae3418e014bb7");
    ("i4", "elim", "none", "f0502945a034b87f9130efcb92b006a2");
    ("i4", "elim", "window", "3dc76326a20821704404790780936d49");
    ("i6", "add", "none", "b775cb47750664d29b68c4017bb7b1cc");
    ("i6", "add", "window", "cd60aad230100bd6b9a9d367413cd67e");
    ("i6", "elim", "none", "4155f1665604cef73fe4be4944fdfa43");
    ("i6", "elim", "window", "e81df3b9ea60e6f3d61c961e090ca015");
  ]

let choice_text (c : Engine.choice) =
  Printf.sprintf "%s:%h@%d"
    (String.concat "," (List.map string_of_int (CS.to_list c.Engine.ch_set)))
    c.Engine.ch_objective c.Engine.ch_sink

let result_text (r : Engine.result) =
  let b = Buffer.create 4096 in
  Array.iteri
    (fun i c ->
      Printf.bprintf b "k%d %s\n" i
        (match c with None -> "-" | Some c -> choice_text c))
    r.Engine.res_per_k;
  Array.iteri
    (fun i l ->
      Printf.bprintf b "top%d %s\n" i (String.concat " " (List.map choice_text l)))
    r.Engine.res_top;
  let s = r.Engine.res_stats in
  Printf.bprintf b "stats %d %d %d %d %d\n" s.Ilist.candidates s.Ilist.dominated
    s.Ilist.duplicates s.Ilist.capped s.Ilist.checks;
  Buffer.contents b

let mode_of = function
  | "add" -> Engine.Addition
  | "elim" -> Engine.Elimination
  | m -> invalid_arg m

let test_circuit name () =
  let topo = Topo.create (Option.get (B.by_name name)) in
  let fixpoint = Tka_noise.Iterate.run topo in
  List.iter
    (fun (c, mode, filter, digest) ->
      if c = name then begin
        let config =
          {
            (Engine.default_config ~k:5) with
            Engine.filter = Option.get (Filter_mode.of_string filter);
          }
        in
        let r = Engine.compute ~config ~fixpoint ~mode:(mode_of mode) topo in
        Alcotest.(check string)
          (Printf.sprintf "%s %s %s" name mode filter)
          digest
          (Digest.to_hex (Digest.string (result_text r)))
      end)
    golden

let () =
  Alcotest.run "tka_engine"
    [
      ( "golden",
        List.map
          (fun name -> Alcotest.test_case name `Quick (test_circuit name))
          [ "i1"; "i2"; "i3"; "i4"; "i6" ] );
    ]
