module J = Tka_obs.Jsonx
module Edit = Tka_incr.Edit

type t = {
  rp_invariant : string;
  rp_seed : int;
  rp_trial : int;
  rp_detail : string;
  rp_k : int option;
  rp_netlist : string option;
  rp_set : int list option;
  rp_edits : Edit.t list option;
  rp_input : string option;
}

let opt f = function None -> J.Null | Some x -> f x

let to_json r =
  J.Obj
    [
      ("invariant", J.Str r.rp_invariant);
      ("seed", J.Int r.rp_seed);
      ("trial", J.Int r.rp_trial);
      ("detail", J.Str r.rp_detail);
      ("k", opt (fun k -> J.Int k) r.rp_k);
      ("netlist", opt (fun s -> J.Str s) r.rp_netlist);
      ("set", opt (fun s -> J.List (List.map (fun d -> J.Int d) s)) r.rp_set);
      ("edits", opt (fun es -> J.List (List.map Edit.to_json es)) r.rp_edits);
      ("input", opt (fun s -> J.Str s) r.rp_input);
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let req_str key =
    match J.member key j with
    | Some (J.Str s) -> Ok s
    | _ -> Error (Printf.sprintf "reproducer: missing string field %S" key)
  in
  let req_int key =
    match J.member key j with
    | Some (J.Int i) -> Ok i
    | _ -> Error (Printf.sprintf "reproducer: missing int field %S" key)
  in
  let* rp_invariant = req_str "invariant" in
  let* rp_seed = req_int "seed" in
  let* rp_trial = req_int "trial" in
  let* rp_detail = req_str "detail" in
  let rp_k = match J.member "k" j with Some (J.Int k) -> Some k | _ -> None in
  let rp_netlist =
    match J.member "netlist" j with Some (J.Str s) -> Some s | _ -> None
  in
  let rp_input =
    match J.member "input" j with Some (J.Str s) -> Some s | _ -> None
  in
  let* rp_set =
    match J.member "set" j with
    | Some (J.List items) ->
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          match item with
          | J.Int d -> Ok (d :: acc)
          | _ -> Error "reproducer: non-integer directed id in \"set\"")
        (Ok []) items
      |> Result.map List.rev
      |> Result.map Option.some
    | _ -> Ok None
  in
  let* rp_edits =
    match J.member "edits" j with
    | Some (J.List items) ->
      Edit.list_of_json ~lookup:Tka_cell.Default_lib.find items
      |> Result.map_error (( ^ ) "reproducer: ")
      |> Result.map Option.some
    | _ -> Ok None
  in
  Ok
    {
      rp_invariant;
      rp_seed;
      rp_trial;
      rp_detail;
      rp_k;
      rp_netlist;
      rp_set;
      rp_edits;
      rp_input;
    }

let save path rs =
  let oc = open_out path in
  List.iter (fun r -> output_string oc (J.to_string (to_json r) ^ "\n")) rs;
  close_out oc

let load path =
  let ( let* ) = Result.bind in
  let at lineno = Result.map_error (Printf.sprintf "%s:%d: %s" path lineno) in
  List.fold_left
    (fun acc (lineno, j) ->
      let* acc = acc in
      let* j = at lineno j in
      let* r = at lineno (of_json j) in
      Ok (r :: acc))
    (Ok []) (J.read_ndjson path)
  |> Result.map List.rev
