module N = Tka_circuit.Netlist

type t =
  | Remove_coupling of N.coupling_id
  | Scale_coupling of { coupling : N.coupling_id; factor : float }
  | Resize_driver of { gate : N.gate_id; cell : Tka_cell.Cell.t }
  | Strengthen_driver of { gate : N.gate_id; factor : float }

(* A strengthened gate is the same cell with [factor]-times wider
   transistors: output resistances shrink by [1/factor], input pin
   capacitances grow by [factor] (the upstream stage sees a heavier
   load), intrinsic terms unchanged. *)
let strengthen_cell ~factor (cell : Tka_cell.Cell.t) =
  let open Tka_cell in
  Cell.make
    ~name:(Printf.sprintf "%s@x%g" cell.Cell.name factor)
    ~inputs:
      (List.map
         (fun p ->
           Cell.input_pin ~name:p.Cell.pin_name
             ~capacitance:(factor *. p.Cell.capacitance))
         cell.Cell.inputs)
    ~output:(Cell.output_pin ~name:cell.Cell.output.Cell.pin_name)
    ~logic:cell.Cell.logic ~intrinsic_delay:cell.Cell.intrinsic_delay
    ~drive_resistance:(cell.Cell.drive_resistance /. factor)
    ~intrinsic_slew:cell.Cell.intrinsic_slew
    ~slew_resistance:(cell.Cell.slew_resistance /. factor)

(* The factor rules, shared by the wire format and [check]. *)
let scale_ok f = f >= 0. && f <= 1.
let strengthen_ok f = Float.is_finite f && f > 0.

let check nl edits =
  let ( let* ) = Result.bind in
  let nc = N.num_couplings nl and ng = N.num_gates nl in
  let in_range what i n =
    if i >= 0 && i < n then Ok ()
    else Error (Printf.sprintf "%s %d out of range (design has %d)" what i n)
  in
  let factor ok what f =
    if ok f then Ok () else Error (Printf.sprintf "%s factor %g out of range" what f)
  in
  List.fold_left
    (fun acc e ->
      let* () = acc in
      match e with
      | Remove_coupling c -> in_range "coupling" c nc
      | Scale_coupling { coupling = c; factor = f } ->
        let* () = in_range "coupling" c nc in
        factor scale_ok "scale_coupling" f
      | Resize_driver { gate = g; _ } -> in_range "gate" g ng
      | Strengthen_driver { gate = g; factor = f } ->
        let* () = in_range "gate" g ng in
        factor strengthen_ok "strengthen_driver" f)
    (Ok ()) edits

let validate nl edits =
  match check nl edits with Ok () -> () | Error m -> invalid_arg ("Edit.apply: " ^ m)

let apply nl edits =
  validate nl edits;
  let nc = N.num_couplings nl in
  (* compose the script into per-coupling final caps and per-gate cells *)
  let factor = Array.make nc 1. in
  let removed = Array.make nc false in
  let cells : (N.gate_id, Tka_cell.Cell.t) Hashtbl.t = Hashtbl.create 4 in
  let strengthen : (N.gate_id, float) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (function
      | Remove_coupling c -> removed.(c) <- true
      | Scale_coupling { coupling = c; factor = f } ->
        factor.(c) <- factor.(c) *. f
      | Resize_driver { gate; cell } -> Hashtbl.replace cells gate cell
      | Strengthen_driver { gate; factor = f } ->
        let f0 =
          match Hashtbl.find_opt strengthen gate with Some f0 -> f0 | None -> 1.
        in
        Hashtbl.replace strengthen gate (f0 *. f))
    edits;
  let final_cap (c : N.coupling) =
    if removed.(c.N.coupling_id) then 0.
    else factor.(c.N.coupling_id) *. c.N.coupling_cap
  in
  let nl' =
    Tka_circuit.Transform.map
      ~name:(N.name nl ^ "_eco")
      ?cell_of:
        (if Hashtbl.length cells = 0 && Hashtbl.length strengthen = 0 then None
         else
           Some
             (fun (g : N.gate) ->
               (* a resize replaces the base cell; strengthen factors
                  compose multiplicatively on top of the final base *)
               let base =
                 match Hashtbl.find_opt cells g.N.gate_id with
                 | Some c -> c
                 | None -> g.N.cell
               in
               match Hashtbl.find_opt strengthen g.N.gate_id with
               | Some f -> strengthen_cell ~factor:f base
               | None -> base))
      ~keep_coupling:(fun c -> final_cap c > 0.)
      ~coupling_cap_of:final_cap nl
  in
  (* Transform.map keeps surviving couplings in old-id order, so the
     compacted new ids are the survivors' ranks. *)
  let remap = Array.make nc None in
  let next = ref 0 in
  Array.iter
    (fun (c : N.coupling) ->
      if final_cap c > 0. then begin
        remap.(c.N.coupling_id) <- Some !next;
        incr next
      end)
    (N.couplings nl);
  assert (!next = N.num_couplings nl');
  (nl', fun c -> if c < 0 || c >= nc then None else remap.(c))

let touched_nets nl edits =
  let seen = Hashtbl.create 8 in
  let out = ref [] in
  let add n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.replace seen n ();
      out := n :: !out
    end
  in
  validate nl edits;
  List.iter
    (function
      | Remove_coupling c | Scale_coupling { coupling = c; _ } ->
        let cp = N.coupling nl c in
        add cp.N.net_a;
        add cp.N.net_b
      | Resize_driver { gate; _ } | Strengthen_driver { gate; _ } ->
        let g = N.gate nl gate in
        add g.N.fanout;
        (* the new cell's input pin caps change the fanin nets' loads *)
        List.iter (fun (_, u) -> add u) g.N.fanin)
    edits;
  List.rev !out

module J = Tka_obs.Jsonx

let to_json = function
  | Remove_coupling c ->
    J.Obj [ ("op", J.Str "remove_coupling"); ("coupling", J.Int c) ]
  | Scale_coupling { coupling; factor } ->
    J.Obj
      [
        ("op", J.Str "scale_coupling");
        ("coupling", J.Int coupling);
        ("factor", J.Float factor);
      ]
  | Resize_driver { gate; cell } ->
    J.Obj
      [
        ("op", J.Str "resize_driver");
        ("gate", J.Int gate);
        ("cell", J.Str cell.Tka_cell.Cell.name);
      ]
  | Strengthen_driver { gate; factor } ->
    J.Obj
      [
        ("op", J.Str "strengthen_driver");
        ("gate", J.Int gate);
        ("factor", J.Float factor);
      ]

let of_json ~lookup j =
  let int key = match J.member key j with Some (J.Int i) -> Some i | _ -> None in
  let num key =
    match J.member key j with
    | Some (J.Float f) -> Some f
    | Some (J.Int i) -> Some (float_of_int i)
    | _ -> None
  in
  let str key = match J.member key j with Some (J.Str s) -> Some s | _ -> None in
  match J.member "op" j with
  | Some (J.Str "remove_coupling") -> (
    match int "coupling" with
    | Some c -> Ok (Remove_coupling c)
    | None -> Error "remove_coupling needs an integer \"coupling\"")
  | Some (J.Str "scale_coupling") -> (
    match (int "coupling", num "factor") with
    | Some c, Some f when scale_ok f -> Ok (Scale_coupling { coupling = c; factor = f })
    | _ -> Error "scale_coupling needs an integer \"coupling\" and a \"factor\" in [0,1]")
  | Some (J.Str "resize_driver") -> (
    match (int "gate", str "cell") with
    | Some g, Some name -> (
      match lookup name with
      | Some cell -> Ok (Resize_driver { gate = g; cell })
      | None -> Error (Printf.sprintf "unknown cell %S" name))
    | _ -> Error "resize_driver needs an integer \"gate\" and a string \"cell\"")
  | Some (J.Str "strengthen_driver") -> (
    match (int "gate", num "factor") with
    | Some g, Some f when strengthen_ok f -> Ok (Strengthen_driver { gate = g; factor = f })
    | _ -> Error "strengthen_driver needs an integer \"gate\" and a positive \"factor\"")
  | Some (J.Str op) -> Error (Printf.sprintf "unknown edit op %S" op)
  | Some _ -> Error "\"op\" must be a string"
  | None -> Error "missing \"op\""

let list_of_json ~lookup items =
  List.fold_left
    (fun acc item ->
      Result.bind acc (fun es -> Result.map (fun e -> e :: es) (of_json ~lookup item)))
    (Ok []) items
  |> Result.map List.rev

let pp ppf = function
  | Remove_coupling c -> Format.fprintf ppf "remove-coupling %d" c
  | Scale_coupling { coupling; factor } ->
    Format.fprintf ppf "scale-coupling %d by %g" coupling factor
  | Resize_driver { gate; cell } ->
    Format.fprintf ppf "resize-driver %d to %s" gate cell.Tka_cell.Cell.name
  | Strengthen_driver { gate; factor } ->
    Format.fprintf ppf "strengthen-driver %d by %g" gate factor
