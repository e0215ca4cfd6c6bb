module N = Netlist
module Scan = Tka_util.Scan

let fail line fmt = Scan.fail ~source:"netlist" line fmt

let strip_comment s =
  match String.index_opt s '#' with
  | Some i -> String.sub s 0 i
  | None -> s

(* "key=value" -> (key, value) *)
let parse_binding line w =
  match String.index_opt w '=' with
  | Some i ->
    (String.sub w 0 i, String.sub w (i + 1) (String.length w - i - 1))
  | None -> fail line "expected key=value, got %S" w

let parse_float = Scan.float ~source:"netlist"

(* optional cap=/res= bindings for net declarations *)
let parse_parasitics line words =
  List.fold_left
    (fun (cap, res) w ->
      match parse_binding line w with
      | "cap", v -> (Some (parse_float line "cap" v), res)
      | "res", v -> (cap, Some (parse_float line "res" v))
      | k, _ -> fail line "unknown net attribute %S" k)
    (None, None) words

let parse ~lookup src =
  let b = ref (Builder.create ()) in
  let have_circuit = ref false in
  let names = Hashtbl.create 64 in
  let resolve line name =
    match Hashtbl.find_opt names name with
    | Some id -> id
    | None -> fail line "undeclared net %S" name
  in
  let wrap line f = try f () with Builder.Invalid m -> fail line "%s" m in
  let handle line_no line =
    match Scan.words (strip_comment line) with
    | [] -> ()
    | "circuit" :: rest -> (
      match rest with
      | [ name ] ->
        if !have_circuit then fail line_no "duplicate circuit line";
        if Builder.num_nets !b > 0 then
          fail line_no "circuit line must precede all declarations";
        have_circuit := true;
        b := Builder.create ~name ()
      | _ -> fail line_no "usage: circuit NAME")
    | "input" :: name :: attrs ->
      let cap, res = parse_parasitics line_no attrs in
      let id =
        wrap line_no (fun () -> Builder.add_input !b ?wire_cap:cap ?wire_res:res name)
      in
      Hashtbl.replace names name id
    | "net" :: name :: attrs ->
      let cap, res = parse_parasitics line_no attrs in
      let id =
        wrap line_no (fun () -> Builder.add_net !b ?wire_cap:cap ?wire_res:res name)
      in
      Hashtbl.replace names name id
    | "output" :: rest -> (
      match rest with
      | [ name ] ->
        wrap line_no (fun () -> Builder.mark_output !b (resolve line_no name))
      | _ -> fail line_no "usage: output NET")
    | "gate" :: name :: cellname :: bindings ->
      let cell =
        match lookup cellname with
        | Some c -> c
        | None -> fail line_no "unknown cell %S" cellname
      in
      let bound = List.map (parse_binding line_no) bindings in
      let out_pin = cell.Tka_cell.Cell.output.Tka_cell.Cell.pin_name in
      let output =
        match List.assoc_opt out_pin bound with
        | Some netname -> resolve line_no netname
        | None -> fail line_no "gate %S: missing output binding %s=" name out_pin
      in
      let inputs =
        List.filter (fun (p, _) -> p <> out_pin) bound
        |> List.map (fun (p, netname) -> (p, resolve line_no netname))
      in
      ignore
        (wrap line_no (fun () -> Builder.add_gate !b ~name ~cell ~inputs ~output))
    | "coupling" :: na :: nb :: attrs ->
      let cap =
        match attrs with
        | [ w ] -> (
          match parse_binding line_no w with
          | "cap", v -> parse_float line_no "cap" v
          | k, _ -> fail line_no "expected cap=, got %S" k)
        | [] | _ :: _ -> fail line_no "usage: coupling NET NET cap=VALUE"
      in
      ignore
        (wrap line_no (fun () ->
             Builder.add_coupling !b (resolve line_no na) (resolve line_no nb) cap))
    | kw :: _ -> fail line_no "unknown keyword %S" kw
  in
  List.iteri
    (fun i line -> handle (i + 1) line)
    (String.split_on_char '\n' src);
  try Builder.finalize !b with Builder.Invalid m -> fail 0 "%s" m

let parse_file ~lookup path = parse ~lookup (Scan.read_file path)

let print nl =
  let buf = Buffer.create 4096 in
  let net_name id = (N.net nl id).N.net_name in
  Buffer.add_string buf (Printf.sprintf "circuit %s\n" (N.name nl));
  Array.iter
    (fun n ->
      let kw = match n.N.driver with N.Primary_input -> "input" | N.Driven_by _ -> "net" in
      Buffer.add_string buf
        (Printf.sprintf "%s %s cap=%.6g res=%.6g\n" kw n.N.net_name n.N.wire_cap
           n.N.wire_res))
    (N.nets nl);
  Array.iter
    (fun g ->
      let bindings =
        List.map (fun (p, id) -> Printf.sprintf "%s=%s" p (net_name id)) g.N.fanin
        @ [
            Printf.sprintf "%s=%s"
              g.N.cell.Tka_cell.Cell.output.Tka_cell.Cell.pin_name
              (net_name g.N.fanout);
          ]
      in
      Buffer.add_string buf
        (Printf.sprintf "gate %s %s %s\n" g.N.gate_name g.N.cell.Tka_cell.Cell.name
           (String.concat " " bindings)))
    (N.gates nl);
  List.iter
    (fun id -> Buffer.add_string buf (Printf.sprintf "output %s\n" (net_name id)))
    (N.outputs nl);
  Array.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "coupling %s %s cap=%.6g\n" (net_name c.N.net_a)
           (net_name c.N.net_b) c.N.coupling_cap))
    (N.couplings nl);
  Buffer.contents buf

let write_file nl path =
  let oc = open_out path in
  output_string oc (print nl);
  close_out oc
