module N = Netlist
module Log = Tka_obs.Log
module Scan = Tka_util.Scan

let log_src = Log.Src.create "verilog" ~doc:"Verilog-lite structural parser"
let m_modules = Tka_obs.Metrics.Counter.make "verilog.modules_parsed"
let m_gates = Tka_obs.Metrics.Counter.make "verilog.gates_instantiated"

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

type token =
  | Ident of string
  | Lparen
  | Rparen
  | Semi
  | Comma
  | Dot
  | Eof

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '$'

let lex_token c =
  Scan.skip_trivia c;
  let tok t = Scan.advance c; t in
  match Scan.peek c with
  | None -> Eof
  | Some '(' -> tok Lparen
  | Some ')' -> tok Rparen
  | Some ';' -> tok Semi
  | Some ',' -> tok Comma
  | Some '.' -> tok Dot
  | Some '[' -> Scan.error c "vectors are not supported by the Verilog-lite subset"
  | Some ch when is_ident_char ch -> Ident (Scan.take_while c is_ident_char)
  | Some ch -> Scan.error c "unexpected character %C" ch

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let error st fmt = Scan.error st.Scan.cur fmt
let expect_ident st what = Scan.take st (function Ident s -> Some s | _ -> None) what

let ident_list st =
  let rec go acc =
    let id = expect_ident st "identifier" in
    match st.Scan.tok with
    | Comma ->
      Scan.next st;
      go (id :: acc)
    | _ -> List.rev (id :: acc)
  in
  go []

(* ------------------------------------------------------------------ *)
(* Two-phase front end: syntactic module definitions, then
   elaboration with hierarchy flattening.                             *)
(* ------------------------------------------------------------------ *)

type vmodule = {
  vm_name : string;
  vm_line : int;
  vm_inputs : string list;
  vm_outputs : string list;
  vm_wires : string list;
  vm_instances : (string * string * (string * string) list) list;
      (* referenced name (cell or module), instance name, connections *)
}

let parse_modules src =
  let st = Scan.lexer ~source:"verilog" lex_token src in
  let parse_connections () =
    Scan.expect st Lparen "'('";
    let rec connections acc =
      Scan.expect st Dot "'.'";
      let pin = expect_ident st "pin name" in
      Scan.expect st Lparen "'('";
      let net = expect_ident st "net name" in
      Scan.expect st Rparen "')'";
      let acc = (pin, net) :: acc in
      match st.tok with
      | Comma ->
        Scan.next st;
        connections acc
      | _ -> List.rev acc
    in
    let conns = connections [] in
    Scan.expect st Rparen "')'";
    Scan.expect st Semi "';'";
    conns
  in
  let parse_module () =
    let vm_line = Scan.line st.cur in
    let name = expect_ident st "module name" in
    Scan.expect st Lparen "'('";
    let _ports = match st.tok with Rparen -> [] | _ -> ident_list st in
    Scan.expect st Rparen "')'";
    Scan.expect st Semi "';'";
    let inputs = ref [] and outputs = ref [] and wires = ref [] in
    let instances = ref [] in
    let rec items () =
      match st.tok with
      | Ident "endmodule" -> Scan.next st
      | Ident "input" ->
        Scan.next st;
        inputs := !inputs @ ident_list st;
        Scan.expect st Semi "';'";
        items ()
      | Ident "output" ->
        Scan.next st;
        outputs := !outputs @ ident_list st;
        Scan.expect st Semi "';'";
        items ()
      | Ident "wire" ->
        Scan.next st;
        wires := !wires @ ident_list st;
        Scan.expect st Semi "';'";
        items ()
      | Ident ("assign" | "always" | "initial" | "reg" | "parameter") ->
        error st "behavioural constructs are not supported by the Verilog-lite subset"
      | Ident refname ->
        Scan.next st;
        let inst = expect_ident st "instance name" in
        let conns = parse_connections () in
        instances := (refname, inst, conns) :: !instances;
        items ()
      | Eof -> error st "missing endmodule"
      | Lparen | Rparen | Semi | Comma | Dot ->
        error st "expected a declaration or instance"
    in
    items ();
    {
      vm_name = name;
      vm_line;
      vm_inputs = !inputs;
      vm_outputs = !outputs;
      vm_wires = !wires;
      vm_instances = List.rev !instances;
    }
  in
  let rec all acc =
    match st.tok with
    | Eof -> List.rev acc
    | Ident "module" ->
      Scan.next st;
      all (parse_module () :: acc)
    | _ -> error st "expected 'module'"
  in
  match all [] with
  | [] -> error st "no module found"
  | ms -> ms

(* Flattening: leaf instances are library cells; other instances refer
   to modules in the same source and are expanded recursively with
   "inst/" name prefixes. The top module is the one never instantiated
   (or the last module if all are instantiated). *)
let parse ~lookup src =
  Tka_obs.Trace.with_span ~cat:"parse" "verilog.parse" @@ fun () ->
  let ms = parse_modules src in
  Tka_obs.Metrics.Counter.add m_modules (List.length ms);
  let fail line fmt = Scan.fail ~source:"verilog" line fmt in
  let by_name = Hashtbl.create 8 in
  List.iter
    (fun m ->
      if Hashtbl.mem by_name m.vm_name then
        fail m.vm_line "module %S defined twice" m.vm_name;
      Hashtbl.replace by_name m.vm_name m)
    ms;
  let instantiated = Hashtbl.create 8 in
  List.iter
    (fun m ->
      List.iter
        (fun (r, _, _) ->
          if Hashtbl.mem by_name r then Hashtbl.replace instantiated r ())
        m.vm_instances)
    ms;
  let top =
    match List.filter (fun m -> not (Hashtbl.mem instantiated m.vm_name)) ms with
    | [ m ] -> m
    | [] ->
      let m = List.nth ms (List.length ms - 1) in
      Log.warn log_src (fun k ->
          k
            ~fields:[ Log.str "top" m.vm_name ]
            "every module is instantiated somewhere; elaborating %S as top"
            m.vm_name);
      m
    | m :: _ :: _ as roots ->
      Log.warn log_src (fun k ->
          k
            ~fields:
              [
                Log.str "top" m.vm_name;
                Log.int "roots" (List.length roots);
              ]
            "%d root modules; elaborating the first (%S) as top"
            (List.length roots) m.vm_name);
      m
  in
  let b = Builder.create ~name:top.vm_name () in
  let declared_outputs = ref [] in
  (* Elaborate module [m] under [prefix]; [port_map] maps the module's
     port names to already-created net ids in the parent. Returns
     nothing; nets and gates are added to the builder. *)
  let rec elaborate ~stack ~prefix ~port_map (m : vmodule) =
    if List.mem m.vm_name stack then
      fail m.vm_line "recursive instantiation of module %S" m.vm_name;
    let ids = Hashtbl.create 32 in
    let declare kind n =
      if Hashtbl.mem ids n then
        fail m.vm_line "net %S declared twice in %s" n m.vm_name;
      match List.assoc_opt n port_map with
      | Some parent_id -> Hashtbl.replace ids n parent_id
      | None ->
        let full = prefix ^ n in
        let id =
          try
            match kind with
            | `Input when prefix = "" -> Builder.add_input b full
            | `Input | `Output | `Wire -> Builder.add_net b full
          with Builder.Invalid msg -> fail m.vm_line "%s" msg
        in
        if kind = `Output && prefix = "" then
          declared_outputs := id :: !declared_outputs;
        Hashtbl.replace ids n id
    in
    (* a child input port left unconnected would have no driver: treat
       as an error when finalize reports it *)
    List.iter (declare `Input) m.vm_inputs;
    List.iter (declare `Output) m.vm_outputs;
    List.iter (declare `Wire) m.vm_wires;
    let resolve n =
      match Hashtbl.find_opt ids n with
      | Some id -> id
      | None -> fail m.vm_line "undeclared net %S in %s" n m.vm_name
    in
    List.iter
      (fun (refname, inst, conns) ->
        match (lookup refname, Hashtbl.find_opt by_name refname) with
        | Some cell, _ ->
          let out_pin = cell.Tka_cell.Cell.output.Tka_cell.Cell.pin_name in
          let output =
            match List.assoc_opt out_pin conns with
            | Some n -> resolve n
            | None ->
              fail m.vm_line "instance %S: output pin %s unconnected" inst out_pin
          in
          let inputs =
            List.filter (fun (p, _) -> p <> out_pin) conns
            |> List.map (fun (p, n) -> (p, resolve n))
          in
          (try ignore (Builder.add_gate b ~name:(prefix ^ inst) ~cell ~inputs ~output)
           with Builder.Invalid msg -> fail m.vm_line "%s" msg)
        | None, Some child ->
          let ports = child.vm_inputs @ child.vm_outputs in
          List.iter
            (fun (p, _) ->
              if not (List.mem p ports) then
                fail m.vm_line "instance %S: %S is not a port of module %s" inst p
                  child.vm_name)
            conns;
          let port_map =
            List.map (fun (p, n) -> (p, resolve n)) conns
          in
          elaborate ~stack:(m.vm_name :: stack)
            ~prefix:(prefix ^ inst ^ "/")
            ~port_map child
        | None, None ->
          fail m.vm_line "unknown cell or module %S" refname)
      m.vm_instances
  in
  elaborate ~stack:[] ~prefix:"" ~port_map:[] top;
  List.iter (Builder.mark_output b) !declared_outputs;
  let nl =
    try Builder.finalize b with Builder.Invalid msg -> fail top.vm_line "%s" msg
  in
  Tka_obs.Metrics.Counter.add m_gates (Array.length (N.gates nl));
  Log.info log_src (fun k ->
      k
        ~fields:
          [
            Log.str "top" top.vm_name;
            Log.int "modules" (List.length ms);
            Log.int "gates" (Array.length (N.gates nl));
            Log.int "nets" (N.num_nets nl);
          ]
        "elaborated %s: %d gates, %d nets" top.vm_name
        (Array.length (N.gates nl)) (N.num_nets nl));
  nl

let parse_file ~lookup path = parse ~lookup (Scan.read_file path)

let print nl =
  let buf = Buffer.create 4096 in
  let name id = (N.net nl id).N.net_name in
  let inputs = N.inputs nl in
  (* a sink-less primary input is an implicit output of the netlist
     model, but in Verilog it is just an input port *)
  let outputs =
    List.filter
      (fun id -> (N.net nl id).N.driver <> N.Primary_input)
      (N.outputs nl)
  in
  let ports = List.map name inputs @ List.map name outputs in
  Buffer.add_string buf
    (Printf.sprintf "module %s (%s);\n" (N.name nl) (String.concat ", " ports));
  if inputs <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  input %s;\n" (String.concat ", " (List.map name inputs)));
  if outputs <> [] then
    Buffer.add_string buf
      (Printf.sprintf "  output %s;\n" (String.concat ", " (List.map name outputs)));
  let wires =
    Array.to_list (N.nets nl)
    |> List.filter (fun n ->
           n.N.driver <> N.Primary_input && not n.N.is_output)
    |> List.map (fun n -> n.N.net_name)
  in
  if wires <> [] then
    Buffer.add_string buf (Printf.sprintf "  wire %s;\n" (String.concat ", " wires));
  Buffer.add_char buf '\n';
  Array.iter
    (fun g ->
      let conns =
        List.map (fun (p, id) -> Printf.sprintf ".%s(%s)" p (name id)) g.N.fanin
        @ [
            Printf.sprintf ".%s(%s)"
              g.N.cell.Tka_cell.Cell.output.Tka_cell.Cell.pin_name
              (name g.N.fanout);
          ]
      in
      Buffer.add_string buf
        (Printf.sprintf "  %s %s (%s);\n" g.N.cell.Tka_cell.Cell.name g.N.gate_name
           (String.concat ", " conns)))
    (N.gates nl);
  Buffer.add_string buf "endmodule\n";
  Buffer.contents buf

let write_file nl path =
  let oc = open_out path in
  output_string oc (print nl);
  close_out oc
