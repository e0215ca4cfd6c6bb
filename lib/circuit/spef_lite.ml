module N = Netlist
module Log = Tka_obs.Log
module Scan = Tka_util.Scan

let log_src = Log.Src.create "spef" ~doc:"SPEF-lite parasitics parser"
let m_nets = Tka_obs.Metrics.Counter.make "spef.nets_annotated"
let m_couplings = Tka_obs.Metrics.Counter.make "spef.couplings_parsed"
let m_lines = Tka_obs.Metrics.Counter.make "spef.lines_parsed"

let fail line fmt = Scan.fail ~source:"spef" line fmt

type annotation = {
  design : string option;
  ground : (string * float * float) list;
  couplings : (string * string * float) list;
}

let strip_comment s =
  match String.index_opt s '/' with
  | Some i when i + 1 < String.length s && s.[i + 1] = '/' -> String.sub s 0 i
  | Some _ | None -> s

let parse_float = Scan.float ~source:"spef"

type state = {
  mutable design : string option;
  mutable current : (string * float * int) option;
      (* net under *D_NET, declared total, opening line *)
  mutable in_cap : bool;
  mutable res : (string * float) list;
  mutable gcap : (string, float) Hashtbl.t;
  mutable ccap : (string * string, float) Hashtbl.t;
}

let coupling_key a b = if String.compare a b <= 0 then (a, b) else (b, a)

let parse src =
  Tka_obs.Trace.with_span ~cat:"parse" "spef.parse" @@ fun () ->
  let st =
    {
      design = None;
      current = None;
      in_cap = false;
      res = [];
      gcap = Hashtbl.create 64;
      ccap = Hashtbl.create 64;
    }
  in
  let handle line_no raw =
    match Scan.words (strip_comment raw) with
    | [] -> ()
    | "*SPEF" :: _ | "*T_UNIT" :: _ | "*C_UNIT" :: _ | "*R_UNIT" :: _ -> ()
    | [ "*DESIGN"; name ] -> st.design <- Some name
    | "*D_NET" :: net :: rest ->
      if st.current <> None then fail line_no "*D_NET without closing *END";
      let total =
        match rest with
        | [] -> 0.
        | [ v ] -> parse_float line_no "*D_NET total" v
        | _ -> fail line_no "usage: *D_NET NET [TOTAL]"
      in
      st.current <- Some (net, total, line_no);
      st.in_cap <- false
    | [ "*RES"; v ] -> (
      match st.current with
      | None -> fail line_no "*RES outside *D_NET"
      | Some (net, _, _) ->
        st.in_cap <- false;
        st.res <- (net, parse_float line_no "*RES" v) :: st.res)
    | [ "*CAP" ] ->
      if st.current = None then fail line_no "*CAP outside *D_NET";
      st.in_cap <- true
    | [ "*END" ] -> (
      match st.current with
      | None -> fail line_no "*END without *D_NET"
      | Some _ ->
        st.current <- None;
        st.in_cap <- false)
    | words when st.in_cap -> (
      match (st.current, words) with
      | Some (dnet, _, _), [ _idx; net; v ] ->
        (* ambiguous two-name vs ground form: ground entries name the
           D_NET's own net *)
        if net = dnet then
          Hashtbl.replace st.gcap net
            (Option.value ~default:0. (Hashtbl.find_opt st.gcap net)
            +. parse_float line_no "ground cap" v)
        else
          fail line_no "ground cap entry for foreign net %S inside *D_NET %s" net dnet
      | Some _, [ _idx; neta; netb; v ] ->
        let cap = parse_float line_no "coupling cap" v in
        let key = coupling_key neta netb in
        (* keep the larger of duplicated listings; [print] lists every
           capacitor under both of its nets, so only a differing value
           is worth a warning *)
        (match Hashtbl.find_opt st.ccap key with
        | Some prev when prev = cap -> ()
        | Some prev ->
          Log.warn log_src (fun m ->
              m
                ~fields:
                  [
                    Log.int "line" line_no;
                    Log.str "net_a" (fst key);
                    Log.str "net_b" (snd key);
                    Log.float "kept_pf" (Float.max prev cap);
                  ]
                "line %d: coupling %s/%s listed twice, keeping the larger value"
                line_no (fst key) (snd key));
          Hashtbl.replace st.ccap key (Float.max prev cap)
        | None -> Hashtbl.replace st.ccap key cap)
      | _, _ -> fail line_no "malformed *CAP entry")
    | w :: _ -> fail line_no "unexpected token %S" w
  in
  let lines = String.split_on_char '\n' src in
  List.iteri (fun i l -> handle (i + 1) l) lines;
  (match st.current with
  | Some (net, _, opened) -> fail opened "unterminated *D_NET %s" net
  | None -> ());
  let res_of net = Option.value ~default:0. (List.assoc_opt net st.res) in
  let ground =
    Hashtbl.fold (fun net cap acc -> (net, cap, res_of net) :: acc) st.gcap []
    |> List.sort compare
  in
  let couplings =
    Hashtbl.fold (fun (a, b) cap acc -> (a, b, cap) :: acc) st.ccap []
    |> List.sort compare
  in
  Tka_obs.Metrics.Counter.add m_lines (List.length lines);
  Tka_obs.Metrics.Counter.add m_nets (List.length ground);
  Tka_obs.Metrics.Counter.add m_couplings (List.length couplings);
  Log.info log_src (fun m ->
      m
        ~fields:
          [
            Log.int "nets" (List.length ground);
            Log.int "couplings" (List.length couplings);
            Log.int "lines" (List.length lines);
          ]
        "parsed %d annotated nets, %d couplings" (List.length ground)
        (List.length couplings));
  { design = st.design; ground; couplings }

let parse_file path = parse (Scan.read_file path)

let apply (ann : annotation) nl =
  let b = Builder.create ~name:(Option.value ~default:(N.name nl) ann.design) () in
  let ids = Hashtbl.create (N.num_nets nl) in
  let parasitics = Hashtbl.create (List.length ann.ground) in
  List.iter
    (fun (net, cap, res) -> Hashtbl.replace parasitics net (cap, res))
    ann.ground;
  Array.iter
    (fun n ->
      let name = n.N.net_name in
      let cap, res =
        match Hashtbl.find_opt parasitics name with
        | Some (c, r) -> (c, r)
        | None -> (n.N.wire_cap, n.N.wire_res)
      in
      let id =
        match n.N.driver with
        | N.Primary_input -> Builder.add_input b ~wire_cap:cap ~wire_res:res name
        | N.Driven_by _ -> Builder.add_net b ~wire_cap:cap ~wire_res:res name
      in
      Hashtbl.replace ids name id)
    (N.nets nl);
  let resolve name =
    match Hashtbl.find_opt ids name with
    | Some id -> id
    | None -> N.link_error "spef" "unknown net %S" name
  in
  Array.iter
    (fun g ->
      ignore
        (Builder.add_gate b ~name:g.N.gate_name ~cell:g.N.cell
           ~inputs:
             (List.map (fun (p, id) -> (p, resolve (N.net nl id).N.net_name)) g.N.fanin)
           ~output:(resolve (N.net nl g.N.fanout).N.net_name)))
    (N.gates nl);
  List.iter (fun id -> Builder.mark_output b (resolve (N.net nl id).N.net_name)) (N.outputs nl);
  List.iter
    (fun (a, bb, cap) -> ignore (Builder.add_coupling b (resolve a) (resolve bb) cap))
    ann.couplings;
  Builder.finalize b

let print nl =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "*SPEF \"IEEE 1481-lite\"\n";
  Buffer.add_string buf (Printf.sprintf "*DESIGN %s\n" (N.name nl));
  Buffer.add_string buf "*T_UNIT 1 NS\n*C_UNIT 1 PF\n*R_UNIT 1 KOHM\n\n";
  Array.iter
    (fun n ->
      let nid = n.N.net_id in
      let couplings = N.couplings_of_net nl nid in
      Buffer.add_string buf
        (Printf.sprintf "*D_NET %s %.6g\n" n.N.net_name (N.total_cap nl nid));
      Buffer.add_string buf (Printf.sprintf "*RES %.6g\n" n.N.wire_res);
      Buffer.add_string buf "*CAP\n";
      Buffer.add_string buf (Printf.sprintf "1 %s %.6g\n" n.N.net_name n.N.wire_cap);
      List.iteri
        (fun i cid ->
          let c = N.coupling nl cid in
          let other = N.coupling_partner nl cid nid in
          Buffer.add_string buf
            (Printf.sprintf "%d %s %s %.6g\n" (i + 2) n.N.net_name
               (N.net nl other).N.net_name c.N.coupling_cap))
        couplings;
      Buffer.add_string buf "*END\n\n")
    (N.nets nl);
  Buffer.contents buf
