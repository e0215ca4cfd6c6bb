type net_id = int
type gate_id = int
type coupling_id = int

exception Link_error of { source : string; message : string }

let link_error source fmt =
  Printf.ksprintf (fun message -> raise (Link_error { source; message })) fmt

type driver = Primary_input | Driven_by of gate_id

type sink = { sink_gate : gate_id; sink_pin : string }

type net = {
  net_id : net_id;
  net_name : string;
  wire_cap : float;
  wire_res : float;
  driver : driver;
  sinks : sink list;
  is_output : bool;
}

type gate = {
  gate_id : gate_id;
  gate_name : string;
  cell : Tka_cell.Cell.t;
  fanin : (string * net_id) list;
  fanout : net_id;
}

type coupling = {
  coupling_id : coupling_id;
  net_a : net_id;
  net_b : net_id;
  coupling_cap : float;
}

type t = {
  circuit_name : string;
  net_arr : net array;
  gate_arr : gate array;
  coupling_arr : coupling array;
  input_ids : net_id list;
  output_ids : net_id list;
  net_index : (string, net_id) Hashtbl.t;
  gate_index : (string, gate_id) Hashtbl.t;
  couplings_by_net : coupling_id list array;
  total_caps : float array;
      (* [total_cap] per net, summed once here: the noise kernels read
         it for every pulse they build *)
}

let name t = t.circuit_name
let num_nets t = Array.length t.net_arr
let num_gates t = Array.length t.gate_arr
let num_couplings t = Array.length t.coupling_arr

let net t id = t.net_arr.(id)
let gate t id = t.gate_arr.(id)
let coupling t id = t.coupling_arr.(id)

let nets t = t.net_arr
let gates t = t.gate_arr
let couplings t = t.coupling_arr

let inputs t = t.input_ids
let outputs t = t.output_ids

let find_net t n =
  Option.map (fun id -> t.net_arr.(id)) (Hashtbl.find_opt t.net_index n)

let find_net_exn t n =
  match find_net t n with
  | Some x -> x
  | None -> raise Not_found

let find_gate t n =
  Option.map (fun id -> t.gate_arr.(id)) (Hashtbl.find_opt t.gate_index n)

let couplings_of_net t id = t.couplings_by_net.(id)

let coupling_partner t cid nid =
  let c = t.coupling_arr.(cid) in
  if c.net_a = nid then c.net_b
  else if c.net_b = nid then c.net_a
  else
    invalid_arg
      (Printf.sprintf "Netlist.coupling_partner: net %d not on coupling %d" nid cid)

let driver_gate t id =
  match (net t id).driver with
  | Primary_input -> None
  | Driven_by g -> Some (gate t g)

let fanin_nets t id =
  match driver_gate t id with
  | None -> []
  | Some g -> List.map snd g.fanin

let fanout_nets t id =
  List.map (fun s -> (gate t s.sink_gate).fanout) (net t id).sinks

let total_pin_cap t id =
  List.fold_left
    (fun acc s ->
      acc +. Tka_cell.Cell.input_capacitance (gate t s.sink_gate).cell s.sink_pin)
    0. (net t id).sinks

let ground_cap t id = (net t id).wire_cap +. total_pin_cap t id

let total_coupling_cap t id =
  List.fold_left
    (fun acc cid -> acc +. (coupling t cid).coupling_cap)
    0. (couplings_of_net t id)

let total_cap t id = t.total_caps.(id)

let unsafe_create ~name ~nets ~gates ~couplings ~inputs ~outputs =
  let net_index = Hashtbl.create (Array.length nets) in
  Array.iter (fun n -> Hashtbl.replace net_index n.net_name n.net_id) nets;
  let gate_index = Hashtbl.create (Array.length gates) in
  Array.iter (fun g -> Hashtbl.replace gate_index g.gate_name g.gate_id) gates;
  let couplings_by_net = Array.make (Array.length nets) [] in
  Array.iter
    (fun c ->
      couplings_by_net.(c.net_a) <- c.coupling_id :: couplings_by_net.(c.net_a);
      couplings_by_net.(c.net_b) <- c.coupling_id :: couplings_by_net.(c.net_b))
    couplings;
  Array.iteri (fun i l -> couplings_by_net.(i) <- List.rev l) couplings_by_net;
  let t =
    {
      circuit_name = name;
      net_arr = nets;
      gate_arr = gates;
      coupling_arr = couplings;
      input_ids = inputs;
      output_ids = outputs;
      net_index;
      gate_index;
      couplings_by_net;
      total_caps = [||];
    }
  in
  {
    t with
    total_caps =
      Array.init (Array.length nets) (fun id ->
          ground_cap t id +. total_coupling_cap t id);
  }
