module N = Netlist

type t = {
  nl : N.t;
  gate_order : N.gate_id array;
  net_order : N.net_id array;
  levels : int array; (* per net *)
  max_level : int;
  level_nets : N.net_id array array; (* per level, in net_order order *)
}

let compute_gate_order nl =
  let ng = N.num_gates nl in
  let indeg = Array.make ng 0 in
  let succs = Array.make ng [] in
  Array.iter
    (fun g ->
      let out = N.net nl g.N.fanout in
      List.iter
        (fun s ->
          succs.(g.N.gate_id) <- s.N.sink_gate :: succs.(g.N.gate_id);
          indeg.(s.N.sink_gate) <- indeg.(s.N.sink_gate) + 1)
        out.N.sinks)
    (N.gates nl);
  let queue = Queue.create () in
  Array.iteri (fun i d -> if d = 0 then Queue.add i queue) indeg;
  let order = Array.make ng 0 in
  let k = ref 0 in
  while not (Queue.is_empty queue) do
    let g = Queue.pop queue in
    order.(!k) <- g;
    incr k;
    List.iter
      (fun s ->
        indeg.(s) <- indeg.(s) - 1;
        if indeg.(s) = 0 then Queue.add s queue)
      succs.(g)
  done;
  assert (!k = ng);
  order

let create nl =
  let gate_order = compute_gate_order nl in
  let nn = N.num_nets nl in
  let net_order = Array.make nn 0 in
  let k = ref 0 in
  List.iter
    (fun nid ->
      net_order.(!k) <- nid;
      incr k)
    (N.inputs nl);
  Array.iter
    (fun gid ->
      net_order.(!k) <- (N.gate nl gid).N.fanout;
      incr k)
    gate_order;
  assert (!k = nn);
  let levels = Array.make nn 0 in
  Array.iter
    (fun nid ->
      match (N.net nl nid).N.driver with
      | N.Primary_input -> levels.(nid) <- 0
      | N.Driven_by g ->
        let lv =
          List.fold_left
            (fun acc (_, fid) -> max acc levels.(fid))
            0
            (N.gate nl g).N.fanin
        in
        levels.(nid) <- lv + 1)
    net_order;
  let max_level = Array.fold_left max 0 levels in
  (* nets grouped by level, each group in net_order order: the unit of
     the engine's level-synchronous parallel sweep *)
  let counts = Array.make (max_level + 1) 0 in
  Array.iter (fun nid -> counts.(levels.(nid)) <- counts.(levels.(nid)) + 1) net_order;
  let level_nets = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make (max_level + 1) 0 in
  Array.iter
    (fun nid ->
      let lv = levels.(nid) in
      level_nets.(lv).(fill.(lv)) <- nid;
      fill.(lv) <- fill.(lv) + 1)
    net_order;
  { nl; gate_order; net_order; levels; max_level; level_nets }

let netlist t = t.nl
let gate_order t = t.gate_order
let net_order t = t.net_order
let net_level t nid = t.levels.(nid)
let max_level t = t.max_level
let level_nets t = t.level_nets

let fanin_cone_couplings t nid =
  (* [true] at every net in the fanin cone of [nid], [nid] included *)
  let cone = Array.make (N.num_nets t.nl) false in
  let rec mark id =
    if not cone.(id) then begin
      cone.(id) <- true;
      List.iter mark (N.fanin_nets t.nl id)
    end
  in
  mark nid;
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iteri
    (fun m inside ->
      if inside && m <> nid then
        List.iter
          (fun cid ->
            if not (Hashtbl.mem seen cid) then begin
              Hashtbl.replace seen cid ();
              out := cid :: !out
            end)
          (N.couplings_of_net t.nl m))
    cone;
  (* exclude couplings that touch the root net itself *)
  List.filter
    (fun cid ->
      let c = N.coupling t.nl cid in
      c.N.net_a <> nid && c.N.net_b <> nid)
    (List.rev !out)

let sinks_reachable_from t nid =
  let nl = t.nl in
  let mark = Array.make (N.num_nets nl) false in
  let out = ref [] in
  let rec go id =
    if not mark.(id) then begin
      mark.(id) <- true;
      if (N.net nl id).N.is_output then out := id :: !out;
      List.iter go (N.fanout_nets nl id)
    end
  in
  go nid;
  List.rev !out
