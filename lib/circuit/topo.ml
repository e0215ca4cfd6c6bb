module N = Netlist

type t = {
  nl : N.t;
  gate_order : N.gate_id array;
  net_order : N.net_id array;
  levels : int array; (* per net *)
  max_level : int;
  level_nets : N.net_id array array; (* per level, in net_order order *)
  fanin_memo : (N.net_id, bool array) Hashtbl.t;
  mutable shard_memo : N.net_id array array option;
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
  {
    nl;
    gate_order;
    net_order;
    levels;
    max_level;
    level_nets;
    fanin_memo = Hashtbl.create 64;
    shard_memo = None;
  }

let netlist t = t.nl
let gate_order t = t.gate_order
let net_order t = t.net_order
let net_level t nid = t.levels.(nid)
let max_level t = t.max_level
let level_nets t = t.level_nets

(* Connected components of the net graph whose edges are gate fanin
   (every input net of a gate — its fanout net) and coupling caps
   (net_a — net_b). The engine's per-victim enumeration only ever
   consults nets reachable over these two edge kinds (driver fanin for
   pseudo aggressors, couplings for primaries and higher-order), so
   each component is closed under consultation and can be swept as an
   independent job. Shards are ordered by their first net in
   {!net_order}; within a shard nets keep {!net_order} order, which is
   level-monotone — so a shard processed sequentially publishes every
   summary before it is read. *)
let cone_shards t =
  match t.shard_memo with
  | Some s -> s
  | None ->
    let nl = t.nl in
    let nn = N.num_nets nl in
    let parent = Array.init nn (fun i -> i) in
    let rec find i =
      if parent.(i) = i then i
      else begin
        let r = find parent.(i) in
        parent.(i) <- r;
        r
      end
    in
    let union a b =
      let ra = find a and rb = find b in
      if ra <> rb then if ra < rb then parent.(rb) <- ra else parent.(ra) <- rb
    in
    Array.iter
      (fun g -> List.iter (fun (_, u) -> union u g.N.fanout) g.N.fanin)
      (N.gates nl);
    Array.iter (fun c -> union c.N.net_a c.N.net_b) (N.couplings nl);
    let shard_of_root = Array.make nn (-1) in
    let count = ref 0 in
    Array.iter
      (fun v ->
        let r = find v in
        if shard_of_root.(r) < 0 then begin
          shard_of_root.(r) <- !count;
          incr count
        end)
      t.net_order;
    let sizes = Array.make !count 0 in
    Array.iter
      (fun v ->
        let s = shard_of_root.(find v) in
        sizes.(s) <- sizes.(s) + 1)
      t.net_order;
    let shards = Array.map (fun c -> Array.make c 0) sizes in
    let fill = Array.make !count 0 in
    Array.iter
      (fun v ->
        let s = shard_of_root.(find v) in
        shards.(s).(fill.(s)) <- v;
        fill.(s) <- fill.(s) + 1)
      t.net_order;
    t.shard_memo <- Some shards;
    shards

let transitive_fanin t nid =
  match Hashtbl.find_opt t.fanin_memo nid with
  | Some m -> m
  | None ->
    let mark = Array.make (N.num_nets t.nl) false in
    let rec go id =
      if not mark.(id) then begin
        mark.(id) <- true;
        List.iter go (N.fanin_nets t.nl id)
      end
    in
    go nid;
    Hashtbl.replace t.fanin_memo nid mark;
    mark

let in_fanin_cone t ~cone_of m = (transitive_fanin t cone_of).(m)

let fanin_cone_couplings t nid =
  let cone = transitive_fanin t nid in
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
