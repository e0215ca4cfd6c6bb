module J = Tka_obs.Jsonx
module Clock = Tka_obs.Clock

type report = {
  lg_clients : int;
  lg_requests : int;
  lg_ok : int;
  lg_overloaded : int;
  lg_timeout : int;
  lg_errors : int;
  lg_analyze : int;
  lg_whatif : int;
  lg_eco : int;
  lg_elapsed_s : float;
  lg_qps : float;
  lg_mean_ms : float;
  lg_p50_ms : float;
  lg_p95_ms : float;
  lg_p99_ms : float;
  lg_max_ms : float;
  lg_cache_hits : int;
  lg_cache_misses : int;
  lg_cache_hit_rate : float;
}

(* splitmix64 finalizer: a counter-based PRNG, so the request schedule
   is a pure function of (client, request index) *)
let hash64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let pick_mod x m = Int64.to_int (Int64.unsigned_rem (hash64 x) (Int64.of_int m))

type verb = Analyze | Whatif | Eco

(* the 6:3:1 analyze/what-if/ECO mix *)
let pick_verb ~client ~i =
  let r = pick_mod (Int64.of_int ((client * 1_000_003) + i)) 10 in
  if r < 6 then Analyze else if r < 9 then Whatif else Eco

type worker = {
  mutable w_lat_ms : float list;
  mutable w_ok : int;
  mutable w_overloaded : int;
  mutable w_timeout : int;
  mutable w_errors : int;
  mutable w_analyze : int;
  mutable w_whatif : int;
  mutable w_eco : int;
  mutable w_hits : int;
  mutable w_misses : int;
}

let new_worker () =
  {
    w_lat_ms = [];
    w_ok = 0;
    w_overloaded = 0;
    w_timeout = 0;
    w_errors = 0;
    w_analyze = 0;
    w_whatif = 0;
    w_eco = 0;
    w_hits = 0;
    w_misses = 0;
  }

let int_member name j =
  match J.member name j with Some (J.Int i) -> i | _ -> 0

let record_cache w = function
  | Ok result ->
    w.w_hits <- w.w_hits + int_member "cache_hits" result + int_member "analysis_hits" result;
    w.w_misses <-
      w.w_misses + int_member "cache_misses" result + int_member "analysis_misses" result
  | Error _ -> ()

let request_params ~couplings ~client ~i = function
  | Analyze -> J.Obj []
  | Eco -> J.Obj [ ("fix_k", J.Int 1) ]
  | Whatif ->
    let edits =
      if couplings <= 0 then []
      else
        let c = pick_mod (Int64.of_int ((client * 7_000_009) + i)) couplings in
        [
          J.Obj
            [
              ("op", J.Str "scale_coupling");
              ("coupling", J.Int c);
              ("factor", J.Float 0.5);
            ];
        ]
    in
    J.Obj [ ("edits", J.List edits) ]

let run ~connect ~netlist ?(k = 10) ?(clients = 4) ?(requests = 25) () =
  let clients = max 1 clients and requests = max 0 requests in
  let workers = Array.init clients (fun _ -> new_worker ()) in
  let mutex = Mutex.create () in
  let cond = Condition.create () in
  let ready = ref 0 in
  let go = ref false in
  let failure = ref None in
  let t0 = ref 0. in
  let body client =
    let w = workers.(client) in
    match
      let c = connect () in
      let couplings =
        match
          Client.call c ~meth:"load"
            ~params:(J.Obj [ ("netlist", J.Str netlist); ("k", J.Int k) ])
            ()
        with
        | Ok result -> int_member "couplings" result
        | Error (_, msg) -> raise (Client.Transport ("load failed: " ^ msg))
      in
      (c, couplings)
    with
    | exception e ->
      Mutex.lock mutex;
      if !failure = None then failure := Some e;
      incr ready;
      Condition.broadcast cond;
      Mutex.unlock mutex
    | c, couplings ->
      (* all sessions are loaded before the timed window opens *)
      Mutex.lock mutex;
      incr ready;
      Condition.broadcast cond;
      while not !go do
        Condition.wait cond mutex
      done;
      Mutex.unlock mutex;
      (try
         for i = 0 to requests - 1 do
           let verb = pick_verb ~client ~i in
           let meth, counter =
             match verb with
             | Analyze -> ("analyze", fun () -> w.w_analyze <- w.w_analyze + 1)
             | Whatif -> ("whatif", fun () -> w.w_whatif <- w.w_whatif + 1)
             | Eco -> ("eco", fun () -> w.w_eco <- w.w_eco + 1)
           in
           counter ();
           let params = request_params ~couplings ~client ~i verb in
           let t = Clock.now_s () in
           let reply = Client.call c ~meth ~params () in
           w.w_lat_ms <- ((Clock.now_s () -. t) *. 1e3) :: w.w_lat_ms;
           (match reply with
           | Ok _ -> w.w_ok <- w.w_ok + 1
           | Error (Proto.Overloaded, _) -> w.w_overloaded <- w.w_overloaded + 1
           | Error (Proto.Timeout, _) -> w.w_timeout <- w.w_timeout + 1
           | Error _ -> w.w_errors <- w.w_errors + 1);
           record_cache w reply
         done
       with Client.Transport _ -> w.w_errors <- w.w_errors + 1);
      Client.close c
  in
  let threads = Array.init clients (fun i -> Thread.create body i) in
  Mutex.lock mutex;
  while !ready < clients do
    Condition.wait cond mutex
  done;
  t0 := Clock.now_s ();
  go := true;
  Condition.broadcast cond;
  Mutex.unlock mutex;
  Array.iter Thread.join threads;
  let elapsed = Clock.now_s () -. !t0 in
  (match !failure with Some e -> raise e | None -> ());
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let lats =
    Array.of_list (Array.fold_left (fun acc w -> List.rev_append w.w_lat_ms acc) [] workers)
  in
  Array.sort Float.compare lats;
  let n = Array.length lats in
  let pct q =
    if n = 0 then 0.
    else lats.(max 0 (min (n - 1) (int_of_float (ceil (q *. float_of_int n)) - 1)))
  in
  let hits = sum (fun w -> w.w_hits) and misses = sum (fun w -> w.w_misses) in
  {
    lg_clients = clients;
    lg_requests = n;
    lg_ok = sum (fun w -> w.w_ok);
    lg_overloaded = sum (fun w -> w.w_overloaded);
    lg_timeout = sum (fun w -> w.w_timeout);
    lg_errors = sum (fun w -> w.w_errors);
    lg_analyze = sum (fun w -> w.w_analyze);
    lg_whatif = sum (fun w -> w.w_whatif);
    lg_eco = sum (fun w -> w.w_eco);
    lg_elapsed_s = elapsed;
    lg_qps = (if elapsed > 0. then float_of_int n /. elapsed else 0.);
    lg_mean_ms =
      (if n = 0 then 0. else Array.fold_left ( +. ) 0. lats /. float_of_int n);
    lg_p50_ms = pct 0.50;
    lg_p95_ms = pct 0.95;
    lg_p99_ms = pct 0.99;
    lg_max_ms = (if n = 0 then 0. else lats.(n - 1));
    lg_cache_hits = hits;
    lg_cache_misses = misses;
    lg_cache_hit_rate =
      (if hits + misses = 0 then 0.
       else float_of_int hits /. float_of_int (hits + misses));
  }

let to_json r =
  J.Obj
    [
      ("clients", J.Int r.lg_clients);
      ("requests", J.Int r.lg_requests);
      ("ok", J.Int r.lg_ok);
      ("overloaded", J.Int r.lg_overloaded);
      ("timeout", J.Int r.lg_timeout);
      ("errors", J.Int r.lg_errors);
      ("analyze", J.Int r.lg_analyze);
      ("whatif", J.Int r.lg_whatif);
      ("eco", J.Int r.lg_eco);
      ("elapsed_s", J.Float r.lg_elapsed_s);
      ("qps", J.Float r.lg_qps);
      ("mean_ms", J.Float r.lg_mean_ms);
      ("p50_ms", J.Float r.lg_p50_ms);
      ("p95_ms", J.Float r.lg_p95_ms);
      ("p99_ms", J.Float r.lg_p99_ms);
      ("max_ms", J.Float r.lg_max_ms);
      ("cache_hits", J.Int r.lg_cache_hits);
      ("cache_misses", J.Int r.lg_cache_misses);
      ("cache_hit_rate", J.Float r.lg_cache_hit_rate);
    ]
