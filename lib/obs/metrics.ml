(* The global switch is an atomic bool read on every update: the
   disabled path is one load + branch, no allocation. Instruments are
   Atomic-based so concurrent updates from pool domains (the parallel
   engine sweep) never race or under-count; the enabled fast path costs
   one fetch-and-add (counters) or a CAS loop (float accumulators). *)
let enabled = Atomic.make false

let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let with_enabled b f =
  let prev = Atomic.get enabled in
  Atomic.set enabled b;
  Fun.protect ~finally:(fun () -> Atomic.set enabled prev) f

let with_disabled f = with_enabled false f

(* Lock-free float accumulator: add via CAS retry. Allocation (the boxed
   float) only happens when metrics are enabled. *)
let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then atomic_add_float cell x

module Counter0 = struct
  type t = { c_name : string; c_value : int Atomic.t }

  let incr c = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_value 1)
  let add c n = if Atomic.get enabled then ignore (Atomic.fetch_and_add c.c_value n)
  let value c = Atomic.get c.c_value
  let name c = c.c_name
end

module Gauge0 = struct
  type t = { g_name : string; g_value : float Atomic.t }

  let set g v = if Atomic.get enabled then Atomic.set g.g_value v
  let value g = Atomic.get g.g_value
  let name g = g.g_name
end

module Histogram0 = struct
  type t = {
    h_name : string;
    h_buckets : float array;  (* upper bounds, strictly increasing *)
    h_counts : int Atomic.t array;  (* length = buckets + 1 (overflow) *)
    h_sum : float Atomic.t;
    h_count : int Atomic.t;
  }

  let default_buckets =
    [| 1e-6; 1e-5; 1e-4; 1e-3; 0.01; 0.03; 0.1; 0.3; 1.0; 3.0; 10.0 |]

  let observe h x =
    if Atomic.get enabled then begin
      let n = Array.length h.h_buckets in
      let i = ref 0 in
      while !i < n && x > h.h_buckets.(!i) do
        incr i
      done;
      ignore (Atomic.fetch_and_add h.h_counts.(!i) 1);
      atomic_add_float h.h_sum x;
      ignore (Atomic.fetch_and_add h.h_count 1)
    end

  let count h = Atomic.get h.h_count
  let sum h = Atomic.get h.h_sum
  let buckets h = Array.copy h.h_buckets
  let counts h = Array.map Atomic.get h.h_counts
  let name h = h.h_name

  (* Prometheus-style quantile estimate: walk the cumulative bucket
     counts to the one containing rank q*count, then interpolate
     linearly inside it (the first bucket's lower bound is 0, the
     overflow bucket clamps to the last bound). *)
  let percentile h q =
    if not (q >= 0. && q <= 1.) then
      invalid_arg "Tka_obs.Metrics.Histogram.percentile: q must be in [0,1]";
    let total = Atomic.get h.h_count in
    if total = 0 then Float.nan
    else begin
      let rank = q *. float_of_int total in
      let nb = Array.length h.h_buckets in
      let rec go i cum =
        if i >= nb then h.h_buckets.(nb - 1)
        else
          let c = Atomic.get h.h_counts.(i) in
          let cum' = cum +. float_of_int c in
          if cum' >= rank && c > 0 then
            let lo = if i = 0 then 0. else h.h_buckets.(i - 1) in
            let hi = h.h_buckets.(i) in
            lo +. ((hi -. lo) *. ((rank -. cum) /. float_of_int c))
          else go (i + 1) cum'
      in
      go 0 0.
    end
end

type metric =
  | M_counter of Counter0.t
  | M_gauge of Gauge0.t
  | M_histogram of Histogram0.t

(* The process's one registry. *)
let items : (string, metric) Hashtbl.t = Hashtbl.create 32
let reg_mutex = Mutex.create ()

(* Registration is rare (module toplevel, usually the main domain) but
   guarded anyway so pool workers registering lazily cannot corrupt the
   table. *)
let register name ~make ~cast =
  Mutex.lock reg_mutex;
  let v =
    match Hashtbl.find_opt items name with
    | Some m -> (
      match cast m with
      | Some v -> Ok v
      | None ->
        Error
          (Printf.sprintf "Tka_obs.Metrics: %S already registered with another kind"
             name))
    | None ->
      let v, m = make () in
      Hashtbl.replace items name m;
      Ok v
  in
  Mutex.unlock reg_mutex;
  match v with Ok v -> v | Error m -> invalid_arg m

let counter_make name =
  register name
    ~make:(fun () ->
      let c = { Counter0.c_name = name; c_value = Atomic.make 0 } in
      (c, M_counter c))
    ~cast:(function M_counter c -> Some c | _ -> None)

let gauge_make name =
  register name
    ~make:(fun () ->
      let g = { Gauge0.g_name = name; g_value = Atomic.make 0. } in
      (g, M_gauge g))
    ~cast:(function M_gauge g -> Some g | _ -> None)

let histogram_make ?(buckets = Histogram0.default_buckets) name =
  let ok = ref (Array.length buckets > 0) in
  for i = 0 to Array.length buckets - 2 do
    if buckets.(i) >= buckets.(i + 1) then ok := false
  done;
  if not !ok then
    invalid_arg "Tka_obs.Metrics.Histogram.make: buckets must be strictly increasing";
  register name
    ~make:(fun () ->
      let h =
        {
          Histogram0.h_name = name;
          h_buckets = Array.copy buckets;
          h_counts = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          h_sum = Atomic.make 0.;
          h_count = Atomic.make 0;
        }
      in
      (h, M_histogram h))
    ~cast:(function M_histogram h -> Some h | _ -> None)

module Counter = struct
  include Counter0

  let make = counter_make
end

module Gauge = struct
  include Gauge0

  let make = gauge_make
end

module Histogram = struct
  include Histogram0

  let make = histogram_make
end

let find name cast = Option.bind (Hashtbl.find_opt items name) cast
let find_counter name = find name (function M_counter c -> Some c | _ -> None)
let find_gauge name = find name (function M_gauge g -> Some g | _ -> None)

let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | M_counter c -> Atomic.set c.Counter0.c_value 0
      | M_gauge g -> Atomic.set g.Gauge0.g_value 0.
      | M_histogram h ->
        Array.iter (fun c -> Atomic.set c 0) h.Histogram0.h_counts;
        Atomic.set h.Histogram0.h_sum 0.;
        Atomic.set h.Histogram0.h_count 0)
    items

let to_json () =
  (* nan (empty histogram) would serialise as null anyway; make the
     in-memory document say so explicitly *)
  let pct h q =
    let v = Histogram0.percentile h q in
    if Float.is_nan v then Jsonx.Null else Jsonx.Float v
  in
  let entry _ m acc =
    let kv =
      match m with
      | M_counter c -> (c.Counter0.c_name, Jsonx.Int (Counter0.value c))
      | M_gauge g -> (g.Gauge0.g_name, Jsonx.Float (Gauge0.value g))
      | M_histogram h ->
        ( h.Histogram0.h_name,
          Jsonx.Obj
            [
              ( "buckets",
                Jsonx.List
                  (Array.to_list (Array.map (fun b -> Jsonx.Float b) h.h_buckets))
              );
              ( "counts",
                Jsonx.List
                  (Array.to_list
                     (Array.map (fun c -> Jsonx.Int (Atomic.get c)) h.h_counts))
              );
              ("sum", Jsonx.Float (Histogram0.sum h));
              ("count", Jsonx.Int (Histogram0.count h));
              ("p50", pct h 0.50);
              ("p90", pct h 0.90);
              ("p99", pct h 0.99);
            ] )
    in
    kv :: acc
  in
  Jsonx.Obj
    (Hashtbl.fold entry items []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b))

let write_file path = Jsonx.write_file path (to_json ())

(* ------------------------------------------------------------------ *)
(* Prometheus text exposition                                         *)
(* ------------------------------------------------------------------ *)

let prometheus_name s =
  if s = "" then "_"
  else begin
    let ok_head c =
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
    in
    let ok c = ok_head c || (c >= '0' && c <= '9') in
    let b = Buffer.create (String.length s + 1) in
    if not (ok_head s.[0]) then Buffer.add_char b '_';
    String.iter (fun c -> Buffer.add_char b (if ok c then c else '_')) s;
    Buffer.contents b
  end

let prometheus_escape_label s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

(* Sample values: integral floats print without a fraction part,
   non-finite ones use the exposition spellings. *)
let prom_float f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "+Inf"
  else if f = Float.neg_infinity then "-Inf"
  else if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let render_prometheus () =
  let b = Buffer.create 1024 in
  let items =
    Hashtbl.fold (fun _ m acc -> m :: acc) items []
    |> List.map (fun m ->
           let name =
             match m with
             | M_counter c -> c.Counter0.c_name
             | M_gauge g -> g.Gauge0.g_name
             | M_histogram h -> h.Histogram0.h_name
           in
           (prometheus_name name, m))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter
    (fun (name, m) ->
      match m with
      | M_counter c ->
        Printf.bprintf b "# TYPE %s counter\n%s %d\n" name name (Counter0.value c)
      | M_gauge g ->
        Printf.bprintf b "# TYPE %s gauge\n%s %s\n" name name
          (prom_float (Gauge0.value g))
      | M_histogram h ->
        Printf.bprintf b "# TYPE %s histogram\n" name;
        let counts = Histogram0.counts h in
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + counts.(i);
            Printf.bprintf b "%s_bucket{le=\"%s\"} %d\n" name
              (prometheus_escape_label (prom_float bound))
              !cum)
          h.Histogram0.h_buckets;
        Printf.bprintf b "%s_bucket{le=\"+Inf\"} %d\n" name (Histogram0.count h);
        Printf.bprintf b "%s_sum %s\n" name (prom_float (Histogram0.sum h));
        Printf.bprintf b "%s_count %d\n" name (Histogram0.count h))
    items;
  Buffer.contents b
