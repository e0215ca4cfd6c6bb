(* Trace analytics: turn a span list (live from Tka_obs.Trace, or
   reconstructed from a Chrome-trace dump) into the tables a human
   actually wants — self/total time per span name, the slowest victims
   with their prune attribution, and allocation hotspots. *)

module J = Tka_obs.Jsonx
module Trace = Tka_obs.Trace
module Tt = Tka_util.Text_table

(* ------------------------------------------------------------------ *)
(* Ingesting a Chrome-trace dump                                      *)
(* ------------------------------------------------------------------ *)

(* Inverse of Trace.to_json: "X" events become spans (µs -> ns), GC
   fields are pulled back out of args. Instants and unknown phases are
   dropped — the analytics only consume durations. *)
let span_of_event ev =
  match (J.member "ph" ev, J.member "name" ev) with
  | Some (J.Str "X"), Some (J.Str name) ->
    let num k =
      match J.member k ev with
      | Some (J.Float f) -> Some f
      | Some (J.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    (match (num "ts", num "dur") with
    | Some ts, Some dur ->
      let cat =
        match J.member "cat" ev with Some (J.Str c) -> c | _ -> "tka"
      in
      let args =
        match J.member "args" ev with Some (J.Obj kvs) -> kvs | _ -> []
      in
      let arg_f k =
        match List.assoc_opt k args with
        | Some (J.Float f) -> Some f
        | Some (J.Int i) -> Some (float_of_int i)
        | _ -> None
      in
      let arg_i k =
        match List.assoc_opt k args with Some (J.Int i) -> Some i | _ -> None
      in
      let gc =
        match (arg_f "minor_words", arg_f "major_words") with
        | Some mw, Some gw ->
          Some
            {
              Trace.gd_minor_words = mw;
              gd_major_words = gw;
              gd_promoted_words =
                Option.value ~default:0. (arg_f "promoted_words");
              gd_minor_collections =
                Option.value ~default:0 (arg_i "minor_collections");
              gd_major_collections =
                Option.value ~default:0 (arg_i "major_collections");
            }
        | _ -> None
      in
      let gc_keys =
        [
          "minor_words"; "major_words"; "promoted_words"; "minor_collections";
          "major_collections";
        ]
      in
      Some
        {
          Trace.sp_name = name;
          sp_cat = cat;
          sp_start_ns = Int64.of_float (ts *. 1e3);
          sp_dur_ns = Int64.of_float (dur *. 1e3);
          sp_depth = 0;
          sp_args = List.filter (fun (k, _) -> not (List.mem k gc_keys)) args;
          sp_gc = gc;
        }
    | _ -> None)
  | _ -> None

let of_trace_json j =
  match J.member "traceEvents" j with
  | Some (J.List evs) -> List.filter_map span_of_event evs
  | _ -> failwith "not a Chrome trace: missing traceEvents array"

let of_trace_file path = of_trace_json (J.read_file path)

(* ------------------------------------------------------------------ *)
(* Analytics                                                          *)
(* ------------------------------------------------------------------ *)

type agg = {
  ag_name : string;
  ag_cat : string;
  ag_count : int;
  ag_total_s : float;
  ag_self_s : float;
  ag_minor_words : float;
  ag_major_words : float;
  ag_minor_collections : int;
  ag_major_collections : int;
}

type victim = {
  vi_net : string;
  vi_dur_s : float;
  vi_minor_words : float;
  vi_candidates : int option;
  vi_dominated : int option;
  vi_capped : int option;
}

type report = {
  pr_span_count : int;
  pr_wall_s : float;  (** first start to last end *)
  pr_aggregates : agg list;  (** total-time descending *)
  pr_requests : agg list;  (** [serve.request] spans per method *)
  pr_victims : victim list;  (** slowest first, truncated to [top] *)
  pr_alloc_hotspots : agg list;  (** self-allocation descending *)
}

let s_of_ns ns = Int64.to_float ns /. 1e9

(* Self time by interval containment: events sorted by (start asc, dur
   desc) visit parents before their children; a stack of open intervals
   identifies each span's innermost enclosing parent, which is charged
   the child's duration. Concurrent spans from pool domains interleave
   on the same timeline, so attribution under jobs>1 is approximate —
   run the profiling pass at --jobs 1 for exact self times. *)
let self_times spans =
  let arr = Array.of_list spans in
  Array.sort
    (fun a b ->
      match Int64.compare a.Trace.sp_start_ns b.Trace.sp_start_ns with
      | 0 -> Int64.compare b.Trace.sp_dur_ns a.Trace.sp_dur_ns
      | c -> c)
    arr;
  let child_ns = Array.make (Array.length arr) 0L in
  (* stack of (index, end_ns) *)
  let stack = ref [] in
  Array.iteri
    (fun i sp ->
      let start = sp.Trace.sp_start_ns in
      let stop = Int64.add start sp.Trace.sp_dur_ns in
      let rec unwind = function
        | (_, e) :: tl when e <= start -> unwind tl
        | s -> s
      in
      stack := unwind !stack;
      (match !stack with
      | (parent, _) :: _ ->
        child_ns.(parent) <- Int64.add child_ns.(parent) sp.Trace.sp_dur_ns
      | [] -> ());
      stack := (i, stop) :: !stack)
    arr;
  Array.mapi
    (fun i sp ->
      let self = Int64.sub sp.Trace.sp_dur_ns child_ns.(i) in
      (sp, Int64.max 0L self))
    arr

(* Sum the spans [key] maps to [Some label] into one row per label,
   total-time descending. *)
let aggregate key with_self =
  let rows : (string, agg ref) Hashtbl.t = Hashtbl.create 32 in
  Array.iter
    (fun (sp, self_ns) ->
      match key sp with
      | None -> ()
      | Some label ->
        let a =
          match Hashtbl.find_opt rows label with
          | Some a -> a
          | None ->
            let a =
              ref
                {
                  ag_name = label;
                  ag_cat = sp.Trace.sp_cat;
                  ag_count = 0;
                  ag_total_s = 0.;
                  ag_self_s = 0.;
                  ag_minor_words = 0.;
                  ag_major_words = 0.;
                  ag_minor_collections = 0;
                  ag_major_collections = 0;
                }
            in
            Hashtbl.replace rows label a;
            a
        in
        let mw, gw, mc, gc =
          match sp.Trace.sp_gc with
          | Some g ->
            ( g.Trace.gd_minor_words,
              g.Trace.gd_major_words,
              g.Trace.gd_minor_collections,
              g.Trace.gd_major_collections )
          | None -> (0., 0., 0, 0)
        in
        a :=
          {
            !a with
            ag_count = !a.ag_count + 1;
            ag_total_s = !a.ag_total_s +. s_of_ns sp.Trace.sp_dur_ns;
            ag_self_s = !a.ag_self_s +. s_of_ns self_ns;
            ag_minor_words = !a.ag_minor_words +. mw;
            ag_major_words = !a.ag_major_words +. gw;
            ag_minor_collections = !a.ag_minor_collections + mc;
            ag_major_collections = !a.ag_major_collections + gc;
          })
    with_self;
  Hashtbl.fold (fun _ a acc -> !a :: acc) rows []
  |> List.sort (fun a b ->
         match Float.compare b.ag_total_s a.ag_total_s with
         | 0 -> String.compare a.ag_name b.ag_name
         | c -> c)

(* A [serve.request] span's row: its method, marked when the session's
   memo answered the request's analysis. *)
let request_label sp =
  if sp.Trace.sp_name <> "serve.request" then None
  else
    let arg k = List.assoc_opt k sp.Trace.sp_args in
    match arg "method" with
    | Some (J.Str m) ->
      Some (if arg "memo" = Some (J.Bool true) then m ^ " (memo)" else m)
    | _ -> Some "?"

let analyze ?(top = 10) spans =
  let spans = List.filter (fun s -> s.Trace.sp_dur_ns >= 0L) spans in
  let with_self = self_times spans in
  let aggregates = aggregate (fun sp -> Some sp.Trace.sp_name) with_self in
  let victims =
    List.filter_map
      (fun sp ->
        if sp.Trace.sp_name <> "engine.victim" then None
        else
          let arg_i k =
            match List.assoc_opt k sp.Trace.sp_args with
            | Some (J.Int i) -> Some i
            | _ -> None
          in
          Some
            {
              vi_net =
                (match List.assoc_opt "net" sp.Trace.sp_args with
                | Some (J.Str s) -> s
                | _ -> "?");
              vi_dur_s = s_of_ns sp.Trace.sp_dur_ns;
              vi_minor_words =
                (match sp.Trace.sp_gc with
                | Some g -> g.Trace.gd_minor_words
                | None -> 0.);
              vi_candidates = arg_i "candidates";
              vi_dominated = arg_i "dominated";
              vi_capped = arg_i "capped";
            })
      spans
    |> List.sort (fun a b -> Float.compare b.vi_dur_s a.vi_dur_s)
    |> List.filteri (fun i _ -> i < top)
  in
  let alloc_hotspots =
    List.filter
      (fun a -> a.ag_minor_words +. a.ag_major_words > 0.)
      aggregates
    |> List.sort (fun a b ->
           Float.compare
             (b.ag_minor_words +. b.ag_major_words)
             (a.ag_minor_words +. a.ag_major_words))
    |> List.filteri (fun i _ -> i < top)
  in
  let wall =
    match spans with
    | [] -> 0.
    | _ ->
      let lo =
        List.fold_left
          (fun acc s -> Int64.min acc s.Trace.sp_start_ns)
          Int64.max_int spans
      in
      let hi =
        List.fold_left
          (fun acc s ->
            Int64.max acc (Int64.add s.Trace.sp_start_ns s.Trace.sp_dur_ns))
          Int64.min_int spans
      in
      s_of_ns (Int64.sub hi lo)
  in
  {
    pr_span_count = List.length spans;
    pr_wall_s = wall;
    pr_aggregates = aggregates;
    pr_requests = aggregate request_label with_self;
    pr_victims = victims;
    pr_alloc_hotspots = alloc_hotspots;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let mwords w = w /. 1e6

let render r =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    (Printf.sprintf "%d span(s) over %.3f s of traced wall time\n\n"
       r.pr_span_count r.pr_wall_s);
  Buffer.add_string buf "Time per span:\n";
  let t =
    Tt.create
      ~headers:
        [
          ("span", Tt.Left); ("count", Tt.Right); ("total (s)", Tt.Right);
          ("self (s)", Tt.Right); ("self %", Tt.Right);
          ("minor Mw", Tt.Right); ("major Mw", Tt.Right);
        ]
  in
  let total_self =
    List.fold_left (fun acc a -> acc +. a.ag_self_s) 0. r.pr_aggregates
  in
  List.iter
    (fun a ->
      Tt.add_row t
        [
          a.ag_name;
          Tt.cell_i a.ag_count;
          Tt.cell_f ~decimals:3 a.ag_total_s;
          Tt.cell_f ~decimals:3 a.ag_self_s;
          Tt.cell_f ~decimals:1
            (if total_self > 0. then 100. *. a.ag_self_s /. total_self else 0.);
          Tt.cell_f ~decimals:2 (mwords a.ag_minor_words);
          Tt.cell_f ~decimals:2 (mwords a.ag_major_words);
        ])
    r.pr_aggregates;
  Buffer.add_string buf (Tt.render t);
  if r.pr_requests <> [] then begin
    Buffer.add_string buf "\nServe requests per method:\n";
    let t =
      Tt.create
        ~headers:
          [
            ("method", Tt.Left); ("count", Tt.Right); ("total (s)", Tt.Right);
            ("mean (ms)", Tt.Right); ("self (s)", Tt.Right);
          ]
    in
    List.iter
      (fun a ->
        Tt.add_row t
          [
            a.ag_name;
            Tt.cell_i a.ag_count;
            Tt.cell_f ~decimals:3 a.ag_total_s;
            Tt.cell_f ~decimals:3 (1e3 *. a.ag_total_s /. float_of_int a.ag_count);
            Tt.cell_f ~decimals:3 a.ag_self_s;
          ])
      r.pr_requests;
    Buffer.add_string buf (Tt.render t)
  end;
  if r.pr_victims <> [] then begin
    Buffer.add_string buf "\nSlowest victims (prune attribution):\n";
    let t =
      Tt.create
        ~headers:
          [
            ("net", Tt.Left); ("time (s)", Tt.Right); ("minor Mw", Tt.Right);
            ("candidates", Tt.Right); ("dominated", Tt.Right);
            ("capped", Tt.Right);
          ]
    in
    let opt = function Some i -> Tt.cell_i i | None -> "-" in
    List.iter
      (fun v ->
        Tt.add_row t
          [
            v.vi_net;
            Tt.cell_f ~decimals:4 v.vi_dur_s;
            Tt.cell_f ~decimals:2 (mwords v.vi_minor_words);
            opt v.vi_candidates;
            opt v.vi_dominated;
            opt v.vi_capped;
          ])
      r.pr_victims;
    Buffer.add_string buf (Tt.render t)
  end;
  if r.pr_alloc_hotspots <> [] then begin
    Buffer.add_string buf "\nAllocation hotspots (total words across spans):\n";
    let t =
      Tt.create
        ~headers:
          [
            ("span", Tt.Left); ("minor Mwords", Tt.Right);
            ("major Mwords", Tt.Right); ("minor GCs", Tt.Right);
            ("major GCs", Tt.Right);
          ]
    in
    List.iter
      (fun a ->
        Tt.add_row t
          [
            a.ag_name;
            Tt.cell_f ~decimals:2 (mwords a.ag_minor_words);
            Tt.cell_f ~decimals:2 (mwords a.ag_major_words);
            Tt.cell_i a.ag_minor_collections;
            Tt.cell_i a.ag_major_collections;
          ])
      r.pr_alloc_hotspots;
    Buffer.add_string buf (Tt.render t)
  end;
  Buffer.contents buf

let agg_json a =
  J.Obj
    [
      ("name", J.Str a.ag_name);
      ("cat", J.Str a.ag_cat);
      ("count", J.Int a.ag_count);
      ("total_s", J.Float a.ag_total_s);
      ("self_s", J.Float a.ag_self_s);
      ("minor_words", J.Float a.ag_minor_words);
      ("major_words", J.Float a.ag_major_words);
      ("minor_collections", J.Int a.ag_minor_collections);
      ("major_collections", J.Int a.ag_major_collections);
    ]

let victim_json v =
  J.Obj
    ([
       ("net", J.Str v.vi_net);
       ("time_s", J.Float v.vi_dur_s);
       ("minor_words", J.Float v.vi_minor_words);
     ]
    @ (match v.vi_candidates with Some c -> [ ("candidates", J.Int c) ] | None -> [])
    @ (match v.vi_dominated with Some d -> [ ("dominated", J.Int d) ] | None -> [])
    @ match v.vi_capped with Some c -> [ ("capped", J.Int c) ] | None -> [])

let to_json r =
  J.Obj
    [
      ("span_count", J.Int r.pr_span_count);
      ("wall_s", J.Float r.pr_wall_s);
      ("spans", J.List (List.map agg_json r.pr_aggregates));
      ("requests", J.List (List.map agg_json r.pr_requests));
      ("victims", J.List (List.map victim_json r.pr_victims));
      ("alloc_hotspots", J.List (List.map agg_json r.pr_alloc_hotspots));
    ]
