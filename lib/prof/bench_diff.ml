(* Perf-regression comparison of two benchmark documents
   (BENCH_topk.json shapes). Only metrics whose key names mark them as
   performance figures are compared: everything else in the files
   (delays, set contents, prune counters) is correctness data owned by
   Tka_verify, not noise-thresholded perf data. *)

module J = Tka_obs.Jsonx

type direction = Lower_better | Higher_better

type metric = {
  m_path : string;
  m_base : float;
  m_new : float;
  m_direction : direction;
  m_ratio : float;  (** new/base, 1.0 when base = 0 and new = 0 *)
}

type result = {
  bd_threshold : float;
  bd_checked : metric list;
  bd_regressions : metric list;
  bd_improvements : metric list;
  bd_skipped_small : int;  (** below the noise floor in both files *)
  bd_only_base : string list;
  bd_only_new : string list;
}

(* ------------------------------------------------------------------ *)
(* Flattening and classification                                      *)
(* ------------------------------------------------------------------ *)

let rec flatten prefix v acc =
  match v with
  | J.Obj kvs ->
    List.fold_left
      (fun acc (k, v) ->
        let p = if prefix = "" then k else prefix ^ "." ^ k in
        flatten p v acc)
      acc kvs
  | J.List vs ->
    List.fold_left
      (fun (acc, i) v ->
        (flatten (Printf.sprintf "%s[%d]" prefix i) v acc, i + 1))
      (acc, 0) vs
    |> fst
  | J.Int i -> (prefix, float_of_int i) :: acc
  | J.Float f -> (prefix, f) :: acc
  | J.Null | J.Bool _ | J.Str _ -> acc

let flatten_doc v = List.rev (flatten "" v [])

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let ends_with ~suffix s =
  let n = String.length suffix and m = String.length s in
  m >= n && String.sub s (m - n) n = suffix

(* last path segment decides; "table1.rows[2].brute_runtime_s" ->
   "brute_runtime_s" *)
let leaf path =
  match String.rindex_opt path '.' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

(* every entry of the per-section wall-time table is a timing, though
   its leaf is a section name ("section_runtime_s.table1") *)
let classify path =
  let l = leaf path in
  if String.starts_with ~prefix:"section_runtime_s." path then
    Some Lower_better
  else if contains ~sub:"speedup" l then Some Higher_better
  else if
    ends_with ~suffix:"_s" l
    || contains ~sub:"runtime" l
    || ends_with ~suffix:"_seconds" l
    || ends_with ~suffix:"_bytes" l
    || ends_with ~suffix:"_words" l
    || ends_with ~suffix:"_kb" l
    || ends_with ~suffix:"_mb" l
    || contains ~sub:"rss" l
  then Some Lower_better
  else None

(* noise floor below which a metric is not worth thresholding: tiny
   timings jitter by integer factors run to run *)
let default_min_seconds = 0.05
let min_words = 1e6 (* ~8 MB of minor allocation *)

(* ~8 MB expressed in the metric's own unit; the suffix wins over the
   "rss" substring so peak_rss_mb is thresholded in megabytes, not
   words *)
let mem_floor l =
  if ends_with ~suffix:"_mb" l then Some 8.
  else if ends_with ~suffix:"_kb" l then Some 8192.
  else if ends_with ~suffix:"_bytes" l then Some 8e6
  else if ends_with ~suffix:"_words" l || contains ~sub:"rss" l then
    Some min_words
  else None

let negligible path base_v new_v ~min_seconds =
  match mem_floor (leaf path) with
  | Some floor -> Float.max base_v new_v < floor
  | None -> Float.max base_v new_v < min_seconds

(* ------------------------------------------------------------------ *)
(* Comparison                                                         *)
(* ------------------------------------------------------------------ *)

let compare_docs ?(threshold = 0.20) ?(min_seconds = default_min_seconds) base
    next =
  let fb = flatten_doc base and fn = flatten_doc next in
  let base_tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace base_tbl p v) fb;
  let next_tbl = Hashtbl.create 64 in
  List.iter (fun (p, v) -> Hashtbl.replace next_tbl p v) fn;
  let perf_paths l =
    List.filter_map (fun (p, _) -> Option.map (fun d -> (p, d)) (classify p)) l
  in
  let only_base =
    List.filter_map
      (fun (p, _) -> if Hashtbl.mem next_tbl p then None else Some p)
      (perf_paths fb)
  in
  let only_new =
    List.filter_map
      (fun (p, _) -> if Hashtbl.mem base_tbl p then None else Some p)
      (perf_paths fn)
  in
  let skipped = ref 0 in
  let checked =
    List.filter_map
      (fun (path, dir) ->
        match Hashtbl.find_opt next_tbl path with
        | None -> None
        | Some nv ->
          let bv = Hashtbl.find base_tbl path in
          if negligible path bv nv ~min_seconds then begin
            incr skipped;
            None
          end
          else
            let ratio =
              if bv = 0. then if nv = 0. then 1. else Float.infinity
              else nv /. bv
            in
            Some
              { m_path = path; m_base = bv; m_new = nv; m_direction = dir;
                m_ratio = ratio })
      (perf_paths fb)
  in
  let regressed m =
    match m.m_direction with
    | Lower_better -> m.m_ratio > 1. +. threshold
    | Higher_better -> m.m_ratio < 1. -. threshold
  in
  let improved m =
    match m.m_direction with
    | Lower_better -> m.m_ratio < 1. -. threshold
    | Higher_better -> m.m_ratio > 1. +. threshold
  in
  {
    bd_threshold = threshold;
    bd_checked = checked;
    bd_regressions = List.filter regressed checked;
    bd_improvements = List.filter improved checked;
    bd_skipped_small = !skipped;
    bd_only_base = only_base;
    bd_only_new = only_new;
  }

let has_regressions r = r.bd_regressions <> []

(* ------------------------------------------------------------------ *)
(* Loading                                                            *)
(* ------------------------------------------------------------------ *)

(* A bench file is one JSON document; a malformed one is a parse error
   naming the file. *)
let load_file path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  try J.of_string s
  with J.Parse_error m -> raise (J.Parse_error (path ^ ": " ^ m))

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

module Tt = Tka_util.Text_table

let render r =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "%d perf metric(s) compared at ±%.0f%% (%d below the noise floor, \
        %d only in base, %d only in new)\n"
       (List.length r.bd_checked)
       (100. *. r.bd_threshold)
       r.bd_skipped_small
       (List.length r.bd_only_base)
       (List.length r.bd_only_new));
  let table title metrics =
    if metrics <> [] then begin
      Buffer.add_string buf (Printf.sprintf "\n%s:\n" title);
      let t =
        Tt.create
          ~headers:
            [
              ("metric", Tt.Left); ("base", Tt.Right); ("new", Tt.Right);
              ("ratio", Tt.Right); ("better", Tt.Left);
            ]
      in
      List.iter
        (fun m ->
          Tt.add_row t
            [
              m.m_path;
              Tt.cell_f ~decimals:4 m.m_base;
              Tt.cell_f ~decimals:4 m.m_new;
              Tt.cell_f ~decimals:2 m.m_ratio;
              (match m.m_direction with
              | Lower_better -> "lower"
              | Higher_better -> "higher");
            ])
        metrics;
      Buffer.add_string buf (Tt.render t)
    end
  in
  table "REGRESSIONS" r.bd_regressions;
  table "improvements" r.bd_improvements;
  if r.bd_regressions = [] then
    Buffer.add_string buf "no regressions detected\n";
  Buffer.contents buf

let metric_json m =
  J.Obj
    [
      ("metric", J.Str m.m_path);
      ("base", J.Float m.m_base);
      ("new", J.Float m.m_new);
      ("ratio", J.Float m.m_ratio);
      ( "better",
        J.Str
          (match m.m_direction with
          | Lower_better -> "lower"
          | Higher_better -> "higher") );
    ]

let to_json r =
  J.Obj
    [
      ("threshold", J.Float r.bd_threshold);
      ("checked", J.Int (List.length r.bd_checked));
      ("skipped_small", J.Int r.bd_skipped_small);
      ("regressions", J.List (List.map metric_json r.bd_regressions));
      ("improvements", J.List (List.map metric_json r.bd_improvements));
      ("only_base", J.List (List.map (fun p -> J.Str p) r.bd_only_base));
      ("only_new", J.List (List.map (fun p -> J.Str p) r.bd_only_new));
    ]
