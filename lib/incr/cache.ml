module Engine = Tka_topk.Engine
module CS = Tka_topk.Coupling_set
module Ilist = Tka_topk.Ilist
module CN = Tka_noise.Coupled_noise
module J = Tka_obs.Jsonx

type entry = { e_key : Fnv.t; e_cv : Engine.cached_victim }

type t = {
  tbl : (int * int, entry) Hashtbl.t; (* (mode tag, net id) *)
  mutex : Mutex.t;
  (* Hash of the coupling universe (id -> net pair + cap) the stored
     values' coupling ids index into. Summaries carry raw directed
     coupling ids, so an entry is only meaningful against the exact
     coupling table it was stored (or remapped) under — keys alone
     cannot catch a mismatch because they are deliberately id-free. *)
  mutable universe : Fnv.t option;
  mutable generation : int; (* stores and clears so far, under [mutex] *)
}

let create () =
  { tbl = Hashtbl.create 256; mutex = Mutex.create (); universe = None; generation = 0 }

let clear t =
  Mutex.lock t.mutex;
  Hashtbl.reset t.tbl;
  t.universe <- None;
  t.generation <- t.generation + 1;
  Mutex.unlock t.mutex

let universe t = t.universe
let set_universe t u = t.universe <- Some u

let size t =
  Mutex.lock t.mutex;
  let n = Hashtbl.length t.tbl in
  Mutex.unlock t.mutex;
  n

let generation t =
  Mutex.lock t.mutex;
  let g = t.generation in
  Mutex.unlock t.mutex;
  g

let find t ~mode ~net ~key =
  Mutex.lock t.mutex;
  let e = Hashtbl.find_opt t.tbl (Engine.mode_tag mode, net) in
  Mutex.unlock t.mutex;
  match e with
  | Some e when Int64.equal e.e_key key -> Some e.e_cv
  | Some _ | None -> None

let store t ~mode ~net ~key cv =
  Mutex.lock t.mutex;
  Hashtbl.replace t.tbl (Engine.mode_tag mode, net) { e_key = key; e_cv = cv };
  t.generation <- t.generation + 1;
  Mutex.unlock t.mutex

(* ------------------------------------------------------------------ *)
(* Coupling-id renumbering                                            *)
(* ------------------------------------------------------------------ *)

exception Removed

(* [Some e'] with every directed id renumbered, [None] when the entry
   references a removed physical cap. *)
let remap_entry phys_map e =
  let directed d =
    match phys_map (CN.coupling_of_directed_id d) with
    | Some c' -> CN.with_coupling d c'
    | None -> raise Removed
  in
  let set s = CS.of_list (List.map directed (CS.to_list s)) in
  let summary (cs : Engine.cardinality_summary) : Engine.cardinality_summary =
    Array.map (List.map (fun (s, obj) -> (set s, obj))) cs
  in
  let cv (c : Engine.cached_victim) =
    {
      Engine.cv_summary = summary c.Engine.cv_summary;
      cv_out = Option.map summary c.Engine.cv_out;
      cv_stats = c.Engine.cv_stats;
      cv_direct =
        List.map (fun (a, s, st) -> (a, summary s, st)) c.Engine.cv_direct;
    }
  in
  match { e with e_cv = cv e.e_cv } with
  | e' -> Some e'
  | exception Removed -> None

let remapped_copy t phys_map =
  let t' = create () in
  Mutex.lock t.mutex;
  Hashtbl.iter
    (fun k e ->
      match remap_entry phys_map e with
      | Some e' -> Hashtbl.replace t'.tbl k e'
      | None -> ())
    t.tbl;
  Mutex.unlock t.mutex;
  t'

(* ------------------------------------------------------------------ *)
(* Checkpoint serialisation                                           *)
(* ------------------------------------------------------------------ *)

let format_name = "tka-incr-cache"
let format_version = 2

(* exact float round trip: IEEE-754 bits in hex *)
let float_hex f = Printf.sprintf "%016Lx" (Int64.bits_of_float f)

let hex_bits s =
  if String.length s <> 16 then failwith "Cache.load: bad float/key hex";
  match Int64.of_string_opt ("0x" ^ s) with
  | Some b -> b
  | None -> failwith "Cache.load: bad float/key hex"

let hex_float s = Int64.float_of_bits (hex_bits s)

let json_of_summary (cs : Engine.cardinality_summary) =
  J.List
    (Array.to_list cs
    |> List.map (fun entries ->
           J.List
             (List.map
                (fun (s, obj) ->
                  J.List
                    [
                      J.List (List.map (fun d -> J.Int d) (CS.to_list s));
                      J.Str (float_hex obj);
                    ])
                entries)))

let json_of_stats (st : Ilist.stats) =
  J.Obj
    [
      ("candidates", J.Int st.Ilist.candidates);
      ("dominated", J.Int st.Ilist.dominated);
      ("duplicates", J.Int st.Ilist.duplicates);
      ("capped", J.Int st.Ilist.capped);
      ("checks", J.Int st.Ilist.checks);
    ]

let json_of_entry ((mode, net), { e_key; e_cv }) =
  J.Obj
    [
      ("mode", J.Int mode);
      ("net", J.Int net);
      ("key", J.Str (Printf.sprintf "%016Lx" e_key));
      ("summary", json_of_summary e_cv.Engine.cv_summary);
      ( "out",
        match e_cv.Engine.cv_out with
        | None -> J.Null
        | Some s -> json_of_summary s );
      ("stats", json_of_stats e_cv.Engine.cv_stats);
      ( "direct",
        J.List
          (List.map
             (fun (a, s, st) ->
               J.List [ J.Int a; json_of_summary s; json_of_stats st ])
             e_cv.Engine.cv_direct) );
    ]

let fail fmt = Printf.ksprintf failwith fmt

let get_member name j =
  match J.member name j with
  | Some v -> v
  | None -> fail "Cache.load: missing field %S" name

let get_int = function J.Int i -> i | _ -> failwith "Cache.load: expected int"
let get_str = function J.Str s -> s | _ -> failwith "Cache.load: expected string"
let get_list = function J.List l -> l | _ -> failwith "Cache.load: expected list"

let summary_of_json j : Engine.cardinality_summary =
  get_list j
  |> List.map (fun entries ->
         get_list entries
         |> List.map (function
              | J.List [ ids; J.Str obj ] ->
                (CS.of_list (List.map get_int (get_list ids)), hex_float obj)
              | _ -> failwith "Cache.load: malformed summary entry"))
  |> Array.of_list

let stats_of_json j : Ilist.stats =
  let st = Ilist.fresh_stats () in
  st.Ilist.candidates <- get_int (get_member "candidates" j);
  st.Ilist.dominated <- get_int (get_member "dominated" j);
  st.Ilist.duplicates <- get_int (get_member "duplicates" j);
  st.Ilist.capped <- get_int (get_member "capped" j);
  st.Ilist.checks <- get_int (get_member "checks" j);
  st

let entry_of_json j =
  let mode = get_int (get_member "mode" j) in
  let net = get_int (get_member "net" j) in
  let key = hex_bits (get_str (get_member "key" j)) in
  let cv =
    {
      Engine.cv_summary = summary_of_json (get_member "summary" j);
      cv_out =
        (match get_member "out" j with
        | J.Null -> None
        | s -> Some (summary_of_json s));
      cv_stats = stats_of_json (get_member "stats" j);
      cv_direct =
        get_list (get_member "direct" j)
        |> List.map (function
             | J.List [ J.Int a; s; st ] ->
               (a, summary_of_json s, stats_of_json st)
             | _ -> failwith "Cache.load: malformed direct entry");
    }
  in
  ((mode, net), { e_key = key; e_cv = cv })

let save t path =
  Mutex.lock t.mutex;
  let entries =
    Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.tbl []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
  in
  Mutex.unlock t.mutex;
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc
        (J.to_string
           (J.Obj
              ([
                 ("format", J.Str format_name);
                 ("version", J.Int format_version);
               ]
              @
              match t.universe with
              | None -> []
              | Some u -> [ ("universe", J.Str (Printf.sprintf "%016Lx" u)) ])));
      output_char oc '\n';
      List.iter
        (fun e ->
          output_string oc (J.to_string (json_of_entry e));
          output_char oc '\n')
        entries);
  Sys.rename tmp path

let load path =
  (* the documented failure mode is [Failure], whatever is wrong with
     the file — a non-JSON line must not leak [Parse_error] *)
  let parse = function
    | Ok j -> j
    | Error m -> fail "Cache.load: %s: %s" path m
  in
  match J.read_ndjson path with
  | [] -> fail "Cache.load: %s is empty" path
  | (lineno, header) :: entries ->
    let header = parse header in
    (match (J.member "format" header, J.member "version" header) with
    | Some (J.Str f), Some (J.Int v)
      when lineno = 1 && f = format_name && v = format_version ->
      ()
    | _ ->
      fail "Cache.load: %s is not a version-%d %s file" path format_version format_name);
    let t = create () in
    (match J.member "universe" header with
    | Some (J.Str u) -> t.universe <- Some (hex_bits u)
    | _ -> ());
    List.iter
      (fun (_, line) ->
        let k, e = entry_of_json (parse line) in
        Hashtbl.replace t.tbl k e)
      entries;
    t
