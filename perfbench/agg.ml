(* Aggregation code of the benchmark: order statistics, the span
   recorder and its self-time folding, and output digests. Pure except
   for the recorder's clock reads, so the tests can pin every rule. *)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                   *)
(* ------------------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Nearest-rank percentile: the smallest sample with at least [q]% of
   the samples at or below it. [q] in (0, 100]. *)
let rank ~n q = max 1 (int_of_float (Float.ceil (q /. 100. *. float_of_int n)))

let percentile xs q =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan else a.(rank ~n q - 1)

(* Samples strictly above the nearest-rank [q] percentile's rank. *)
let beyond ~n q = if n = 0 then 0 else n - rank ~n q

(* A percentile "rests on" its sample only when at least [min_beyond]
   samples lie beyond it; below that it restates one or two slow
   samples. *)
let min_beyond = 10

let rests_on ~n q = beyond ~n q >= min_beyond

(* A run repeats one op sequence round after round. Each op's latency
   over the run is the median of its rounds. [rounds] holds each round's
   per-op latencies in op order; the result has one entry per op. *)
let median_per_op (rounds : float list list) =
  match List.map Array.of_list rounds with
  | [] -> []
  | first :: _ as rounds ->
    List.init (Array.length first) (fun i -> median (List.map (fun r -> r.(i)) rounds))

(* The benchmark's clock: processor time of the whole process, every
   thread included. On a virtual machine whose cores the hypervisor
   shares out, wall-clock time also counts the stretches the machine was
   running someone else (steal time), which comes and goes in bursts of
   seconds; processor time does not. *)
let cpu_s = Sys.time

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                   *)
(* ------------------------------------------------------------------ *)

(* A fixed piece of work that calls no tka code: sorting, hashing, list
   building and float arithmetic over a working set of a few hundred
   kilobytes, most of it dead by the next minor collection. A core
   whose neighbours are busy runs it slower, as it runs tka slower. *)
let probe_work () =
  let acc = ref 0. in
  for rep = 0 to 7 do
    let n = 5_000 in
    let a = Array.init n (fun i -> float_of_int (((i * 7919) + rep) mod n) *. 0.37) in
    Array.sort Float.compare a;
    let h = Hashtbl.create 1024 in
    Array.iteri (fun i x -> Hashtbl.replace h ((i * 31) mod 2048) x) a;
    let l = List.init n (fun i -> (float_of_int i, a.(i))) in
    let l = List.rev_map (fun (x, y) -> (y, x +. 1.)) l in
    acc := !acc +. List.fold_left (fun s (x, y) -> s +. (x *. y)) 0. l
           +. float_of_int (Hashtbl.length h)
  done;
  ignore (Sys.opaque_identity !acc)

(* Processor time of one probe. *)
let probe_s () =
  let t0 = cpu_s () in
  probe_work ();
  cpu_s () -. t0

(* The probe time that defines the reference speed: about what one probe
   took in the quieter stretches of the machine the benchmark was tuned
   on (0.014-0.016 s, against 0.021 s in its slow ones). *)
let reference_probe_s = 0.016

(* [t] at the reference speed: scaled by the mean of the probes taken
   just before and just after it. A stretch in which the host runs
   everything 30% slower stretches [t] and both probes alike, and the
   scaled figure stays. *)
let at_reference ~before ~after t = t *. reference_probe_s /. ((before +. after) /. 2.)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type span = {
  sp_id : int;
  sp_name : string;
  sp_op : int;  (** op the span belongs to; -1 outside any op *)
  sp_parent : int;  (** enclosing span's id; -1 at top level *)
  sp_start : float;  (** {!cpu_s} seconds *)
  sp_stop : float;
  sp_counts : (string * int) list;  (** counter deltas across the span *)
}

type recorder = {
  mutable on : bool;
  mutable next_id : int;
  mutable stack : int list;
  mutable op : int;
  mutable done_ : span list;  (** completed spans, most recent first *)
  counters : unit -> (string * int) list;
      (** sampled at span start and end; the delta is kept *)
}

let recorder ?(counters = fun () -> []) () =
  { on = false; next_id = 0; stack = []; op = -1; done_ = []; counters }

let delta before after =
  List.map
    (fun (k, v) ->
      (k, v - Option.value ~default:0 (List.assoc_opt k before)))
    after

(* Time [f] as span [name] under the innermost open span. A disabled
   recorder runs [f] and records nothing. *)
let span r name f =
  if not r.on then f ()
  else begin
    let id = r.next_id in
    r.next_id <- id + 1;
    let parent = match r.stack with p :: _ -> p | [] -> -1 in
    r.stack <- id :: r.stack;
    let c0 = r.counters () in
    let t0 = cpu_s () in
    let close () =
      let t1 = cpu_s () in
      r.stack <- List.tl r.stack;
      r.done_ <-
        {
          sp_id = id;
          sp_name = name;
          sp_op = r.op;
          sp_parent = parent;
          sp_start = t0;
          sp_stop = t1;
          sp_counts = delta c0 (r.counters ());
        }
        :: r.done_
    in
    Fun.protect ~finally:close f
  end

let spans r = List.rev r.done_

let duration s = s.sp_stop -. s.sp_start

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (acc, cur) (a, b) ->
        match cur with
        | None -> (acc, Some (a, b))
        | Some (ca, cb) ->
          if a <= cb then (acc, Some (ca, Float.max cb b))
          else (acc +. (cb -. ca), Some (a, b)))
      (0., None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time: the span's duration minus the part of it its direct
   children cover. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.sp_parent >= 0 then
        Hashtbl.replace children s.sp_parent
          ((s.sp_start, s.sp_stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.sp_parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.sp_id) in
      (s, duration s -. covered ~lo:s.sp_start ~hi:s.sp_stop kids))
    spans

type fold = {
  total : (string, float) Hashtbl.t;  (** per span name: summed duration *)
  self : (string, float) Hashtbl.t;  (** per span name: summed self time *)
  counts : (string * string, int) Hashtbl.t;
      (** per (span name, counter): summed delta *)
}

let fold spans =
  let f = { total = Hashtbl.create 16; self = Hashtbl.create 16; counts = Hashtbl.create 16 } in
  let bump tbl k add v = Hashtbl.replace tbl k (match Hashtbl.find_opt tbl k with Some v0 -> add v0 v | None -> v) in
  List.iter
    (fun (s, self) ->
      bump f.total s.sp_name ( +. ) (duration s);
      bump f.self s.sp_name ( +. ) self;
      List.iter (fun (c, v) -> bump f.counts (s.sp_name, c) ( + ) v) s.sp_counts)
    (self_times spans);
  f

let total f name = Option.value ~default:0. (Hashtbl.find_opt f.total name)

let count f ~span ~counter = Option.value ~default:0 (Hashtbl.find_opt f.counts (span, counter))

(* Share of the [op_name] spans' time that no layer span covers: their
   summed self time over their summed duration. *)
let unattributed_frac f ~op_name =
  let t = total f op_name in
  if t <= 0. then 0. else Option.value ~default:0. (Hashtbl.find_opt f.self op_name) /. t

(* ------------------------------------------------------------------ *)
(* Digests                                                            *)
(* ------------------------------------------------------------------ *)

module J = Tka_obs.Jsonx

(* Drop wall-clock fields from a reply before hashing it. *)
let rec strip_timing = function
  | J.Obj kvs ->
    J.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "elapsed_s" || k = "t_total_s" then None
           else Some (k, strip_timing v))
         kvs)
  | J.List l -> J.List (List.map strip_timing l)
  | v -> v

let digest s = Digest.to_hex (Digest.string s)

(* One digest over a sequence of per-op digests. *)
let combine ds = digest (String.concat "\n" ds)
