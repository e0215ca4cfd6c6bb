module N = Tka_circuit.Netlist
module CN = Tka_noise.Coupled_noise

(* Sorted, duplicate-free int array. The former representation was a
   sorted int list; the struct-of-arrays refactor packs the members
   into one flat array so a k-set costs one block (k words + header)
   instead of k cons cells, membership is a branch-light binary search,
   and the merge operations write straight into pre-sized arrays. The
   observable semantics (ordering, [hash_key], comparison) are
   unchanged — test/test_topk.ml checks the round-trip against a
   reference list implementation. *)
type t = int array

type elt = int

let empty = [||]
let singleton c = [| c |]

let of_list cs = Array.of_list (List.sort_uniq Int.compare cs)
let to_list = Array.to_list

let cardinality = Array.length

let mem c t =
  let n = Array.length t in
  if n = 0 then false
  else begin
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 0 do
      let mid = (!lo + !hi) / 2 in
      if t.(mid) < c then lo := mid + 1 else hi := mid
    done;
    t.(!lo) = c
  end

(* Two-cursor merge into a scratch array trimmed to the written
   length. Sets are tiny (≤ k ≈ 75), so the scratch is stack-sized. *)
let union a b =
  let na = Array.length a and nb = Array.length b in
  if na = 0 then b
  else if nb = 0 then a
  else begin
    let out = Array.make (na + nb) 0 in
    let i = ref 0 and j = ref 0 and m = ref 0 in
    while !i < na && !j < nb do
      let x = a.(!i) and y = b.(!j) in
      if x < y then (out.(!m) <- x; incr i)
      else if y < x then (out.(!m) <- y; incr j)
      else (out.(!m) <- x; incr i; incr j);
      incr m
    done;
    while !i < na do out.(!m) <- a.(!i); incr i; incr m done;
    while !j < nb do out.(!m) <- b.(!j); incr j; incr m done;
    if !m = na + nb then out else Array.sub out 0 !m
  end

(* The hot constructor on the engine's extension path: one element
   spliced into a fresh array, no intermediate set. *)
let add c t =
  let n = Array.length t in
  if mem c t then t
  else begin
    let out = Array.make (n + 1) c in
    let i = ref 0 in
    while !i < n && t.(!i) < c do
      out.(!i) <- t.(!i);
      incr i
    done;
    Array.blit t !i out (!i + 1) (n - !i);
    out
  end

let inter a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (min na nb) 0 in
  let i = ref 0 and j = ref 0 and m = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i
    else if y < x then incr j
    else (out.(!m) <- x; incr m; incr i; incr j)
  done;
  if !m = Array.length out then out else Array.sub out 0 !m

let diff a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make na 0 in
  let i = ref 0 and j = ref 0 and m = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then (out.(!m) <- x; incr m; incr i)
    else if y < x then incr j
    else (incr i; incr j)
  done;
  while !i < na do out.(!m) <- a.(!i); incr m; incr i done;
  if !m = na then out else Array.sub out 0 !m

let disjoint a b =
  let na = Array.length a and nb = Array.length b in
  let i = ref 0 and j = ref 0 in
  let hit = ref false in
  while (not !hit) && !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then incr i else if y < x then incr j else hit := true
  done;
  not !hit

let subset a b =
  let na = Array.length a and nb = Array.length b in
  if na > nb then false
  else begin
    let i = ref 0 and j = ref 0 in
    let ok = ref true in
    while !ok && !i < na do
      if !j >= nb then ok := false
      else begin
        let x = a.(!i) and y = b.(!j) in
        if y < x then incr j
        else if x = y then (incr i; incr j)
        else ok := false
      end
    done;
    !ok
  end

let equal a b =
  Array.length a = Array.length b
  && begin
       let ok = ref true in
       let i = ref 0 and n = Array.length a in
       while !ok && !i < n do
         if a.(!i) <> b.(!i) then ok := false;
         incr i
       done;
       !ok
     end

(* Lexicographic, matching the previous [List.compare Int.compare]: a
   strict prefix sorts first. *)
let compare a b =
  let na = Array.length a and nb = Array.length b in
  let rec go i =
    if i >= na && i >= nb then 0
    else if i >= na then -1
    else if i >= nb then 1
    else
      let c = Int.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let hash_key t =
  match Array.length t with
  | 0 -> ""
  | _ ->
    String.concat "," (Array.to_list (Array.map string_of_int t))

(* FNV-1a folded over the members: an allocation-free stand-in for
   [hash_key] wherever the set itself can key the table. Injective
   inputs (sorted members) make collisions as unlikely as any 62-bit
   hash; equality is still checked by the table. *)
let hash t =
  let h = ref 0x64_9c_9e_66_9c_9e_64_9c in
  for i = 0 to Array.length t - 1 do
    h := (!h lxor t.(i)) * 0x100000001b3
  done;
  !h land max_int

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let dedup sets =
  let seen = Tbl.create 16 in
  List.filter
    (fun s ->
      if Tbl.mem seen s then false
      else begin
        Tbl.replace seen s ();
        true
      end)
    sets

let fold f t acc = Array.fold_left (fun acc c -> f c acc) acc t
let iter = Array.iter
let exists = Array.exists

let pad ~universe ~target t =
  let rec go acc next needed =
    if needed = 0 then Some acc
    else if next >= universe then None
    else if mem next acc then go acc (next + 1) needed
    else go (add next acc) (next + 1) (needed - 1)
  in
  let needed = target - cardinality t in
  if needed < 0 then None else go t 0 needed

let pp ppf t =
  Format.fprintf ppf "{%s}" (hash_key t)

let describe nl t =
  let one id =
    let d = CN.of_directed_id nl id in
    let c = N.coupling nl d.CN.dc_coupling in
    Printf.sprintf "%s->%s(%.4g)" (N.net nl d.CN.dc_aggressor).N.net_name
      (N.net nl d.CN.dc_victim).N.net_name c.N.coupling_cap
  in
  String.concat ", " (List.map one (to_list t))
