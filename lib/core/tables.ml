module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Table_codec = Cr_codec.Table_codec
module Pool = Cr_par.Pool

type t = {
  n : int;
  lvl_off : int array;  (* n + 1: node -> level-slot range *)
  lvl_level : int array;  (* per slot: the ring level index *)
  ent_off : int array;  (* slots + 1: slot -> entry range *)
  ent_level : int array;
  ent_member : int array;
  ent_lo : int array;
  ent_hi : int array;
  ent_hop : int array;
  ent_dist : float array;  (* d(node, member), re-derived at load *)
  bits : int array;  (* per-node exact wire size *)
}

let count_entries levels =
  List.fold_left
    (fun a (l : Table_codec.ring_level) -> a + List.length l.entries)
    0 levels

let compile ?(pool = Pool.default ()) m ~level_count ~levels_of =
  let n = Metric.n m in
  (* The wire bytes are the storage format: what the arena holds is the
     *decoded* image of each node's encoding, so a node whose levels did
     not survive the round trip would be caught by the differential
     tests, not papered over. Only the compact bytes are kept across
     nodes; each node's decoded levels live one node at a time. *)
  let wire =
    Pool.parallel_init pool n (fun v ->
        let levels = levels_of v in
        let data = Table_codec.encode_rings ~n ~level_count levels in
        let back = Table_codec.decode_rings ~n ~level_count data in
        ( data, Table_codec.rings_bits ~n ~level_count levels,
          List.length back, count_entries back ))
  in
  let total_levels = Array.fold_left (fun acc (_, _, l, _) -> acc + l) 0 wire in
  let total_entries =
    Array.fold_left (fun acc (_, _, _, e) -> acc + e) 0 wire
  in
  let lvl_off = Array.make (n + 1) 0 in
  let lvl_level = Array.make total_levels 0 in
  let ent_off = Array.make (total_levels + 1) 0 in
  let ent_level = Array.make total_entries 0 in
  let ent_member = Array.make total_entries 0 in
  let ent_lo = Array.make total_entries 0 in
  let ent_hi = Array.make total_entries 0 in
  let ent_hop = Array.make total_entries 0 in
  let ent_dist = Array.make total_entries 0.0 in
  let bits = Array.make n 0 in
  let si = ref 0 in
  let ei = ref 0 in
  for v = 0 to n - 1 do
    let data, b, _, _ = wire.(v) in
    bits.(v) <- b;
    lvl_off.(v) <- !si;
    List.iter
      (fun (l : Table_codec.ring_level) ->
        lvl_level.(!si) <- l.level;
        ent_off.(!si) <- !ei;
        List.iter
          (fun (e : Table_codec.ring_entry) ->
            ent_level.(!ei) <- l.level;
            ent_member.(!ei) <- e.member;
            ent_lo.(!ei) <- e.range_lo;
            ent_hi.(!ei) <- e.range_hi;
            ent_hop.(!ei) <- e.next_hop;
            ent_dist.(!ei) <- Metric.dist m v e.member;
            incr ei)
          l.entries;
        incr si)
      (Table_codec.decode_rings ~n ~level_count data)
  done;
  lvl_off.(n) <- !si;
  ent_off.(!si) <- !ei;
  { n; lvl_off; lvl_level; ent_off; ent_level; ent_member; ent_lo; ent_hi;
    ent_hop; ent_dist; bits }

(* Generic over the ring mode: All_levels (the Lemma 3.1 scheme) and
   Selected (the Theorem 1.2 scheme) produce the same wire layout, one
   encoded level per selected level. *)
let ring_levels rings v =
  let nt = Rings.netting_tree rings in
  let m = Hierarchy.metric (Netting_tree.hierarchy nt) in
  List.map
    (fun level ->
      let entries =
        List.map
          (fun x ->
            let range = Netting_tree.range nt ~level x in
            { Table_codec.member = x;
              range_lo = range.Netting_tree.lo;
              range_hi = range.Netting_tree.hi;
              next_hop =
                (if x = v then v else Metric.next_hop m ~src:v ~dst:x) })
          (Rings.ring rings v ~level)
      in
      { Table_codec.level; entries })
    (Rings.selected_levels rings v)

let level_count rings =
  Hierarchy.top_level (Netting_tree.hierarchy (Rings.netting_tree rings)) + 1

let of_rings ?pool rings =
  let m = Hierarchy.metric (Netting_tree.hierarchy (Rings.netting_tree rings)) in
  compile ?pool m ~level_count:(level_count rings) ~levels_of:(ring_levels rings)

let n t = t.n
let bits t v = t.bits.(v)

(* Scan one level-slot's entries for the covering range; the ranges within
   a level partition the labels they cover, so the first hit is the unique
   hit. *)
let rec scan_entries t label e last =
  if e > last then -1
  else if t.ent_lo.(e) <= label && label <= t.ent_hi.(e) then e
  else scan_entries t label (e + 1) last

let rec scan_levels t label s last =
  if s > last then -1
  else
    let e = scan_entries t label t.ent_off.(s) (t.ent_off.(s + 1) - 1) in
    if e >= 0 then e else scan_levels t label (s + 1) last

let cover t ~at ~label =
  scan_levels t label t.lvl_off.(at) (t.lvl_off.(at + 1) - 1)

let next_hop t ~at ~label =
  let e = cover t ~at ~label in
  if e < 0 then -1 else t.ent_hop.(e)

let entry_level t e = t.ent_level.(e)
let entry_member t e = t.ent_member.(e)
let entry_hop t e = t.ent_hop.(e)
let entry_dist t e = t.ent_dist.(e)

let levels_of t v =
  let ls = t.lvl_off.(v) in
  List.init
    (t.lvl_off.(v + 1) - ls)
    (fun k ->
      let s = ls + k in
      let es = t.ent_off.(s) in
      { Table_codec.level = t.lvl_level.(s);
        entries =
          List.init
            (t.ent_off.(s + 1) - es)
            (fun j ->
              let e = es + j in
              { Table_codec.member = t.ent_member.(e);
                range_lo = t.ent_lo.(e);
                range_hi = t.ent_hi.(e);
                next_hop = t.ent_hop.(e) }) })

let words t =
  Array.length t.lvl_off + Array.length t.lvl_level + Array.length t.ent_off
  + Array.length t.ent_level + Array.length t.ent_member
  + Array.length t.ent_lo + Array.length t.ent_hi + Array.length t.ent_hop
  + Array.length t.ent_dist + Array.length t.bits
