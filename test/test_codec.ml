(* Tests for bit buffers and routing-table wire formats. *)

open Helpers
module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Bitbuf = Cr_codec.Bitbuf
module Table_codec = Cr_codec.Table_codec
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Rings = Cr_core.Rings
module Forward = Cr_core.Forward
module Walker = Cr_sim.Walker
module Interval_routing = Cr_tree.Interval_routing
module Tree = Cr_tree.Tree

let test_bitbuf_roundtrip () =
  let w = Bitbuf.writer () in
  let values = [ (1, 1); (7, 3); (0, 5); (1023, 10); (42, 7); (1, 62) ] in
  List.iter (fun (v, bits) -> Bitbuf.push w ~bits v) values;
  check_int "length" (1 + 3 + 5 + 10 + 7 + 62) (Bitbuf.length_bits w);
  let r = Bitbuf.reader (Bitbuf.contents w) in
  List.iter
    (fun (v, bits) -> check_int "value" v (Bitbuf.pull r ~bits))
    values;
  check_int "read position" (Bitbuf.length_bits w) (Bitbuf.bits_read r)

let test_bitbuf_rejects () =
  let w = Bitbuf.writer () in
  Alcotest.check_raises "value too large"
    (Invalid_argument "Bitbuf.push: value does not fit") (fun () ->
      Bitbuf.push w ~bits:3 8);
  Alcotest.check_raises "negative"
    (Invalid_argument "Bitbuf.push: value does not fit") (fun () ->
      Bitbuf.push w ~bits:3 (-1));
  let r = Bitbuf.reader (Bytes.create 1) in
  ignore (Bitbuf.pull r ~bits:8);
  Alcotest.check_raises "past end"
    (Invalid_argument "Bitbuf.pull: past end of buffer") (fun () ->
      ignore (Bitbuf.pull r ~bits:1))

let prop_bitbuf_random =
  qcheck_case ~count:100 "bitbuf: random sequences roundtrip"
    QCheck2.Gen.(
      list_size (int_range 1 50)
        (let* bits = int_range 1 30 in
         let* v = int_range 0 ((1 lsl bits) - 1) in
         return (v, bits)))
    (fun values ->
      let w = Bitbuf.writer () in
      List.iter (fun (v, bits) -> Bitbuf.push w ~bits v) values;
      let r = Bitbuf.reader (Bitbuf.contents w) in
      List.for_all (fun (v, bits) -> Bitbuf.pull r ~bits = v) values)

(* Extract a node's real ring table and push it through the codec. *)
let ring_levels_of rings nt m u =
  List.map
    (fun level ->
      let entries =
        List.map
          (fun x ->
            let range = Netting_tree.range nt ~level x in
            { Table_codec.member = x;
              range_lo = range.Netting_tree.lo;
              range_hi = range.Netting_tree.hi;
              next_hop = (if x = u then u else Metric.next_hop m ~src:u ~dst:x) })
          (Rings.ring rings u ~level)
      in
      { Table_codec.level; entries })
    (Rings.selected_levels rings u)

let test_ring_tables_roundtrip () =
  let m = holey () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let rings = Rings.build nt ~epsilon:0.5 ~mode:Rings.Selected in
  let n = Metric.n m in
  let level_count = Hierarchy.top_level h + 1 in
  for u = 0 to n - 1 do
    let levels = ring_levels_of rings nt m u in
    let data = Table_codec.encode_rings ~n ~level_count levels in
    let decoded = Table_codec.decode_rings ~n ~level_count data in
    check_bool (Printf.sprintf "node %d rings roundtrip" u) true
      (decoded = levels);
    (* the exact-size predictor matches the writer *)
    check_bool "size within a byte of prediction" true
      (abs
         ((8 * Bytes.length data)
         - Table_codec.rings_bits ~n ~level_count levels)
      < 8)
  done

let test_ring_encoding_matches_accounting () =
  (* the harness charges 4 id-sized fields per entry (range + hop + id);
     the wire format adds only level indices and count prefixes *)
  let m = grid6 () in
  let h = Hierarchy.build m in
  let nt = Netting_tree.build h in
  let rings = Rings.build nt ~epsilon:0.5 ~mode:Rings.Selected in
  let n = Metric.n m in
  let level_count = Hierarchy.top_level h + 1 in
  for u = 0 to n - 1 do
    let levels = ring_levels_of rings nt m u in
    let encoded = Table_codec.rings_bits ~n ~level_count levels in
    let charged = Rings.table_bits rings u in
    let prefixes = 16 * (1 + List.length levels) in
    check_bool
      (Printf.sprintf "node %d: encoded %d ~ charged %d + prefixes" u encoded
         charged)
      true
      (encoded <= charged + prefixes)
  done

(* Roundtrips on *random* tables: the codec must invert on any table whose
   fields fit the declared bit widths, not just tables a scheme actually
   builds, and the bit predictor must match the writer exactly. *)

let ring_tables_gen =
  QCheck2.Gen.(
    let* n = int_range 4 128 in
    let* level_count = int_range 1 12 in
    let entry =
      let* member = int_range 0 (n - 1) in
      let* a = int_range 0 (n - 1) in
      let* b = int_range 0 (n - 1) in
      let* next_hop = int_range 0 (n - 1) in
      return
        { Table_codec.member;
          range_lo = min a b;
          range_hi = max a b;
          next_hop }
    in
    let level =
      let* lvl = int_range 0 level_count in
      let* entries = list_size (int_range 0 8) entry in
      return { Table_codec.level = lvl; entries }
    in
    let* levels = list_size (int_range 0 6) level in
    return (n, level_count, levels))

let prop_rings_roundtrip_random =
  qcheck_case ~count:200 "codec: random ring tables roundtrip"
    ring_tables_gen (fun (n, level_count, levels) ->
      let data = Table_codec.encode_rings ~n ~level_count levels in
      Table_codec.decode_rings ~n ~level_count data = levels)

let prop_rings_bits_exact =
  qcheck_case ~count:200 "codec: rings_bits = writer length = charged bits"
    ring_tables_gen (fun (n, level_count, levels) ->
      let bits = Table_codec.rings_bits ~n ~level_count levels in
      let data = Table_codec.encode_rings ~n ~level_count levels in
      (* the writer pads to a byte boundary and not a bit more *)
      Bytes.length data = (bits + 7) / 8
      (* per entry the codec spends exactly what the harness charges per
         ring member: a range (2 ids) plus member and next-hop ids *)
      && bits
         = 16
           + List.fold_left
               (fun acc { Table_codec.entries; _ } ->
                 acc
                 + Bits.ceil_log2 (level_count + 1)
                 + 16
                 + List.length entries
                   * (Bits.range_bits n + (2 * Bits.id_bits n)))
               0 levels)

let interval_table_gen =
  QCheck2.Gen.(
    let* n = int_range 4 128 in
    let id = int_range 0 (n - 1) in
    let* own_lo = id in
    let* own_hi = id in
    let* parent_port = id in
    let* children =
      list_size (int_range 0 10)
        (let* lo = id in
         let* hi = id in
         let* port = id in
         return (lo, hi, port))
    in
    return (n, { Table_codec.own_lo; own_hi; parent_port; children }))

let prop_interval_roundtrip_random =
  qcheck_case ~count:200 "codec: random interval tables roundtrip"
    interval_table_gen (fun (n, table) ->
      let data = Table_codec.encode_interval ~n table in
      Table_codec.decode_interval ~n data = table
      && Bytes.length data = (Table_codec.interval_bits ~n table + 7) / 8)

let test_interval_tables_roundtrip () =
  let m = holey () in
  let n = Metric.n m in
  (* a shortest-path tree's interval routing tables *)
  let parent v =
    match Metric.shortest_path m ~src:v ~dst:0 with
    | _ :: hop :: _ -> hop
    | _ -> assert false
  in
  let tree =
    Tree.of_parents ~root:0
      ~nodes:(List.init n Fun.id)
      ~parent
      ~weight:(fun _ -> 1.0)
  in
  let ir = Interval_routing.build tree in
  List.iter
    (fun v ->
      let own = Interval_routing.label ir v in
      let table =
        { Table_codec.own_lo = own;
          own_hi = own;
          parent_port =
            (match Tree.parent tree v with Some (p, _) -> p | None -> v);
          children =
            List.map
              (fun (c, _) -> (Interval_routing.label ir c, own, c))
              (Tree.children tree v) }
      in
      let data = Table_codec.encode_interval ~n table in
      check_bool "interval roundtrip" true
        (Table_codec.decode_interval ~n data = table);
      check_bool "size prediction" true
        (abs ((8 * Bytes.length data) - Table_codec.interval_bits ~n table)
        < 8))
    (Tree.nodes tree)

let suite =
  [ Alcotest.test_case "bitbuf roundtrip" `Quick test_bitbuf_roundtrip;
    Alcotest.test_case "bitbuf rejects" `Quick test_bitbuf_rejects;
    prop_bitbuf_random;
    Alcotest.test_case "ring tables roundtrip" `Quick
      test_ring_tables_roundtrip;
    Alcotest.test_case "ring encoding matches accounting" `Quick
      test_ring_encoding_matches_accounting;
    prop_rings_roundtrip_random;
    prop_rings_bits_exact;
    prop_interval_roundtrip_random;
    Alcotest.test_case "interval tables roundtrip" `Quick
      test_interval_tables_roundtrip ]

let test_scheme_codec_roundtrip_and_route () =
  (* encode every node's table, decode, and deliver packets by running the
     scheme's own forwarding driver over an arena loaded from ONLY the
     decoded wire-format tables *)
  let m = holey () in
  let nt = Netting_tree.build (Hierarchy.build m) in
  let scheme = Cr_core.Hier_labeled.build nt ~epsilon:0.5 in
  let n = Metric.n m in
  let decoded =
    Array.init n (fun v ->
        let data = Cr_core.Scheme_codec.encode_node scheme v in
        check_bool "size prediction" true
          (abs
             ((8 * Bytes.length data)
             - Cr_core.Scheme_codec.encoded_bits scheme v)
          < 8);
        Cr_core.Scheme_codec.decode_node scheme data)
  in
  let h_label, h_node_of = Forward.labels nt in
  let fwd =
    { Forward.h_tables =
        Cr_core.Tables.compile m
          ~level_count:(Cr_core.Tables.level_count (Cr_core.Hier_labeled.rings scheme))
          ~levels_of:(fun v -> decoded.(v));
      h_label; h_node_of }
  in
  let walk run src =
    let w = Walker.create m ~start:src ~max_hops:10_000 in
    run w;
    w
  in
  List.iter
    (fun (src, dst) ->
      let dest_label = h_label.(dst) in
      let w = walk (fun w -> Forward.hier fwd (Forward.walker w) ~dest_label) src in
      check_int "arrived" dst (Walker.position w);
      (* the decoded tables route exactly like the scheme's own *)
      let w' =
        walk (fun w -> Cr_core.Hier_labeled.walk scheme w ~dest_label) src
      in
      check_bool "same route" true (Walker.trail w = Walker.trail w'))
    (Cr_sim.Workload.sample_pairs ~n ~count:80 ~seed:13)

let suite =
  suite
  @ [ Alcotest.test_case "scheme codec roundtrip + route" `Quick
        test_scheme_codec_roundtrip_and_route ]
