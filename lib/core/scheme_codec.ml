module Table_codec = Cr_codec.Table_codec

let framing scheme =
  let rings = Hier_labeled.rings scheme in
  (Tables.n (Hier_labeled.compiled scheme).Forward.h_tables,
   Tables.level_count rings)

let ring_levels scheme v = Tables.ring_levels (Hier_labeled.rings scheme) v

let encode_node scheme v =
  let n, level_count = framing scheme in
  Table_codec.encode_rings ~n ~level_count (ring_levels scheme v)

let decode_node scheme data =
  let n, level_count = framing scheme in
  Table_codec.decode_rings ~n ~level_count data

let encoded_bits scheme v =
  let n, level_count = framing scheme in
  Table_codec.rings_bits ~n ~level_count (ring_levels scheme v)
