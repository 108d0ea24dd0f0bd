(** Serializing a complete node state of the hierarchical labeled scheme.

    [encode_node] extracts a node's entire routing state — every level's
    ring with ranges and next hops ({!Tables.ring_levels}) — and packs it
    with [Cr_codec.Table_codec]; [decode_node] restores the plain data. A
    decoded node state is sufficient to run the scheme's forwarding
    decision: an arena compiled from decoded levels ({!Tables.compile})
    drives {!Forward.hier} to the destination, which the test suite
    exercises. This closes the loop on the bit accounting: the measured
    "table bits" correspond to a real wire format a router could ship. *)

(** [encode_node scheme v] is node [v]'s routing table on the wire. *)
val encode_node : Hier_labeled.t -> int -> Bytes.t

(** [decode_node scheme bytes] recovers the ring levels (the scheme value
    is needed only for the universe/level-count framing, not the data). *)
val decode_node :
  Hier_labeled.t -> Bytes.t -> Cr_codec.Table_codec.ring_level list

(** [encoded_bits scheme v] is the exact wire size of [v]'s table. *)
val encoded_bits : Hier_labeled.t -> int -> int
