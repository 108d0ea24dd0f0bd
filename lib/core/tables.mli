(** Compiled ring tables: every node's wire-encoded ring state, decoded
    once at load time into a struct-of-arrays arena — the state the
    Lemma 3.1 and Theorem 1.2 forwarding decisions ({!Forward}) read.

    The storage format is exactly [Cr_codec.Table_codec]'s bit layout —
    [compile] round-trips each node's levels through
    [encode_rings]/[decode_rings] so the arena provably holds nothing the
    wire bytes don't. The hot queries ([cover], [next_hop]) are linear
    scans over int arrays: no closures, no options, no allocation. *)

type t

(** [ring_levels rings v] extracts node [v]'s ring tables (every selected
    level, with ranges and precomputed next hops) in wire order, for
    either ring mode ([All_levels] or [Selected]). The stored next hop
    toward member [x] is exactly [Metric.next_hop ~src:v ~dst:x] ([v]
    itself for [x = v]). *)
val ring_levels : Rings.t -> int -> Cr_codec.Table_codec.ring_level list

(** [level_count rings] is the wire format's level universe (top level
    + 1). *)
val level_count : Rings.t -> int

(** [compile ?pool m ~level_count ~levels_of] encodes, decodes, and
    flattens every node's ring levels ([levels_of v] in wire order).
    Per-entry member distances are re-derived from [m] at load time (they
    are not part of the wire format; the scale-free scheme's forwarding
    test needs them). Per-node work fans out over [pool]; the arena is
    identical whatever the pool size. *)
val compile :
  ?pool:Cr_par.Pool.t ->
  Cr_metric.Metric.t ->
  level_count:int ->
  levels_of:(int -> Cr_codec.Table_codec.ring_level list) ->
  t

(** [of_rings ?pool rings] is [compile] over [ring_levels rings] — what
    each ring scheme's [build] runs, once. *)
val of_rings : ?pool:Cr_par.Pool.t -> Rings.t -> t

val n : t -> int

(** [bits t v] is node [v]'s exact wire size ([Table_codec.rings_bits]). *)
val bits : t -> int -> int

(** [cover t ~at ~label] is the arena index of the minimal-level ring
    entry at [at] whose range covers [label] (-1 if none) — the flat
    mirror of [Rings.minimal_cover_level]: levels are scanned in stored
    (increasing) order and the per-level covering member is unique.
    Allocation-free. *)
val cover : t -> at:int -> label:int -> int

(** [next_hop t ~at ~label] is the stored next hop of the covering entry
    (-1 if no level covers). Allocation-free. *)
val next_hop : t -> at:int -> label:int -> int

(** Entry-field accessors for an index returned by [cover]. *)
val entry_level : t -> int -> int

val entry_member : t -> int -> int
val entry_hop : t -> int -> int

(** [entry_dist t e] is d(node, member) for entry [e], precomputed at
    load. *)
val entry_dist : t -> int -> float

(** [levels_of t v] reconstructs node [v]'s decoded ring levels — the
    inverse of flattening, used by the codec idempotence test
    (re-encoding it must reproduce the original wire bytes). *)
val levels_of : t -> int -> Cr_codec.Table_codec.ring_level list

(** [words t] is the arena size in machine words (array payloads only). *)
val words : t -> int
