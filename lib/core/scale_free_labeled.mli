(** The scale-free (1 + O(eps))-stretch labeled routing scheme of
    Theorem 1.2 (Section 4, Algorithm 5).

    Data structures per node u:
    - rings X_i(u) with ranges and next hops, but only for the selected
      levels R(u) (Section 4.1) — this removes the log Delta storage factor;
    - for every j in [0, log2 n]: u's Voronoi cell center c among the
      packing B_j's centers, u's parent in the cell's shortest-path tree
      T_c(j), and u's interval-routing table for T_c(j);
    - the search tree II T'(c, r_c(j)) of every packed ball whose tree
      contains u, storing (global label, local tree label) pairs for the
      cell nodes within radius r_c(j+1) of c.

    Routing (Algorithm 5): greedily forward toward the lowest-selected-level
    ring member whose range covers the destination label while levels
    shrink and the target stays far (lines 2-6); once the loop exits, pick
    the packing scale j matching the last level, climb the local Voronoi
    tree to its center, look up the destination's local tree label in the
    search tree II, and tree-route to it (lines 7-10).

    A netting-descent fallback guarantees delivery outside the theorem's
    premises; invocations are counted and expected to be zero. *)

type t

(** [build ?obs nt ~epsilon] precomputes all structures (traced as a
    [scale_free_labeled.build] span with packing/search-tree/table-size
    counters). *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  t

(** [label t v] is v's ceil(log n)-bit routing label (netting-tree DFS
    number). *)
val label : t -> int -> int

(** [rings t] / [netting_tree t] expose the underlying structures (used by
    the invariant checkers). *)
val rings : t -> Rings.t

val netting_tree : t -> Cr_nets.Netting_tree.t

(** [compiled t] is the forwarding state [build] compiled once — the ring
    arena, radius table, Voronoi owners/parents and per-cell directories
    {!Forward.sfl} reads (the serving engine shares it, with its own
    fallback counter). *)
val compiled : t -> Forward.sfl

(** Phase breakdown of one Algorithm 5 route ({!Forward.phase_report}). *)
type phase_report = Forward.phase_report = {
  exit_level : int;
  scale : int;
  ring_cost : float;
  climb_cost : float;
  search_cost : float;
  tree_cost : float;
}

(** [walk t w ~dest_label] advances walker [w] to the node labeled
    [dest_label] following Algorithm 5 ({!Forward.sfl}); [observe] is
    called once on the fast path (not on fallback). Hops are trace-tagged
    with the Figure 2 phases: [Net_phase] (ring descent), [Voronoi_phase]
    (cell-tree climb and tree-route), [Search_tree_phase] (search tree II
    lookup), and [Fallback]. *)
val walk :
  ?observe:(phase_report -> unit) -> t -> Cr_sim.Walker.t -> dest_label:int ->
  unit

(** [fallback_count t] is the number of times routing left the theorem's
    fast path since [build]. *)
val fallback_count : t -> int

(** [table_bits t v] is the measured per-node storage in bits (fallback
    structures excluded; see interface comment). *)
val table_bits : t -> int -> int

val label_bits : t -> int
val header_bits : t -> int
val to_scheme : t -> Cr_sim.Scheme.labeled
val to_underlying : t -> Underlying.t
