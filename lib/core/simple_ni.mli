(** The simpler, non-scale-free (9 + O(eps))-stretch name-independent
    routing scheme of Theorem 1.4 (Sections 3.1-3.2, Algorithm 3).

    For every level i in [0, log Delta] and every net point u in Y_i, a
    search tree T(u, 2^i/eps) stores the (name, label) directory of the
    ball B_u(2^i/eps). A packet for name id(v) climbs the source's zooming
    sequence; at each u(i) it runs SearchTree (Algorithm 2) over the
    level-i ball, and once the destination's label is found it switches to
    the underlying labeled scheme. Lemma 3.4 gives the 9 + O(eps) stretch:
    the climb costs < 2^(j+1), the searches cost sum 2^(i+1)/eps, and the
    miss at level j-1 certifies d(u, v) >= 2^(j-1)(1/eps - 2).

    All travel — zoom steps, search-tree virtual edges, and the final leg —
    is executed by the underlying labeled scheme passed to [build]
    (Theorem 1.4 pairs with the Lemma 3.1 scheme; tests also compose it
    with the scale-free one). *)

type t

(** [build nt ~epsilon ~naming ~underlying] assembles all directories for
    the given node naming. The search radii use effective epsilon
    min(eps, 2/5), keeping the Lemma 3.4 denominator 1/eps - 2 positive
    (the paper absorbs this in O(eps); see DESIGN.md).

    [min_level] (default 0) explores the *relaxed guarantees* question the
    paper's conclusion poses: levels below it keep no directories and the
    lookup loop starts there, shrinking the per-node tables at the price of
    worse stretch exactly for nearby pairs (a bounded fraction of
    source-destination pairs) — measured in experiment E15. *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  ?min_level:int ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  naming:Cr_sim.Workload.naming ->
  underlying:Underlying.t ->
  t

(** [walk t w ~dest_name] drives walker [w] to the node named [dest_name]
    (Algorithm 3, {!Forward.ni}). Hops are trace-tagged [Zoom i] (climb to
    the level-[i] hub), [Ball_search i] (SearchTree round trip) and
    [Deliver] (final labeled descent) — the per-level costs Figure 1
    plots are the trace's phase sums. *)
val walk : t -> Cr_sim.Walker.t -> dest_name:int -> unit

(** [found_level t ~src ~dest_name] is the level at which the directory
    lookup would succeed for this pair — the quantity Figure 1 plots. *)
val found_level : t -> src:int -> dest_name:int -> int

val naming : t -> Cr_sim.Workload.naming

(** [underlying t] is the labeled scheme all travel executes through. *)
val underlying : t -> Underlying.t

(** [compiled t] is the forwarding state {!Forward.ni} reads: the zooming
    sequences, the lookup loop's level range ([min_level] to the top) and
    each (level, hub)'s search tree (shared with the serving engine). *)
val compiled : t -> Forward.ni

(** [hub t ~src ~level] is src(level), the zooming-sequence hub Algorithm 3
    visits at [level]. *)
val hub : t -> src:int -> level:int -> int

(** [table_bits t v] is the measured per-node storage in bits, including
    the underlying labeled scheme's tables. *)
val table_bits : t -> int -> int

(** [walk_degraded t w ~dest_name] is [walk] with failover
    ({!Forward.ni_degraded}): when the walker raises [Blocked] (its
    failure set refuses a move), the packet abandons the level and
    re-enters the zooming sequence one level up from its *current*
    position; hops after the first failover are trace-tagged [Faults].
    Returns the route status and the number of failovers taken;
    [Undeliverable] when the top level is exhausted or the hop budget
    runs out. *)
val walk_degraded :
  t -> Cr_sim.Walker.t -> dest_name:int ->
  Cr_sim.Scheme.route_status * int

(** [degraded_scheme t ~failures] packages {!walk_degraded} over a fixed
    failure set (a route from a failed source is [Undeliverable] at zero
    cost). *)
val degraded_scheme :
  t -> failures:Cr_sim.Failures.t -> Cr_sim.Scheme.degraded

val header_bits : t -> int
val to_scheme : t -> Cr_sim.Scheme.name_independent
