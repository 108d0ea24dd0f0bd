(** The scale-free (9 + O(eps))-stretch name-independent routing scheme of
    Theorem 1.1 (Section 3.3, Algorithms 3-4).

    Two families of search trees replace the log Delta per-level
    directories of Theorem 1.4:

    - type B (packing balls): for every scale j and every packed ball
      B in B_j with center c, a search tree on B's 2^j members stores the
      (name, label) pairs of the 2^(j+2) nodes closest to c — four pairs
      per tree node;
    - type A (net balls): a ball B_u(2^i/eps) keeps its own search tree
      only when no packed ball covers for it — i.e. unless some B in B_j
      fits inside B_u(2^i(1/eps + 1)) while its extended ball swallows
      B_u(2^i/eps) — in which case u merely links to that ball's center
      (the H(u, i) link; Claim 3.9 bounds these by 4 log n per node).

    The Search(id, u, i) procedure (Algorithm 4) either searches the local
    type-A tree or hops to H(u, i)'s center, searches its type-B tree, and
    returns. The outer loop is Algorithm 3, unchanged. Storage is
    (1/eps)^(O(alpha)) log^3 n bits per node with no Delta dependence
    (Lemmas 3.5, 3.8). *)

type t

(** [build nt ~epsilon ~naming ~underlying] assembles packings, search
    trees, and H links (the paper pairs this with the Theorem 1.2 labeled
    scheme as [underlying]). Radii use effective epsilon min(eps, 2/5), as
    in Theorem 1.4. *)
val build :
  ?obs:Cr_obs.Trace.context ->
  ?pool:Cr_par.Pool.t ->
  Cr_nets.Netting_tree.t ->
  epsilon:float ->
  naming:Cr_sim.Workload.naming ->
  underlying:Underlying.t ->
  t

(** [walk t w ~dest_name] drives walker [w] to the node named [dest_name]
    (Algorithm 3 with Search() in place of SearchTree(), {!Forward.ni}).
    Hops are trace-tagged [Zoom i] / [Ball_search i] / [Deliver], as in
    {!Simple_ni.walk}. *)
val walk : t -> Cr_sim.Walker.t -> dest_name:int -> unit

(** [found_level t ~src ~dest_name] is the level at which Search() succeeds
    for this pair (the Figure 1 quantity). *)
val found_level : t -> src:int -> dest_name:int -> int

val naming : t -> Cr_sim.Workload.naming

(** [underlying t] is the labeled scheme all travel executes through. *)
val underlying : t -> Underlying.t

(** [compiled t] is the forwarding state {!Forward.ni} reads: the zooming
    sequences and each (level, hub)'s search site of Algorithm 4 — the
    hub's own type-A tree, or the H(u, i) link as the linked ball's center
    and type-B tree (shared with the serving engine). *)
val compiled : t -> Forward.ni

(** [type_a_count t] / [type_b_count t] are the numbers of net-ball and
    packing-ball search trees built — the balance Claims 3.6/3.7 reason
    about. *)
val type_a_count : t -> int

val type_b_count : t -> int

(** [h_links_of t u] lists the levels i in S(u) at which u links to a
    packing ball instead of keeping a tree. *)
val h_links_of : t -> int -> int list

(** [h_link_balls t u] details those links as (level i, scale j, ball
    center): Claim 3.9 bounds the number of *distinct* linked balls per
    scale j by 4 (hence 4 log n overall), which the test suite checks. *)
val h_link_balls : t -> int -> (int * int * int) list

(** [trees_containing t v] counts the search trees (both types) whose node
    set includes [v] — the quantity Lemma 3.5 bounds by
    (1/eps)^O(alpha) log n. *)
val trees_containing : t -> int -> int

val table_bits : t -> int -> int
val header_bits : t -> int
val to_scheme : t -> Cr_sim.Scheme.name_independent

(** Degraded-mode routing, as in [Simple_ni.walk_degraded]
    ({!Forward.ni_degraded}): [Blocked] moves trigger a failover that
    re-enters the zooming sequence one level up from the current
    position; returns the route status and the failover count. *)
val walk_degraded :
  t -> Cr_sim.Walker.t -> dest_name:int ->
  Cr_sim.Scheme.route_status * int

(** [degraded_scheme t ~failures] packages {!walk_degraded} over a fixed
    failure set. *)
val degraded_scheme :
  t -> failures:Cr_sim.Failures.t -> Cr_sim.Scheme.degraded
