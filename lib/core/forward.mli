(** Each paper scheme's forwarding algorithm, written once.

    A driver makes one scheme's forwarding decisions from that scheme's
    compiled state and executes every movement through an {!exec}. The
    schemes' own [walk]s run a driver on a {!walker} executor;
    [Cr_serve.Engine] runs the same driver on its lean serving cursor and
    on a first-move probe. Executors apply the exact [Walker] semantics
    (same float operations in the same order), so every binding of one
    driver produces the same route, cost and hop count.

    Compiled state is built once, by each scheme's [build]; the records
    below are shared immutable views (apart from the fallback counter). *)

(** {1 Executors} *)

type exec = {
  position : unit -> int;
  cost : unit -> float;  (** cost travelled so far *)
  step : int -> unit;  (** one graph edge, as [Walker.step] *)
  jump : int -> float -> unit;  (** out-of-band move, as [Walker.teleport] *)
  path : int -> unit;  (** canonical shortest path, as [walk_shortest_path] *)
  phase : 'a. Cr_obs.Trace.phase -> (unit -> 'a) -> 'a;
      (** hop attribution, outer phase wins, as [Walker.with_phase] *)
}

(** [walker w] executes on a real walker (trace, trail, failures). *)
val walker : Cr_sim.Walker.t -> exec

(** {1 Lemma 3.1: ring descent} *)

type hier = {
  h_tables : Tables.t;  (** every level's rings *)
  h_label : int array;  (** node -> netting-tree label *)
  h_node_of : int array;  (** label -> node *)
}

(** [labels nt] is the [(h_label, h_node_of)] pair of netting tree [nt]. *)
val labels : Cr_nets.Netting_tree.t -> int array * int array

(** [hier h ex ~dest_label] repeatedly steps toward the lowest-level ring
    member whose range covers the label. Hops are tagged [Net_phase]
    unless an outer phase is active. *)
val hier : hier -> exec -> dest_label:int -> unit

(** {1 Netting descent: the guaranteed-delivery fallback}

    Climb the packet's zooming sequence to the netting-tree root, then
    descend ranges to the destination label. The paper's schemes always
    deliver under their theorems' premises; this is an engineering safety
    net so that an implementation-level corner case (e.g. float ties
    shifting a ring boundary) degrades to a correct but expensive route
    instead of a lost packet. Its storage is excluded from the measured
    routing tables. *)

type descent = {
  d_nt : Cr_nets.Netting_tree.t;
  d_zoom : Cr_nets.Zoom.t;
  d_top : int;
}

val build_descent : Cr_nets.Netting_tree.t -> descent

(** [descent d ex ~dest_label] drives from wherever the packet is to the
    labeled node along real shortest paths between consecutive net
    points. *)
val descent : descent -> exec -> dest_label:int -> unit

(** {1 Theorem 1.2: Algorithm 5} *)

type sfl = {
  s_tables : Tables.t;  (** selected-level rings *)
  s_label : int array;
  s_node_of : int array;
  s_eps_eff : float;
  s_scales : int;  (** packing scale count *)
  s_radii : float array;  (** u * scales + j -> r_u(2^j) *)
  s_vor_owner : int array;  (** j * n + v -> v's cell center *)
  s_vor_parent : int array;  (** j * n + v; -1 at centers *)
  s_routers : (int, Cr_tree.Interval_routing.t) Hashtbl.t array;
      (** per scale: center -> T_c(j) *)
  s_search : (int, Cr_search.Search_tree.t) Hashtbl.t array;
      (** per scale: center -> search tree II *)
  s_descent : descent;
  s_fallbacks : int Atomic.t;
      (** netting-descent fallbacks taken (atomic: pooled evaluation routes
          on several domains) *)
}

(** Phase breakdown of one Algorithm 5 route — the data Figure 2
    illustrates. [exit_level] and [scale] are -1 when the ring phase
    delivered the packet by itself. *)
type phase_report = {
  exit_level : int;
  scale : int;
  ring_cost : float;
  climb_cost : float;
  search_cost : float;
  tree_cost : float;
}

(** [sfl s ex ~dest_label] runs Algorithm 5: greedy ring descent while
    levels shrink and the target stays far (lines 1-6), then the packing
    scale matching the exit level: climb the Voronoi cell tree (line 8),
    look up the local tree label (line 9), tree-route (line 10). Hops are
    tagged [Net_phase], [Voronoi_phase], [Search_tree_phase] and
    [Fallback]. [observe] is called once on the fast path (not on
    fallback). *)
val sfl :
  ?observe:(phase_report -> unit) -> sfl -> exec -> dest_label:int -> unit

(** {1 Theorems 1.4 and 1.1: Algorithm 3}

    The two name-independent schemes differ only in their first level
    and their search sites. *)

(** A level-[i] search site of Algorithm 4: the hub's own tree
    (Theorem 1.4 always; Theorem 1.1's type A), or the H(u, i) link to a
    packed ball's center and its type-B tree. *)
type site =
  | Local of Cr_search.Search_tree.t
  | Link of int * Cr_search.Search_tree.t

type ni = {
  n_zoom : Cr_nets.Zoom.t;
  n_first : int;  (** the level the lookup loop starts at *)
  n_top : int;
  n_sites : (int * int, site) Hashtbl.t;  (** (level, hub) -> site *)
  n_label : int -> int;  (** the underlying labeled scheme's labels *)
  n_under : exec -> dest_label:int -> unit;
      (** the underlying labeled driver: every leg travels through it *)
}

(** [ni t ex ~dest_name] runs Algorithm 3: at each level from [n_first],
    reach the source's zooming-sequence hub (hops tagged [Zoom i]), search
    its site ([Ball_search i]), and on a hit deliver through the
    underlying scheme ([Deliver]). Raises [Invalid_argument] if the name
    is not found at the top level. *)
val ni : ni -> exec -> dest_name:int -> unit

(** [ni_degraded t w ~dest_name] is [ni] with failover: when walker [w]
    raises [Blocked], the packet abandons the level and re-enters the
    zooming sequence one level up from its current position; hops after
    the first failover are tagged [Faults]. Returns the route status and
    the failover count; [Undeliverable] when the top level is exhausted
    or the hop budget runs out. *)
val ni_degraded :
  ni -> Cr_sim.Walker.t -> dest_name:int -> Cr_sim.Scheme.route_status * int

(** [found_level t ~src ~dest_name] is the level at which the lookup
    succeeds for this pair (the Figure 1 quantity), without moving a
    packet. Raises [Invalid_argument] if the name is not found. *)
val found_level : ni -> src:int -> dest_name:int -> int
