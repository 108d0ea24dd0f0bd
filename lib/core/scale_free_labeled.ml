module Metric = Cr_metric.Metric
module Graph = Cr_metric.Graph
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Ball_packing = Cr_packing.Ball_packing
module Voronoi = Cr_packing.Voronoi
module Tree = Cr_tree.Tree
module Interval_routing = Cr_tree.Interval_routing
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Trace = Cr_obs.Trace

type level_info = {
  voronoi : Voronoi.t;
  routers : (int, Interval_routing.t) Hashtbl.t;  (* center -> T_c(j) *)
  search : (int, Search_tree.t) Hashtbl.t;  (* center -> T'(c, r_c(j)) *)
}

type t = {
  nt : Netting_tree.t;
  metric : Metric.t;
  rings : Rings.t;
  levels_j : level_info array;
  trees_of : Search_tree.t list array;  (* search trees containing a node *)
  path_bits : int array;  (* Lemma 4.3 next-hop storage charged per node *)
  fwd : Forward.sfl;
}

let cell_tree m voronoi center =
  let nodes = Voronoi.cell voronoi ~center in
  Tree.of_parents ~root:center ~nodes
    ~parent:(fun v -> Voronoi.parent voronoi v)
    ~weight:(fun v ->
      match Graph.edge_weight (Metric.graph m) v (Voronoi.parent voronoi v) with
      | Some w -> w
      | None -> assert false (* Dijkstra predecessors are graph neighbors *))

(* Charge the Lemma 4.3 storage: every node on the canonical shortest path
   realizing a net virtual edge keeps next-hop entries in both directions;
   chained nodes keep a local tree-routing label. *)
let charge_paths m st path_bits =
  let tree = Search_tree.tree st in
  let n = Metric.n m in
  let hop_bits = 2 * Bits.id_bits n in
  List.iter
    (fun v ->
      match Tree.parent tree v with
      | None -> ()
      | Some (p, _) ->
        if Search_tree.is_chained st v then
          path_bits.(v) <- path_bits.(v) + Bits.range_bits n
        else
          List.iter
            (fun x -> path_bits.(x) <- path_bits.(x) + hop_bits)
            (Metric.shortest_path m ~src:v ~dst:p))
    (Tree.nodes tree)

let table_bits t v =
  let n = Metric.n t.metric in
  let per_j =
    Array.fold_left
      (fun acc lv ->
        let c = Voronoi.owner lv.voronoi v in
        let router = Hashtbl.find lv.routers c in
        acc + Bits.id_bits n (* center's local label l(c; c, j) *)
        + Bits.id_bits n (* parent pointer in T_c(j) *)
        + Interval_routing.table_bits router v)
      0 t.levels_j
  in
  let search_bits =
    List.fold_left
      (fun acc st -> acc + Search_tree.table_bits st v)
      0 t.trees_of.(v)
  in
  Rings.table_bits t.rings v + per_j + search_bits + t.path_bits.(v)

(* The flat state Algorithm 5 reads: the ring arena, each node's
   per-scale radius, and each scale's Voronoi owners and parents. *)
let compile ~pool m nt rings levels_j =
  let n = Metric.n m in
  let scales = Array.length levels_j in
  let radii = Array.make (n * scales) 0.0 in
  let rows =
    Cr_par.Pool.parallel_init pool n (fun u ->
        Array.init scales (fun j -> Metric.radius_of_size m u (1 lsl j)))
  in
  Array.iteri (fun u row -> Array.blit row 0 radii (u * scales) scales) rows;
  let vor_owner = Array.make (scales * n) 0 in
  let vor_parent = Array.make (scales * n) (-1) in
  Array.iteri
    (fun j lv ->
      for v = 0 to n - 1 do
        vor_owner.((j * n) + v) <- Voronoi.owner lv.voronoi v;
        vor_parent.((j * n) + v) <- Voronoi.parent lv.voronoi v
      done)
    levels_j;
  let label, node_of = Forward.labels nt in
  { Forward.s_tables = Tables.of_rings ~pool rings; s_label = label;
    s_node_of = node_of; s_eps_eff = Rings.effective_epsilon rings;
    s_scales = scales; s_radii = radii; s_vor_owner = vor_owner;
    s_vor_parent = vor_parent;
    s_routers = Array.map (fun lv -> lv.routers) levels_j;
    s_search = Array.map (fun lv -> lv.search) levels_j;
    s_descent = Forward.build_descent nt; s_fallbacks = Atomic.make 0 }

let build ?obs ?(pool = Cr_par.Pool.default ()) nt ~epsilon =
  let ctx = Trace.resolve obs in
  Trace.span ctx "scale_free_labeled.build" @@ fun () ->
  let h = Netting_tree.hierarchy nt in
  let m = Hierarchy.metric h in
  let n = Metric.n m in
  let rings =
    Cr_par.Pool.stage ctx pool "scale_free_labeled.rings" (fun () ->
        Rings.build ~pool nt ~epsilon ~mode:Rings.Selected)
  in
  let eps_eff = Rings.effective_epsilon rings in
  let level_cap = max 1 (Bits.ceil_log2 n) in
  let trees_of = Array.make n [] in
  let path_bits = Array.make n 0 in
  let packings = Ball_packing.build_all m in
  let levels_j =
    Cr_par.Pool.stage ctx pool "scale_free_labeled.packings" @@ fun () ->
    Array.map
      (fun packing ->
        let j = Ball_packing.size_exponent packing in
        let centers = Ball_packing.centers packing in
        let voronoi = Voronoi.build m ~centers in
        let routers = Hashtbl.create (List.length centers) in
        let search = Hashtbl.create (List.length centers) in
        (* Balls are independent given the level's Voronoi partition:
           build each cell's router and search tree in parallel, then
           register sequentially in ball order (trees_of consing and the
           shared path_bits accumulator must see the sequential order). *)
        let built =
          Cr_par.Pool.parallel_map_list pool
            (fun (ball : Ball_packing.ball) ->
              let c = ball.center in
              let router = Interval_routing.build (cell_tree m voronoi c) in
              (* Pairs: cell nodes within the extended radius r_c(j+1)
                 (size clamped to n at the top scale). *)
              let ext_size = min (1 lsl (j + 1)) n in
              let ext_radius = Metric.radius_of_size m c ext_size in
              let pairs =
                List.filter_map
                  (fun v ->
                    if Metric.dist m c v <= ext_radius then
                      Some
                        ( Netting_tree.label nt v,
                          Interval_routing.label router v )
                    else None)
                  (Voronoi.cell voronoi ~center:c)
              in
              let st =
                Search_tree.build m ~epsilon:eps_eff ~center:c
                  ~radius:(Float.max ball.radius 1.0)
                  ~members:(Array.to_list ball.members)
                  ~level_cap:(Some level_cap) ~pairs ~universe:n
              in
              (c, router, st))
            (Ball_packing.balls packing)
        in
        List.iter
          (fun (c, router, st) ->
            Hashtbl.replace routers c router;
            Hashtbl.replace search c st;
            List.iter
              (fun v -> trees_of.(v) <- st :: trees_of.(v))
              (Search_tree.members st);
            charge_paths m st path_bits)
          built;
        { voronoi; routers; search })
      packings
  in
  let t =
    { nt; metric = m; rings; levels_j; trees_of; path_bits;
      fwd = compile ~pool m nt rings levels_j }
  in
  if Trace.enabled ctx then begin
    Trace.counter ctx "scale_free_labeled.packing_scales"
      (float_of_int (Array.length levels_j));
    Trace.counter ctx "scale_free_labeled.search_trees"
      (float_of_int
         (Array.fold_left
            (fun acc lv -> acc + Hashtbl.length lv.search)
            0 levels_j));
    Scheme.table_counters ctx "scale_free_labeled" (table_bits t) n
  end;
  t

let label t v = Netting_tree.label t.nt v

let rings t = t.rings
let netting_tree t = t.nt

type phase_report = Forward.phase_report = {
  exit_level : int;
  scale : int;
  ring_cost : float;
  climb_cost : float;
  search_cost : float;
  tree_cost : float;
}

let compiled t = t.fwd

let walk ?observe t w ~dest_label =
  Forward.sfl ?observe t.fwd (Forward.walker w) ~dest_label

let fallback_count t = Atomic.get t.fwd.Forward.s_fallbacks

let label_bits t = Bits.id_bits (Metric.n t.metric)

let header_bits t =
  let top = Hierarchy.top_level (Netting_tree.hierarchy t.nt) in
  (* destination label, previous ring level, phase tag, and during the tree
     phase the local tree label *)
  (2 * label_bits t) + Bits.ceil_log2 (top + 2) + 2

let default_budget m = 10_000 + (100 * Metric.n m)

let route t ~src ~dest_label =
  let w = Walker.create t.metric ~start:src ~max_hops:(default_budget t.metric) in
  walk t w ~dest_label;
  { Scheme.cost = Walker.cost w; hops = Walker.hops w }

let to_scheme t =
  { Scheme.l_name = "scale-free labeled (Thm 1.2)";
    label = label t;
    route_to_label = (fun ~src ~dest_label -> route t ~src ~dest_label);
    l_table_bits = table_bits t;
    l_label_bits = label_bits t;
    l_header_bits = header_bits t }

let to_underlying t =
  { Underlying.u_name = "scale-free labeled (Thm 1.2)";
    u_label = label t;
    u_drive = (fun ex ~dest_label -> Forward.sfl t.fwd ex ~dest_label);
    u_table_bits = table_bits t;
    u_label_bits = label_bits t;
    u_header_bits = header_bits t }
