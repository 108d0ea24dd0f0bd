module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Zoom = Cr_nets.Zoom
module Interval_routing = Cr_tree.Interval_routing
module Search_tree = Cr_search.Search_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Trace = Cr_obs.Trace

type exec = {
  position : unit -> int;
  cost : unit -> float;
  step : int -> unit;
  jump : int -> float -> unit;
  path : int -> unit;
  phase : 'a. Trace.phase -> (unit -> 'a) -> 'a;
}

let walker w =
  { position = (fun () -> Walker.position w);
    cost = (fun () -> Walker.cost w);
    step = (fun v -> Walker.step w v);
    jump = (fun v c -> Walker.teleport w v ~cost:c);
    path = (fun v -> Walker.walk_shortest_path w v);
    phase = (fun p f -> Walker.with_phase w p f) }

(* {2 Lemma 3.1} *)

type hier = {
  h_tables : Tables.t;
  h_label : int array;
  h_node_of : int array;
}

let labels nt =
  let n = Metric.n (Hierarchy.metric (Netting_tree.hierarchy nt)) in
  let label = Array.init n (fun v -> Netting_tree.label nt v) in
  let node_of = Array.make n 0 in
  Array.iteri (fun v l -> node_of.(l) <- v) label;
  (label, node_of)

let hier h ex ~dest_label =
  ex.phase Trace.Net_phase @@ fun () ->
  let dest = h.h_node_of.(dest_label) in
  let rec loop () =
    let at = ex.position () in
    if at <> dest then begin
      let hop = Tables.next_hop h.h_tables ~at ~label:dest_label in
      (* The top-level ring covers every label (the root's range is all of
         [0, n)), and the minimal covering member is never the current
         node short of arrival: at a positive level the next level down
         would also cover (the zooming step is within the ring radius),
         contradicting minimality; at level 0 we would have arrived. *)
      assert (hop >= 0 && hop <> at);
      ex.step hop;
      loop ()
    end
  in
  loop ()

(* {2 Netting descent} *)

type descent = {
  d_nt : Netting_tree.t;
  d_zoom : Zoom.t;
  d_top : int;
}

let build_descent nt =
  let h = Netting_tree.hierarchy nt in
  { d_nt = nt; d_zoom = Zoom.build h; d_top = Hierarchy.top_level h }

let descent d ex ~dest_label =
  let dest = Netting_tree.node_of_label d.d_nt dest_label in
  (* Climb: walk the current node's zooming sequence to the root. *)
  let start = ex.position () in
  for i = 1 to d.d_top do
    ex.path (Zoom.step d.d_zoom start i)
  done;
  (* Descend: at each level pick the child whose range covers the label. *)
  let rec down level x =
    if level = 0 then assert (x = dest)
    else begin
      let child =
        List.find
          (fun y ->
            Netting_tree.in_range
              (Netting_tree.range d.d_nt ~level:(level - 1) y)
              dest_label)
          (Netting_tree.children d.d_nt ~level x)
      in
      ex.path child;
      down (level - 1) child
    end
  in
  down d.d_top (ex.position ())

(* {2 Theorem 1.2} *)

type sfl = {
  s_tables : Tables.t;
  s_label : int array;
  s_node_of : int array;
  s_eps_eff : float;
  s_scales : int;
  s_radii : float array;
  s_vor_owner : int array;
  s_vor_parent : int array;
  s_routers : (int, Interval_routing.t) Hashtbl.t array;
  s_search : (int, Search_tree.t) Hashtbl.t array;
  s_descent : descent;
  s_fallbacks : int Atomic.t;
}

type phase_report = {
  exit_level : int;
  scale : int;
  ring_cost : float;
  climb_cost : float;
  search_cost : float;
  tree_cost : float;
}

(* Line 7 of Algorithm 5: the scale j with r_u(j) <= 2^i < r_u(j+1). *)
let matching_scale s u i =
  let two_i = Float.pow 2.0 (float_of_int i) in
  let rec go j =
    if j = 0 then 0
    else if s.s_radii.((u * s.s_scales) + j) <= two_i then j
    else go (j - 1)
  in
  go (s.s_scales - 1)

(* A search's virtual-edge trail: chained legs are charged at their
   analytic cost, every other leg is one [leg] move. *)
let search_legs ex st ~key ~leg =
  let result = Search_tree.search st ~key in
  List.iter
    (fun (l : Search_tree.leg) ->
      match l.chained_cost with
      | Some c -> ex.jump l.dst c
      | None -> leg l.dst)
    result.legs;
  result.data

let fallback s ex ~dest_label =
  Atomic.incr s.s_fallbacks;
  ex.phase Trace.Fallback (fun () -> descent s.s_descent ex ~dest_label)

let sfl ?observe s ex ~dest_label =
  let n = Array.length s.s_label in
  (* cost readings only feed the observer; served routes skip them *)
  let now () = match observe with None -> 0.0 | Some _ -> ex.cost () in
  let start_cost = now () in
  let dest = s.s_node_of.(dest_label) in
  (* Lines 1-6: greedy ring descent. *)
  let rec ring_phase prev_level =
    let at = ex.position () in
    if at = dest then `Arrived
    else
      let e = Tables.cover s.s_tables ~at ~label:dest_label in
      if e < 0 then `Fallback
      else
        let i = Tables.entry_level s.s_tables e in
        if i = 0 then begin
          (* A level-0 range is a singleton, so the member is the
             destination itself: finish along the shortest path. (At
             i_t = 0 the paper's Claim 4.6 premise "i_t - 1 not in R(u_t)"
             is vacuous and the packing phase may genuinely miss, e.g. at
             Voronoi tie boundaries; walking the remaining <= 2^0/eps
             distance directly realizes the d(u_t, v) term of Eqn 19
             exactly.) *)
          ex.path (Tables.entry_member s.s_tables e);
          `Arrived
        end
        else
          let two_i = Float.pow 2.0 (float_of_int i) in
          let threshold = (two_i /. 2.0 /. s.s_eps_eff) -. two_i in
          if i <= prev_level && Tables.entry_dist s.s_tables e >= threshold
          then begin
            ex.step (Tables.entry_hop s.s_tables e);
            ring_phase i
          end
          else `Exit i
  in
  match ex.phase Trace.Net_phase (fun () -> ring_phase max_int) with
  | `Arrived ->
    Option.iter
      (fun f ->
        f { exit_level = -1; scale = -1; ring_cost = now () -. start_cost;
            climb_cost = 0.0; search_cost = 0.0; tree_cost = 0.0 })
      observe
  | `Fallback -> fallback s ex ~dest_label
  | `Exit i_t ->
    let ring_cost = now () -. start_cost in
    let u_t = ex.position () in
    let j = matching_scale s u_t i_t in
    let c = s.s_vor_owner.((j * n) + u_t) in
    (* Line 8: climb T_c(j) to its root c along graph edges. *)
    ex.phase Trace.Voronoi_phase (fun () ->
        let rec climb () =
          let at = ex.position () in
          if at <> c then begin
            ex.step s.s_vor_parent.((j * n) + at);
            climb ()
          end
        in
        climb ());
    let climb_cost = now () -. start_cost -. ring_cost in
    (* Line 9: search tree II lookup of the local tree label; its net
       edges are walked along canonical shortest paths. *)
    let st = Hashtbl.find s.s_search.(j) c in
    (match
       ex.phase Trace.Search_tree_phase (fun () ->
           search_legs ex st ~key:dest_label ~leg:ex.path)
     with
    | Some local_label ->
      let search_cost = now () -. start_cost -. ring_cost -. climb_cost in
      (* Line 10: tree-route from c to the destination. *)
      let path, _cost =
        Interval_routing.route
          (Hashtbl.find s.s_routers.(j) c)
          ~src:c ~dest_label:local_label
      in
      ex.phase Trace.Voronoi_phase (fun () ->
          match path with
          | [] -> ()
          | _ :: rest -> List.iter (fun v -> ex.step v) rest);
      if ex.position () <> dest then fallback s ex ~dest_label
      else
        Option.iter
          (fun f ->
            f { exit_level = i_t; scale = j; ring_cost; climb_cost;
                search_cost;
                tree_cost =
                  now () -. start_cost -. ring_cost -. climb_cost
                  -. search_cost })
          observe
    | None -> fallback s ex ~dest_label)

(* {2 Theorems 1.4 and 1.1} *)

type site =
  | Local of Search_tree.t
  | Link of int * Search_tree.t

type ni = {
  n_zoom : Zoom.t;
  n_first : int;
  n_top : int;
  n_sites : (int * int, site) Hashtbl.t;
  n_label : int -> int;
  n_under : exec -> dest_label:int -> unit;
}

let under t ex v = t.n_under ex ~dest_label:(t.n_label v)

(* Algorithm 4: search the hub's own tree, or follow the H(u, i) link to a
   packed ball's center, search there, and come back. Every leg endpoint
   holds the other's routing label, so each unchained leg is one
   underlying labeled route. *)
let search t ex ~level ~hub ~key =
  match Hashtbl.find t.n_sites (level, hub) with
  | Local st -> search_legs ex st ~key ~leg:(under t ex)
  | Link (center, st) ->
    under t ex center;
    let data = search_legs ex st ~key ~leg:(under t ex) in
    under t ex hub;
    data

(* One level of Algorithm 3 from the zooming sequence of [from]: true once
   the packet is delivered. *)
let level t ex ~from ~key i =
  let hub = Zoom.step t.n_zoom from i in
  ex.phase (Trace.Zoom i) (fun () -> under t ex hub);
  match
    ex.phase (Trace.Ball_search i) (fun () -> search t ex ~level:i ~hub ~key)
  with
  | Some dest_label ->
    ex.phase Trace.Deliver (fun () -> t.n_under ex ~dest_label);
    true
  | None -> false

(* The zoom-search-deliver loop, false when the top level is exhausted. A
   [Blocked] move is handed to [failover], which re-raises (intact graphs)
   or lets the packet re-enter the zooming sequence one level up from its
   current position (its zoom hubs are valid from anywhere). *)
let rec attempt t ex ~failover ~key from i =
  if i > t.n_top then false
  else
    match level t ex ~from ~key i with
    | true -> true
    | false -> attempt t ex ~failover ~key from (i + 1)
    | exception (Walker.Blocked _ as e) ->
      failover e;
      attempt t ex ~failover ~key (ex.position ()) (i + 1)

let ni t ex ~dest_name =
  if not (attempt t ex ~failover:raise ~key:dest_name (ex.position ()) t.n_first)
  then invalid_arg "Forward.ni: name not found at the top level"

(* Every hop after the first failover is tagged [Faults]: the outer-wins
   rule keeps the tag through the inner scheme calls, so stretch inflation
   under failures is attributable hop by hop. *)
let ni_degraded t w ~dest_name =
  let reroutes = ref 0 in
  let failover _ =
    incr reroutes;
    Walker.set_phase w Trace.Faults
  in
  let status =
    match
      attempt t (walker w) ~failover ~key:dest_name (Walker.position w)
        t.n_first
    with
    | true -> if !reroutes = 0 then Scheme.Delivered else Scheme.Rerouted
    | false -> Scheme.Undeliverable
    | exception Walker.Hop_budget_exhausted -> Scheme.Undeliverable
  in
  Walker.set_phase w Trace.Unphased;
  (status, !reroutes)

let found_level t ~src ~dest_name =
  let rec go i =
    if i > t.n_top then invalid_arg "Forward.found_level: name not found"
    else
      let (Local st | Link (_, st)) =
        Hashtbl.find t.n_sites (i, Zoom.step t.n_zoom src i)
      in
      match (Search_tree.search st ~key:dest_name).data with
      | Some _ -> i
      | None -> go (i + 1)
  in
  go t.n_first
