(* E3 — empirical analog of Figure 1: an execution of the name-independent
   routing algorithm. For sample pairs at several distances, print the
   per-level climb and search costs, the level at which the destination's
   label was found, and the total cost against the 9 + O(eps) budget. *)

open Common
module Metric = Cr_metric.Metric
module Simple_ni = Cr_core.Simple_ni
module Route_trace = Cr_core.Route_trace
module Trace = Cr_obs.Trace

let run () =
  let inst =
    instance "holey-12x12"
      (Cr_graphgen.Grid.with_holes ~side:12 ~hole_fraction:0.25 ~seed:7)
  in
  let naming = naming_of inst in
  let scheme = simple_ni inst ~epsilon:default_epsilon ~naming in
  let n = Metric.n inst.metric in
  (* pick pairs of increasing distance from node 0 *)
  let src = 0 in
  let sample_dst =
    let by_dist =
      List.sort
        (fun a b -> compare (Metric.dist inst.metric src a) (Metric.dist inst.metric src b))
        (List.filter (fun v -> v <> src) (List.init n Fun.id))
    in
    let arr = Array.of_list by_dist in
    [ arr.(0); arr.(Array.length arr / 4); arr.(Array.length arr / 2);
      arr.(Array.length arr - 1) ]
  in
  print_header
    "E3 (Figure 1): per-level trace of Algorithm 3 (simple NI, holey grid)"
    [ "src->dst"; "d(u,v)"; "lvl"; "hub"; "climb"; "search"; "found" ];
  let first = (Simple_ni.compiled scheme).Cr_core.Forward.n_first in
  List.iter
    (fun dst ->
      let dest_name = naming.Cr_sim.Workload.name_of.(dst) in
      let r =
        Route_trace.capture ~max_hops:1_000_000 inst.metric ~src ~dst
          ~walk:(fun w -> Simple_ni.walk scheme w ~dest_name)
      in
      (* per-level costs are the phase-tagged hop sums of the trace *)
      let costs = Route_trace.phase_costs r in
      let phase_cost p = Option.value (List.assoc_opt p costs) ~default:0.0 in
      let found = Simple_ni.found_level scheme ~src ~dest_name in
      for level = first to found do
        print_row
          [ cell "%4d->%-4d" src dst;
            cell "%6.1f" r.Route_trace.distance;
            cell "%3d" level;
            cell "%4d" (Simple_ni.hub scheme ~src ~level);
            cell "%7.2f" (phase_cost (Trace.Zoom level));
            cell "%7.2f" (phase_cost (Trace.Ball_search level));
            (if level = found then "yes" else " no") ]
      done;
      let d = r.Route_trace.distance in
      Printf.printf
        "   total cost %.2f = stretch %.2f (budget 9+O(eps) on d = %.1f)\n"
        r.Route_trace.cost
        (r.Route_trace.cost /. d)
        d)
    sample_dst;
  print_newline ();
  print_endline
    "Paper shape (Fig 1): searches at levels below the found level all miss;";
  print_endline
    "per-level search cost doubles with the level; the climb stays within";
  print_endline "Eqn (2)'s 2^(i+1) envelope."
