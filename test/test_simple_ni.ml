(* Tests for the Theorem 1.4 name-independent scheme (Algorithm 3). *)

open Helpers
module Metric = Cr_metric.Metric
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Hier_labeled = Cr_core.Hier_labeled
module Sfl = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Route_trace = Cr_core.Route_trace
module Trace = Cr_obs.Trace

let nt_of m = Netting_tree.build (Hierarchy.build m)

let build ?(epsilon = 0.5) ?(seed = 42) m =
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed in
  let hl = Hier_labeled.build nt ~epsilon in
  let t =
    Simple_ni.build nt ~epsilon ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  (t, naming)

let check_all_pairs m (t, naming) =
  let s = Simple_ni.to_scheme t in
  List.iter
    (fun (src, dst) ->
      let o =
        s.Scheme.route_to_name ~src
          ~dest_name:naming.Workload.name_of.(dst)
      in
      check_bool "cost >= distance" true
        (o.Scheme.cost >= Metric.dist m src dst -. 1e-9))
    (Workload.all_pairs (Metric.n m))

let test_delivery_grid () =
  let m = grid6 () in
  check_all_pairs m (build m)

let test_delivery_holey () =
  let m = holey () in
  check_all_pairs m (build m)

let test_delivery_expo () =
  let m = expo12 () in
  check_all_pairs m (build m)

let test_stretch_envelope () =
  let m = grid8 () in
  let t, naming = build m in
  let s = Simple_ni.to_scheme t in
  let summary =
    Stats.measure_name_independent m s naming
      (Workload.all_pairs (Metric.n m))
  in
  (* Lemma 3.4's constant at eps_eff = 0.4 is 1 + 8(1/e+1)/(1/e-2) = 57;
     measured behaviour sits near the asymptotic 9. *)
  check_bool
    (Printf.sprintf "max stretch %.3f <= 13" summary.max_stretch)
    true (summary.max_stretch <= 13.0)

let test_identity_naming () =
  (* The scheme must not depend on names being random. *)
  let m = grid6 () in
  let nt = nt_of m in
  let naming = Workload.identity_naming (Metric.n m) in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let t =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  check_all_pairs m (t, naming)

let test_composes_with_scale_free_underlying () =
  (* Theorem 1.4's layer over Theorem 1.2's labeled scheme. *)
  let m = ring16 () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:9 in
  let sfl = Sfl.build nt ~epsilon:0.5 in
  let t =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Sfl.to_underlying sfl)
  in
  check_all_pairs m (t, naming)

(* Figure 1's per-level costs are the trace's phase sums: Zoom/Ball_search
   phases only up to the found level, then the delivery. *)
let test_level_phases () =
  let m = holey () in
  let t, naming = build m in
  let dst = Metric.n m - 1 in
  let dest_name = naming.Workload.name_of.(dst) in
  let r =
    Route_trace.capture m ~src:0 ~dst ~walk:(fun w ->
        Simple_ni.walk t w ~dest_name)
  in
  let found = Simple_ni.found_level t ~src:0 ~dest_name in
  let phases = Route_trace.phase_costs r in
  check_bool "at least one level" true (phases <> []);
  List.iter
    (fun (p, c) ->
      check_bool "costs non-negative" true (c >= 0.0);
      match p with
      | Trace.Zoom i | Trace.Ball_search i ->
        check_bool "levels up to the found one" true (i <= found)
      | Trace.Deliver -> ()
      | _ -> Alcotest.fail "unexpected phase")
    phases;
  check_bool "found level searched" true
    (List.mem_assoc (Trace.Ball_search found) phases
    || found = 0 (* a level-0 hit may cost nothing *));
  check_float "phase sums reproduce the cost" r.Route_trace.cost
    (Route_trace.phase_cost_total r)

let test_found_level_consistent () =
  let m = grid6 () in
  let t, naming = build m in
  for dst = 1 to Metric.n m - 1 do
    let lvl = Simple_ni.found_level t ~src:0 ~dest_name:naming.Workload.name_of.(dst) in
    check_bool "level in range" true (lvl >= 0)
  done

let test_table_bits_include_underlying () =
  let m = grid6 () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:4 in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let t =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  for v = 0 to Metric.n m - 1 do
    check_bool "NI table exceeds underlying table" true
      (Simple_ni.table_bits t v > Hier_labeled.table_bits hl v)
  done

let prop_delivery_random =
  qcheck_case ~count:10 "simple NI: delivery on random graphs and namings"
    QCheck2.Gen.(
      let* n = int_range 8 28 in
      let* seed = int_range 0 2_000 in
      return (n, seed))
    (fun (n, seed) ->
      let m = Metric.of_graph (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed) in
      let t, naming = build m ~seed:(seed + 1) in
      let s = Simple_ni.to_scheme t in
      List.for_all
        (fun (src, dst) ->
          let o =
            s.Scheme.route_to_name ~src
              ~dest_name:naming.Workload.name_of.(dst)
          in
          o.Scheme.cost >= Metric.dist m src dst -. 1e-9)
        (Workload.sample_pairs ~n ~count:40 ~seed:(seed + 2)))

let suite =
  [ Alcotest.test_case "delivers on grid" `Quick test_delivery_grid;
    Alcotest.test_case "delivers on holey grid" `Quick test_delivery_holey;
    Alcotest.test_case "delivers on exponential chain" `Quick
      test_delivery_expo;
    Alcotest.test_case "stretch envelope" `Quick test_stretch_envelope;
    Alcotest.test_case "identity naming" `Quick test_identity_naming;
    Alcotest.test_case "composes with Thm 1.2 underlying" `Quick
      test_composes_with_scale_free_underlying;
    Alcotest.test_case "per-level phase costs" `Quick test_level_phases;
    Alcotest.test_case "found_level in range" `Quick
      test_found_level_consistent;
    Alcotest.test_case "tables include underlying" `Quick
      test_table_bits_include_underlying;
    prop_delivery_random ]

let test_min_level_relaxation () =
  (* truncated directories still deliver everywhere; tables shrink;
     far pairs are unaffected *)
  let m = holey () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:42 in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  let full =
    Simple_ni.build nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  let relaxed =
    Simple_ni.build ~min_level:2 nt ~epsilon:0.5 ~naming
      ~underlying:(Hier_labeled.to_underlying hl)
  in
  check_all_pairs m (relaxed, naming);
  let sum t =
    let acc = ref 0 in
    for v = 0 to Metric.n m - 1 do
      acc := !acc + Simple_ni.table_bits t v
    done;
    !acc
  in
  check_bool "tables shrink" true (sum relaxed < sum full);
  (* a pair found at a high level by the full scheme costs the same *)
  let far_pair =
    List.find
      (fun (src, dst) ->
        Simple_ni.found_level full ~src
          ~dest_name:naming.Workload.name_of.(dst)
        >= 3)
      (Workload.all_pairs (Metric.n m))
  in
  let cost t (src, dst) =
    ((Simple_ni.to_scheme t).Cr_sim.Scheme.route_to_name ~src
       ~dest_name:naming.Workload.name_of.(dst))
      .Cr_sim.Scheme.cost
  in
  check_float "far pair unaffected" (cost full far_pair)
    (cost relaxed far_pair)

let test_min_level_validation () =
  let m = grid6 () in
  let nt = nt_of m in
  let naming = Workload.random_naming ~n:(Metric.n m) ~seed:1 in
  let hl = Hier_labeled.build nt ~epsilon:0.5 in
  Alcotest.check_raises "min_level too large"
    (Invalid_argument "Simple_ni.build: min_level out of range") (fun () ->
      ignore
        (Simple_ni.build ~min_level:99 nt ~epsilon:0.5 ~naming
           ~underlying:(Hier_labeled.to_underlying hl)))

let suite =
  suite
  @ [ Alcotest.test_case "min_level relaxation" `Quick
        test_min_level_relaxation;
      Alcotest.test_case "min_level validation" `Quick
        test_min_level_validation ]
