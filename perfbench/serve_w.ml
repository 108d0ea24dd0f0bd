(* Workload serve-geo1k: the serving workload. All four paper schemes plus
   the full-table and landmark comparators, compiled to six engines, serve
   uniform keyed pairs with telemetry off. Each engine gets single-caller
   Engine.route, pooled Engine.batch and a next_hop sweep. The serving
   helpers here are shared with observed-zipf-geo1k. *)

module Engine = Cr_serve.Engine
module Metric = Cr_metric.Metric
module Scheme = Cr_sim.Scheme
module Stats = Cr_sim.Stats
module Workload = Cr_sim.Workload
module Hier = Cr_core.Hier_labeled
module Sfl = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Sfni = Cr_core.Scale_free_ni

let epsilon = 0.5

(* Stretch ceilings at epsilon = 0.5. Every pair: 1 + 2 eps for the
   labeled schemes (Lemma 3.1, Thm 1.2), as tools/report/check.ml applies
   it; 1 for full tables; 3 for landmark routing. The name-independent
   schemes' 9 + O(eps) is asymptotic in distance (level-0 lookups pay
   more; EXPERIMENTS.md E7), so every pair is held to Lemma 3.4's constant
   1 + 8 (1/e + 1) / (1/e - 2) at e = min(eps, 2/5), i.e. 57, and the p99
   to check.ml's intact-graph gate: 1.03 (9 + eps + 2/eps). Pairs above
   9 + eps + 2/eps are counted, not failed. *)
let labeled_ceiling = 1.0 +. (2.0 *. epsilon)
let ni_shape_ceiling = 9.0 +. epsilon +. (2.0 /. epsilon)
let ni_p99_ceiling = 1.03 *. ni_shape_ceiling

let ni_pair_ceiling =
  let e = Float.min epsilon 0.4 in
  1.0 +. (8.0 *. ((1.0 /. e) +. 1.0) /. ((1.0 /. e) -. 2.0))

(* Route cost and shortest distance are independently rounded path sums. *)
let slack = 1.0 +. 1e-9

type engine = {
  eng : Engine.t;
  walk : src:int -> dst:int -> Scheme.outcome;  (* the scheme's own walker *)
  ceiling : float;  (* every pair *)
  p99_ceiling : float option;
  flat : bool;  (* allocation-free next_hop (hier, full, landmark) *)
}

let kind e = Engine.kind e.eng

let graph_n = function Env.Full -> 1024 | Env.Tiny -> 96

(* E20's geo-1024 instance (bench/common.ml), relabeled by the seed. *)
let graph_seed = 11
let pair_count = function Env.Full -> 4096 | Env.Tiny -> 256
let walk_check_count = function Env.Full -> 128 | Env.Tiny -> 32

(* The dense set-up shared with observed-zipf-geo1k: graph, APSP matrix,
   netting tree, naming. *)
let dense_base (env : Env.t) =
  let tr = env.Env.tr in
  let n = graph_n env.Env.size in
  let g =
    Tracer.span tr "graphgen.geometric" (fun () ->
        Env.relabel env (Cr_graphgen.Geometric.knn ~n ~k:3 ~seed:graph_seed))
  in
  let naming =
    Tracer.span tr "graphgen.naming" (fun () ->
        Workload.random_naming ~n ~seed:(Env.sub_seed env 2))
  in
  let m =
    Tracer.span tr "distance.apsp" (fun () ->
        Metric.of_graph ~pool:env.Env.pool g)
  in
  let nt =
    Tracer.span tr "construct.nets" (fun () ->
        Cr_nets.Netting_tree.build (Cr_nets.Hierarchy.build m))
  in
  (m, nt, naming)

let to_name naming (s : Scheme.name_independent) ~src ~dst =
  s.Scheme.route_to_name ~src ~dest_name:naming.Workload.name_of.(dst)

let setup (env : Env.t) () =
  let tr = env.Env.tr and pool = env.Env.pool in
  let m, nt, naming = dense_base env in
  let build name f = Tracer.span tr ("construct." ^ name) f in
  let encode name f = Tracer.span tr ("encode." ^ name) f in
  let hl = build "hier" (fun () -> Hier.build ~pool nt ~epsilon) in
  let sfl = build "sfl" (fun () -> Sfl.build ~pool nt ~epsilon) in
  let sni =
    build "simple-ni" (fun () ->
        Simple_ni.build ~pool nt ~epsilon ~naming
          ~underlying:(Hier.to_underlying hl))
  in
  let sfni =
    build "sf-ni" (fun () ->
        Sfni.build ~pool nt ~epsilon ~naming
          ~underlying:(Sfl.to_underlying sfl))
  in
  let lm =
    build "landmark" (fun () ->
        Cr_baselines.Landmark.build m ~seed:(Env.sub_seed env 3))
  in
  let e_hier = encode "hier" (fun () -> Engine.compile_hier ~pool hl) in
  let e_sfl =
    encode "sfl" (fun () -> Engine.compile_scale_free_labeled ~pool sfl)
  in
  let e_sni =
    encode "simple-ni" (fun () ->
        Engine.compile_simple_ni ~pool ~underlying:e_hier sni)
  in
  let e_sfni =
    encode "sf-ni" (fun () ->
        Engine.compile_scale_free_ni ~pool ~underlying:e_sfl sfni)
  in
  let e_full = encode "full" (fun () -> Engine.compile_full ~pool m) in
  let e_lm = encode "landmark" (fun () -> Engine.compile_landmark ~pool m lm) in
  let ft = Cr_baselines.Full_table.labeled m in
  let engines =
    [ { eng = e_hier;
        walk = Scheme.route_labeled (Hier.to_scheme hl);
        ceiling = labeled_ceiling;
        p99_ceiling = None;
        flat = true };
      { eng = e_sfl;
        walk = Scheme.route_labeled (Sfl.to_scheme sfl);
        ceiling = labeled_ceiling;
        p99_ceiling = None;
        flat = false };
      { eng = e_sni;
        walk = to_name naming (Simple_ni.to_scheme sni);
        ceiling = ni_pair_ceiling;
        p99_ceiling = Some ni_p99_ceiling;
        flat = false };
      { eng = e_sfni;
        walk = to_name naming (Sfni.to_scheme sfni);
        ceiling = ni_pair_ceiling;
        p99_ceiling = Some ni_p99_ceiling;
        flat = false };
      { eng = e_full;
        walk = Scheme.route_labeled ft;
        ceiling = 1.0;
        p99_ceiling = None;
        flat = true };
      { eng = e_lm;
        walk = Cr_baselines.Landmark.route lm;
        ceiling = 3.0;
        p99_ceiling = None;
        flat = true } ]
  in
  (m, engines)

(* ---- Serving measurements (shared with observed-zipf-geo1k) ---- *)

(* One single-caller block: Engine.route on [pairs] in order, each timed,
   cycling until p99 has ten samples beyond it. Returns the latencies
   (us), in block order, and the block's routes/s. *)
let latency_block ?cost ?live eng pairs =
  let np = Array.length pairs in
  let count = Int.max np (Stat.samples_needed 0.99) in
  let lat = Array.make count 0.0 in
  let t_start = Clock.now_ns () in
  for i = 0 to count - 1 do
    let src, dst = pairs.(i mod np) in
    let t0 = Clock.now_ns () in
    ignore (Engine.route ?cost ?live eng ~src ~dst);
    lat.(i) <- float_of_int (Clock.now_ns () - t0) *. 1e-3
  done;
  let secs = float_of_int (Clock.now_ns () - t_start) *. 1e-9 in
  (lat, float_of_int count /. secs)

let timed_rate ~work f =
  let v, dt = Env.timed f in
  (v, work /. dt)

let lookup_pairs n = Array.init 10_000 (fun i -> (i mod n, i * 7919 mod n))

let rec sweep eng pairs i acc =
  if i = Array.length pairs then acc
  else
    let src, dst = pairs.(i) in
    sweep eng pairs (i + 1) (acc + Engine.next_hop eng ~src ~dst)

(* ns per next_hop over one 10k-lookup sweep. *)
let lookup_ns eng lp =
  let (), per_s =
    timed_rate ~work:(float_of_int (Array.length lp)) (fun () ->
        ignore (Sys.opaque_identity (sweep eng lp 0 0)))
  in
  1e9 /. per_s

(* Minor words allocated by one 10k-lookup sweep after a warm-up sweep. *)
let next_hop_alloc eng =
  let lp = lookup_pairs (Engine.n eng) in
  let warm = sweep eng lp 0 0 in
  let before = Gc.minor_words () in
  let again = sweep eng lp 0 0 in
  let after = Gc.minor_words () in
  if warm <> again then nan else after -. before

let same (a : Scheme.outcome) (b : Scheme.outcome) =
  Float.equal a.Scheme.cost b.Scheme.cost && a.Scheme.hops = b.Scheme.hops

let total_hops outs =
  Array.fold_left (fun acc (o : Scheme.outcome) -> acc + o.Scheme.hops) 0 outs

(* Stretch summary of one engine's outputs on [pairs], checked against
   the engine's ceilings. Also returns how many pairs exceed
   9 + eps + 2/eps. *)
let stretch_checked (env : Env.t) m e pairs (outs : Scheme.outcome array) =
  let samples =
    Array.to_list
      (Array.mapi
         (fun i (src, dst) ->
           (Metric.dist m src dst, outs.(i).Scheme.cost, outs.(i).Scheme.hops))
         pairs)
  in
  let summary = Stats.summarize samples in
  List.iteri
    (fun i (d, c, _) ->
      Env.check env
        (c <= e.ceiling *. slack *. d)
        (Printf.sprintf "%s: stretch %.6f over ceiling %.3f on pair %d"
           (kind e) (c /. d) e.ceiling i))
    samples;
  Option.iter
    (fun ceiling ->
      let p99 = summary.Stats.p99_stretch in
      Env.check env (p99 <= ceiling)
        (Printf.sprintf "%s: p99 stretch %.6f over ceiling %.4f" (kind e) p99
           ceiling))
    e.p99_ceiling;
  let over =
    List.length
      (List.filter (fun (d, c, _) -> c > ni_shape_ceiling *. d) samples)
  in
  (summary, over)

(* Served = walked, exact cost and hops, on the first [k] pairs. *)
let walk_checked (env : Env.t) e pairs (outs : Scheme.outcome array) k =
  for i = 0 to Int.min k (Array.length pairs) - 1 do
    let src, dst = pairs.(i) in
    let w = e.walk ~src ~dst in
    Env.check env (same w outs.(i))
      (Printf.sprintf "%s: served route differs from walked on pair %d"
         (kind e) i)
  done

(* Engine.route = Engine.batch on every pair, from one sequential pass
   that also yields the pass's minor words per route. *)
let route_checked ?cost ?live (env : Env.t) e pairs outs =
  let w0 = Gc.minor_words () in
  let single =
    Array.map (fun (src, dst) -> Engine.route ?cost ?live e.eng ~src ~dst) pairs
  in
  let words = Gc.minor_words () -. w0 in
  Array.iteri
    (fun i o ->
      Env.check env (same o outs.(i))
        (Printf.sprintf "%s: Engine.route differs from Engine.batch on pair %d"
           (kind e) i))
    single;
  words /. float_of_int (Array.length pairs)

(* Per-round measurements of one engine, carried across set-ups (by
   engine position; an accumulator holds no engine, so a set-up's state
   is garbage once its share of the rounds is done). *)
type acc = {
  mutable lat_best : float array;
      (* each single-caller route's best latency over the rounds, us, in
         block order: a burst of contention on a shared host then moves a
         percentile only if it hit the same routes in every round *)
  mutable singles : float list;  (* single-caller routes/s per round *)
  mutable batches : float list;  (* Engine.batch routes/s per round *)
  mutable extra : float list;  (* workload-specific per-round timing *)
}

let acc () =
  { lat_best = [||]; singles = []; batches = []; extra = [] }

let add_latency a (lat, rate) =
  if a.lat_best = [||] then a.lat_best <- Array.copy lat
  else
    Array.iteri (fun i x -> a.lat_best.(i) <- Float.min a.lat_best.(i) x) lat;
  a.singles <- rate :: a.singles

(* One engine's reported results. *)
type served = {
  s_e : engine;
  p50 : float;  (* us *)
  p99 : float;
  batch_rate : float;  (* routes/s through Engine.batch *)
  single_rate : float;  (* routes/s of the single caller *)
  rounds_n : int;
  hops_per_route : float;
  alloc_per_route : float;
  summary : Stats.summary;
  over_shape : int;  (* pairs above 9 + eps + 2/eps *)
}

let served_of a e ~hops_per_route ~alloc_per_route ~summary ~over_shape =
  let arr l = Array.of_list l in
  let lat = Stat.sorted_copy a.lat_best in
  { s_e = e;
    p50 = Stat.nearest_rank lat 0.5;
    p99 = Stat.nearest_rank lat 0.99;
    batch_rate = Stat.best_high (arr a.batches);
    single_rate = Stat.best_high (arr a.singles);
    rounds_n = List.length a.batches;
    hops_per_route;
    alloc_per_route;
    summary;
    over_shape }

let compiled_bits_avg eng =
  let n = Engine.n eng in
  let sum = ref 0 in
  for v = 0 to n - 1 do
    sum := !sum + Engine.compiled_bits eng v
  done;
  float_of_int !sum /. float_of_int n

(* The per-engine detail rows both serving workloads print when traced. *)
let detail_rows s =
  let k = kind s.s_e in
  let row name unit v = (Printf.sprintf "serve.%s.%s" name k, unit, v) in
  [ row "route_p50_us" "us" s.p50;
    row "route_p99_us" "us" s.p99;
    row "rounds" "count" (float_of_int s.rounds_n);
    row "routes_per_s" "1/s" s.batch_rate;
    row "single_routes_per_s" "1/s" s.single_rate;
    row "hops_per_route" "count" s.hops_per_route;
    row "ns_per_hop" "ns" (s.p50 *. 1e3 /. s.hops_per_route);
    row "alloc_words_per_route" "count" s.alloc_per_route;
    row "compiled_bits_avg" "bit" (compiled_bits_avg s.s_e.eng);
    row "bytes_per_node" "B" (Engine.bytes_per_node s.s_e.eng);
    (Printf.sprintf "par.batch_speedup.%s" k, "ratio",
     s.batch_rate /. s.single_rate) ]

(* Counts every serving workload fills for its engines. *)
let engine_counts s =
  let k = kind s.s_e in
  [ ("serve.hops_per_route." ^ k, s.hops_per_route);
    ("serve.alloc_words_per_route." ^ k, s.alloc_per_route);
    ("serve.compiled_bits_avg." ^ k, compiled_bits_avg s.s_e.eng);
    ("serve.bytes_per_node." ^ k, Engine.bytes_per_node s.s_e.eng);
    ("par.batch_speedup." ^ k, s.batch_rate /. s.single_rate) ]

(* End-to-end aggregation over a workload's engines. *)
let e2e_of served ~setup_s =
  let gm f = Stat.geomean (List.map f served) in
  [ ("setup_s", setup_s);
    ("ops_per_s", gm (fun s -> s.batch_rate));
    ("op_p50_us", gm (fun s -> s.p50));
    ("op_p99_us", gm (fun s -> s.p99));
    ("work_per_op", gm (fun s -> s.hops_per_route));
    ("bits_per_node", gm (fun s -> compiled_bits_avg s.s_e.eng)) ]

let quality_counts served =
  [ ("eval.stretch_avg",
     Stat.geomean (List.map (fun s -> s.summary.Stats.avg_stretch) served));
    ("eval.stretch_max",
     List.fold_left (fun acc s -> Float.max acc s.summary.Stats.max_stretch)
       0.0 served);
    ("eval.pairs_over_ni_shape",
     float_of_int (List.fold_left (fun acc s -> acc + s.over_shape) 0 served))
  ]

(* ---- The workload ---- *)

(* Rounds serve the first [round_pairs] pairs, the same pairs every round,
   so a run holds many short rounds; the checks and exact counts use the
   whole stream. *)
let round_pairs = function Env.Full -> 1024 | Env.Tiny -> 256

(* The accumulators for a fresh set-up's engines: created on the first. *)
let bind accs engines =
  if !accs = [] then accs := List.map (fun _ -> acc ()) engines;
  List.combine !accs engines

let run (env : Env.t) =
  let tr = env.Env.tr and pool = env.Env.pool in
  let reps = 3 in
  let n = graph_n env.Env.size in
  let pairs =
    Array.of_list
      (Workload.sample_pairs ~n ~count:(pair_count env.Env.size)
         ~seed:(Env.sub_seed env 4))
  in
  let np = Array.length pairs in
  let rp = Array.sub pairs 0 (round_pairs env.Env.size) in
  let nr = Array.length rp in
  let lp = lookup_pairs n in
  let accs = ref [] in
  let measure (_, engines) ~seconds =
    let pairs_of = bind accs engines in
    (* untimed warm-up sweep *)
    List.iter
      (fun e ->
        ignore (Engine.batch ~pool e.eng rp);
        ignore (latency_block e.eng rp);
        ignore (sweep e.eng lp 0 0))
      engines;
    Env.rounds env ~seconds (fun _ ->
        List.iter
          (fun (a, e) ->
            let k = kind e in
            add_latency a
              (Tracer.op tr ("forward.route." ^ k) (fun () ->
                   latency_block e.eng rp));
            let _, rate =
              Tracer.op tr ("forward.batch." ^ k) (fun () ->
                  timed_rate ~work:(float_of_int nr) (fun () ->
                      Engine.batch ~pool e.eng rp))
            in
            a.batches <- rate :: a.batches;
            a.extra <-
              Tracer.op tr ("forward.next_hop." ^ k) (fun () ->
                  lookup_ns e.eng lp)
              :: a.extra;
            Env.attempt env (2 * nr))
          pairs_of)
  in
  let (m, engines), setup_s = Env.setups env ~reps ~measure (setup env) in
  let accs = List.combine !accs engines in
  let results =
    List.map
      (fun (a, e) ->
        Tracer.op tr ("eval.check." ^ kind e) (fun () ->
            let outs = Engine.batch ~pool e.eng pairs in
            Env.attempt env np;
            let summary, over_shape = stretch_checked env m e pairs outs in
            walk_checked env e pairs outs (walk_check_count env.Env.size);
            let fb0 = Engine.fallbacks e.eng in
            let alloc_per_route = route_checked env e pairs outs in
            let fallbacks = Engine.fallbacks e.eng - fb0 in
            if e.flat then begin
              let w = next_hop_alloc e.eng in
              Env.check env (Float.equal w 0.0)
                (Printf.sprintf "%s: next_hop sweep allocated %.0f minor words"
                   (kind e) w)
            end;
            let s =
              served_of a e
                ~hops_per_route:
                  (float_of_int (total_hops outs) /. float_of_int np)
                ~alloc_per_route ~summary ~over_shape
            in
            (s, Stat.best_low (Array.of_list a.extra),
             float_of_int fallbacks /. float_of_int np)))
      accs
  in
  let served = List.map (fun (s, _, _) -> s) results in
  let sfl_fallbacks =
    List.fold_left
      (fun acc (s, _, fb) -> if kind s.s_e = "sfl" then fb else acc)
      0.0 results
  in
  { Env.e2e = e2e_of served ~setup_s;
    counts =
      List.concat_map engine_counts served
      @ quality_counts served
      @ [ ("serve.fallbacks_per_route.sfl", sfl_fallbacks) ];
    detail =
      List.concat_map
        (fun (s, lookup, _) ->
          detail_rows s
          @ [ (Printf.sprintf "serve.lookup_ns.%s" (kind s.s_e), "ns", lookup) ])
        results
      @ [ ("serve.fallbacks_per_route.sfl", "count", sfl_fallbacks) ];
    setup_s;
    setup_reps = reps }
