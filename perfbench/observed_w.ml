(* Workload observed-zipf-geo1k: the same serve layer used differently.
   Only the Theorem 1.4 stack (hier + simple-ni) is built; Zipf(1.0) pairs
   are served with Cr_obs.Live telemetry on (and a Cost ledger on
   Engine.route, the only call that takes one). Live forces Engine.batch
   to serve sequentially, so telemetry writes run beside route reads;
   serve-geo1k bypasses this path. *)

module Engine = Cr_serve.Engine
module Metric = Cr_metric.Metric
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload
module Live = Cr_obs.Live
module Cost = Cr_obs.Cost
module Hier = Cr_core.Hier_labeled
module Simple_ni = Cr_core.Simple_ni

let alpha = 1.0

(* The stream is [populations] Zipf(1.0) populations of [window] routes,
   each with its own seeded popularity ranking, one per Live window. A
   single ranking would let one hot destination's distance decide the
   run's averages. *)
let populations = function Env.Full -> 16 | Env.Tiny -> 2
let window = 256

let setup (env : Env.t) () =
  let tr = env.Env.tr and pool = env.Env.pool in
  let m, nt, naming = Serve_w.dense_base env in
  let epsilon = Serve_w.epsilon in
  let hl =
    Tracer.span tr "construct.hier" (fun () -> Hier.build ~pool nt ~epsilon)
  in
  let sni =
    Tracer.span tr "construct.simple-ni" (fun () ->
        Simple_ni.build ~pool nt ~epsilon ~naming
          ~underlying:(Hier.to_underlying hl))
  in
  let e_hier =
    Tracer.span tr "encode.hier" (fun () -> Engine.compile_hier ~pool hl)
  in
  let e_sni =
    Tracer.span tr "encode.simple-ni" (fun () ->
        Engine.compile_simple_ni ~pool ~underlying:e_hier sni)
  in
  ( m,
    [ { Serve_w.eng = e_hier;
        walk = Scheme.route_labeled (Hier.to_scheme hl);
        ceiling = Serve_w.labeled_ceiling;
        p99_ceiling = None;
        flat = true };
      { Serve_w.eng = e_sni;
        walk = Serve_w.to_name naming (Simple_ni.to_scheme sni);
        ceiling = Serve_w.ni_pair_ceiling;
        p99_ceiling = Some Serve_w.ni_p99_ceiling;
        flat = false } ] )

let fresh_live () = Live.create ~window ~depth:8 ()

let ledger_edge_messages cost =
  List.fold_left
    (fun acc (e : Cost.edge_load) -> acc + e.Cost.messages)
    0 (Cost.edge_loads cost)

let run (env : Env.t) =
  let tr = env.Env.tr and pool = env.Env.pool in
  let reps = 3 in
  let n = Serve_w.graph_n env.Env.size in
  let pairs =
    Array.concat
      (List.init (populations env.Env.size) (fun j ->
           Array.of_list
             (Workload.zipf_pairs ~n ~alpha ~count:window
                ~seed:(Env.sub_seed env (100 + j)))))
  in
  let np = Array.length pairs in
  (* rounds serve the first [round_pairs] pairs (the first populations),
     the same pairs every round, so a run holds many short rounds *)
  let round_pairs = Array.sub pairs 0 (Int.min np (4 * window)) in
  let nr = Array.length round_pairs in
  let batch ?live e pairs = Engine.batch ~pool ?live e.Serve_w.eng pairs in
  let accs = ref [] in
  (* each round: the whole stream single-caller and batched with Live (and
     the Cost ledger on the single caller), then batched with telemetry
     off; [extra] holds the off/on batch rate ratio, the Live tax *)
  let measure (_, engines) ~seconds =
    let pairs_of = Serve_w.bind accs engines in
    (* untimed warm-up sweep *)
    List.iter
      (fun e ->
        ignore (batch ~live:(fresh_live ()) e round_pairs);
        ignore (batch e round_pairs))
      engines;
    Env.rounds env ~seconds (fun _ ->
        List.iter
          (fun ((a : Serve_w.acc), e) ->
            let k = Serve_w.kind e in
            let live = fresh_live () and cost = Cost.create () in
            Serve_w.add_latency a
              (Tracer.op tr ("forward.route." ^ k) (fun () ->
                   Serve_w.latency_block ~cost ~live e.Serve_w.eng
                     round_pairs));
            let _, on =
              Tracer.op tr ("forward.batch." ^ k) (fun () ->
                  let live = fresh_live () in
                  Serve_w.timed_rate ~work:(float_of_int nr) (fun () ->
                      batch ~live e round_pairs))
            in
            let _, off =
              Tracer.op tr ("forward.batch_off." ^ k) (fun () ->
                  Serve_w.timed_rate ~work:(float_of_int nr) (fun () ->
                      batch e round_pairs))
            in
            a.Serve_w.batches <- on :: a.Serve_w.batches;
            a.Serve_w.extra <- (off /. on) :: a.Serve_w.extra;
            Env.attempt env (3 * nr))
          pairs_of)
  in
  let (m, engines), setup_s = Env.setups env ~reps ~measure (setup env) in
  let accs = List.combine !accs engines in
  let results =
    List.map
      (fun ((a : Serve_w.acc), e) ->
        let k = Serve_w.kind e in
        Tracer.op tr ("eval.check." ^ k) (fun () ->
            (* the whole stream, once, with Live on: the exact counts *)
            let outs = batch ~live:(fresh_live ()) e pairs in
            Env.attempt env np;
            let summary, over_shape = Serve_w.stretch_checked env m e pairs outs in
            Serve_w.walk_checked env e pairs outs
              (Serve_w.walk_check_count env.Env.size);
            (* one observed pass with fresh accumulators: the Live edge
               totals must equal the Cost ledger *)
            let live = fresh_live () and cost = Cost.create () in
            let obs_alloc = Serve_w.route_checked ~cost ~live env e pairs outs in
            let live_edges = (Live.totals live).Live.t_edge_messages in
            let ledger = ledger_edge_messages cost in
            Env.check env (live_edges = ledger)
              (Printf.sprintf "%s: Live edge total %d <> Cost ledger %d" k
                 live_edges ledger);
            Env.check env ((Live.totals live).Live.t_routes = np)
              (Printf.sprintf "%s: Live saw %d routes, served %d" k
                 (Live.totals live).Live.t_routes np);
            let alloc_per_route = Serve_w.route_checked env e pairs outs in
            let s =
              Serve_w.served_of a e
                ~hops_per_route:
                  (float_of_int (Serve_w.total_hops outs) /. float_of_int np)
                ~alloc_per_route ~summary ~over_shape
            in
            (* the tax is a ratio of two timings from the same round *)
            let tax = Stat.median (Array.of_list a.Serve_w.extra) in
            (s, (tax, obs_alloc), ledger)))
      accs
  in
  let served = List.map (fun (s, _, _) -> s) results in
  let per prefix unit f =
    List.map
      (fun (s, obs, _) -> (prefix ^ Serve_w.kind s.Serve_w.s_e, unit, f obs))
      results
  in
  let obs_rows =
    per "obs.live_tax." "ratio" fst
    @ per "obs.alloc_words_per_route." "count" snd
    @ [ ( "obs.cost.edge_messages",
          "count",
          float_of_int
            (List.fold_left (fun acc (_, _, l) -> acc + l) 0 results) ) ]
  in
  { Env.e2e = Serve_w.e2e_of served ~setup_s;
    counts =
      List.concat_map Serve_w.engine_counts served
      @ Serve_w.quality_counts served
      @ List.map (fun (name, _, v) -> (name, v)) obs_rows;
    detail = List.concat_map (fun (s, _, _) -> Serve_w.detail_rows s) results @ obs_rows;
    setup_s;
    setup_reps = reps }
