(* Workload scale-plaw10k: the sparse tier, with no Metric matrix. A
   preferential-attachment power-law graph (the Krioukov-Fall-Yang input
   family), the lazy distance Oracle, the landmark and zooming-model
   builds, a sampled storage sweep, then Eval.measure on keyed sampled
   pairs for both schemes. The dense layers do no work here. *)

module Oracle = Cr_scale.Oracle
module Eval = Cr_scale.Eval
module Nets = Cr_scale.Nets
module Landmark_scale = Cr_scale.Landmark_scale
module Zoom_scale = Cr_scale.Zoom_scale
module Stats = Cr_sim.Stats

let epsilon = 0.5

let graph_n = function Env.Full -> 10_000 | Env.Tiny -> 600
let sources = function Env.Full -> 128 | Env.Tiny -> 8
let per_source = function Env.Full -> 40 | Env.Tiny -> 10

(* Zooming storage: sampled sweep at full size, exact on the tiny graph. *)
let storage_sample = function Env.Full -> 64 | Env.Tiny -> 0

type scheme = {
  key : string;  (* "landmark" or "zoom" *)
  sch : Eval.scheme;
  ceiling : float;
  build_settled : int;
}

type state = {
  g : Cr_metric.Graph.t;
  n : int;
  levels : int;
  schemes : scheme list;
  snap : Oracle.snapshot;  (* oracle work over the builds *)
  landmarks : int;
}

let setup (env : Env.t) () =
  let tr = env.Env.tr and pool = env.Env.pool in
  let n = graph_n env.Env.size in
  let graph =
    Tracer.span tr "graphgen.power_law" (fun () ->
        (* E22's plaw-10k instance, relabeled by the seed *)
        Env.relabel env (Cr_graphgen.Power_law.preferential ~n ~m:3 ~seed:13))
  in
  let oracle = Tracer.span tr "distance.oracle" (fun () -> Oracle.create graph) in
  let lm =
    Tracer.span tr "construct.landmark" (fun () ->
        Landmark_scale.build ~pool oracle ~seed:(Env.sub_seed env 3))
  in
  let zoom =
    Tracer.span tr "construct.zoom" (fun () -> Zoom_scale.build oracle ~epsilon)
  in
  let zst, sweep_settled =
    Tracer.span tr "encode.storage.zoom" (fun () ->
        Zoom_scale.storage ~pool ~sample:(storage_sample env.Env.size) zoom)
  in
  let lst =
    Tracer.span tr "encode.storage.landmark" (fun () ->
        Landmark_scale.storage lm)
  in
  { g = Oracle.graph oracle;
    n;
    levels = Nets.top_level (Zoom_scale.nets zoom);
    schemes =
      [ { key = "landmark";
          sch = Landmark_scale.scheme ~storage:lst lm;
          (* Thorup-Zwick stretch 3, with float-sum slack *)
          ceiling = 3.0 *. (1.0 +. 1e-9);
          build_settled = Landmark_scale.build_settled lm };
        { key = "zoom";
          sch = Zoom_scale.scheme ~storage:zst zoom;
          ceiling = Zoom_scale.stretch_ceiling zoom;
          build_settled = Nets.settled_work (Zoom_scale.nets zoom) + sweep_settled
        } ];
    snap = Oracle.snapshot oracle;
    landmarks = Landmark_scale.landmark_count lm }

(* Pairs grouped by source, in first-seen order (how Eval groups them). *)
let by_source pairs =
  let order = ref [] and tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, d) ->
      match Hashtbl.find_opt tbl s with
      | Some l -> Hashtbl.replace tbl s (d :: l)
      | None ->
        order := s :: !order;
        Hashtbl.replace tbl s [ d ])
    pairs;
  Array.of_list
    (List.rev_map (fun s -> (s, Array.of_list (List.rev (Hashtbl.find tbl s)))) !order)

(* One single-caller block: the source groups in order, cycling, until
   [count] routes are timed. Each group's denominator search and [prepare]
   run untimed; each destination's route is one sample (us), in block
   order. The block covers the same pairs in the same order every round. *)
let latency_block (env : Env.t) st groups s ~count =
  let tr = env.Env.tr in
  let lat = Array.make count 0.0 in
  let i = ref 0 and gi = ref 0 in
  while !i < count do
    let src, dsts = groups.(!gi mod Array.length groups) in
    let res =
      Tracer.span tr "eval.sssp" (fun () -> Cr_metric.Dijkstra.run st.g src)
    in
    let route =
      Tracer.span tr ("forward.prepare." ^ s.key) (fun () ->
          s.sch.Eval.prepare (Eval.fresh_work ()) ~src ~res)
    in
    Tracer.span tr ("forward.route." ^ s.key) (fun () ->
        Array.iter
          (fun dst ->
            if !i < count then begin
              let t0 = Clock.now_ns () in
              ignore (route dst);
              lat.(!i) <- float_of_int (Clock.now_ns () - t0) *. 1e-3;
              incr i
            end)
          dsts);
    incr gi
  done;
  lat

(* The timed passes run Eval.measure once per source group. Eval works
   per group, so the groups' work adds up to one pass over all pairs, and
   a group's pass (tens of milliseconds) is short enough that a burst of
   contention on a shared host misses it in some round. *)
let group_pairs groups =
  Array.map
    (fun (src, dsts) -> Array.to_list (Array.map (fun d -> (src, d)) dsts))
    groups

(* every sampled pair at full size, so the zooming searches' heavy tail is
   averaged over all sources *)
let latency_count = function Env.Full -> 128 * 40 | Env.Tiny -> 1000

type measured = {
  s : scheme;
  first : Eval.result;
  rate : float;  (* pairs/s through Eval.measure, from per-group bests *)
  p50 : float;  (* us, over per-route bests *)
  p99 : float;
  rounds_n : int;
}

let same_result (a : Eval.result) (b : Eval.result) =
  a.Eval.summary = b.Eval.summary
  && a.Eval.work.Eval.settled = b.Eval.work.Eval.settled
  && a.Eval.work.Eval.sssp = b.Eval.work.Eval.sssp
  && a.Eval.work.Eval.bounded_runs = b.Eval.work.Eval.bounded_runs

let check_scheme (env : Env.t) ~budget m =
  let s = m.s and r = m.first in
  Tracer.op env.Env.tr ("eval.check." ^ s.key) (fun () ->
      Env.check env
        (r.Eval.work.Eval.settled <= budget)
        (Printf.sprintf "%s: %d settled over budget %d" s.key
           r.Eval.work.Eval.settled budget);
      Array.iteri
        (fun i (d, c, _) ->
          Env.check env (c <= s.ceiling *. d)
            (Printf.sprintf "%s: stretch %.6f over ceiling %.4f on pair %d"
               s.key (c /. d) s.ceiling i))
        r.Eval.samples)

(* Per-scheme round results, carried across set-ups. On a shared host a
   burst of contention slows some part of a round, so each source group's
   pass time and each route's latency is kept at its best over the rounds;
   a burst then moves the result only if it hit the same group or route in
   every round. *)
type acc = {
  group_first : Eval.result option array;  (* each group's first pass *)
  group_best : float array;  (* s, each group's best pass *)
  lat_best : float array;  (* us, in block order *)
  mutable rounds_n : int;
}

let add_work (w : Eval.work) (r : Eval.result) =
  w.Eval.sssp <- w.Eval.sssp + r.Eval.work.Eval.sssp;
  w.Eval.settled <- w.Eval.settled + r.Eval.work.Eval.settled;
  w.Eval.bounded_runs <- w.Eval.bounded_runs + r.Eval.work.Eval.bounded_runs

let run (env : Env.t) =
  let size = env.Env.size in
  let tr = env.Env.tr in
  let reps = 3 in
  let n = graph_n size in
  let pairs =
    Eval.sample_pairs ~n ~sources:(sources size) ~per_source:(per_source size)
      ~alpha:0.0 ~seed:(Env.sub_seed env 4)
  in
  let groups = by_source pairs in
  let group_lists = group_pairs groups in
  let np = List.length pairs in
  let count = latency_count size in
  let accs = ref [] in
  let measure st ~seconds =
    let eval s pairs =
      Tracer.op tr ("eval.measure." ^ s.key) (fun () ->
          Eval.measure st.g s.sch pairs)
    in
    if !accs = [] then
      accs :=
        List.map
          (fun _ ->
            { group_first = Array.make (Array.length group_lists) None;
              group_best = Array.make (Array.length group_lists) Float.infinity;
              lat_best = Array.make count Float.infinity;
              rounds_n = 0 })
          st.schemes;
    let pairs_of = List.combine !accs st.schemes in
    (* untimed warm-up on the fresh state: the first group *)
    List.iter (fun s -> ignore (eval s group_lists.(0))) st.schemes;
    Env.rounds env ~seconds (fun _ ->
        List.iter
          (fun (a, s) ->
            Array.iteri
              (fun c gp ->
                let r, dt = Env.timed (fun () -> eval s gp) in
                (* every pass of a group, on any set-up, must repeat its
                   first one exactly *)
                (match a.group_first.(c) with
                 | None -> a.group_first.(c) <- Some r
                 | Some first ->
                   Env.check env (same_result r first)
                     (Printf.sprintf "%s: Eval.measure differs between passes"
                        s.key));
                a.group_best.(c) <- Float.min a.group_best.(c) dt)
              group_lists;
            let lat =
              Tracer.op tr ("forward.single." ^ s.key) (fun () ->
                  latency_block env st groups s ~count)
            in
            Array.iteri
              (fun i x -> a.lat_best.(i) <- Float.min a.lat_best.(i) x)
              lat;
            a.rounds_n <- a.rounds_n + 1;
            Env.attempt env (np + count))
          pairs_of)
  in
  let st, setup_s = Env.setups env ~reps ~measure (setup env) in
  let ms =
    List.map2
      (fun a s ->
        (* one untimed pass over all pairs gives the exact counts; the
           groups' passes together did the same work *)
        let first =
          Tracer.op tr ("eval.measure." ^ s.key) (fun () ->
              Eval.measure st.g s.sch pairs)
        in
        let w = Eval.fresh_work () in
        Array.iter (fun r -> add_work w (Option.get r)) a.group_first;
        Env.check env
          (w.Eval.settled = first.Eval.work.Eval.settled
           && w.Eval.sssp = first.Eval.work.Eval.sssp
           && w.Eval.bounded_runs = first.Eval.work.Eval.bounded_runs)
          (Printf.sprintf "%s: per-group passes' work differs from one pass"
             s.key);
        let lat = Stat.sorted_copy a.lat_best in
        { s;
          first;
          rate =
            float_of_int np /. Array.fold_left ( +. ) 0.0 a.group_best;
          p50 = Stat.nearest_rank lat 0.5;
          p99 = Stat.nearest_rank lat 0.99;
          rounds_n = a.rounds_n })
      !accs st.schemes
  in
  (* E22's receipt: evaluation settles at most n * sources * (levels + 3) *)
  let budget = st.n * sources size * (st.levels + 3) in
  List.iter (check_scheme env ~budget) ms;
  let np = float_of_int np in
  let gm f = Stat.geomean (List.map f ms) in
  let bits m = (Option.get m.s.sch.Eval.storage).Eval.bits_avg in
  let settled_per_pair m = float_of_int m.first.Eval.work.Eval.settled /. np in
  let per prefix f = List.map (fun m -> (prefix ^ m.s.key, f m)) ms in
  let snap = st.snap in
  let lookups = snap.Oracle.hits + snap.Oracle.misses in
  let counts =
    [ ("scale.oracle.sssp", float_of_int snap.Oracle.sssp_runs);
      ("scale.oracle.settled", float_of_int snap.Oracle.settled);
      ("scale.oracle.hit_ratio",
       if lookups = 0 then 0.0
       else float_of_int snap.Oracle.hits /. float_of_int lookups);
      ("scale.landmarks", float_of_int st.landmarks);
      ("eval.stretch_avg",
       gm (fun m -> m.first.Eval.summary.Stats.avg_stretch));
      ("eval.stretch_max",
       List.fold_left
         (fun acc m -> Float.max acc m.first.Eval.summary.Stats.max_stretch)
         0.0 ms) ]
    @ per "scale.build.settled." (fun m -> float_of_int m.s.build_settled)
    @ per "scale.eval.settled." (fun m ->
          float_of_int m.first.Eval.work.Eval.settled)
    @ per "scale.eval.bounded_runs." (fun m ->
          float_of_int m.first.Eval.work.Eval.bounded_runs)
    @ per "scale.eval.sssp." (fun m -> float_of_int m.first.Eval.work.Eval.sssp)
  in
  let detail =
    List.concat_map
      (fun m ->
        let row name unit v = (Printf.sprintf "scale.%s.%s" name m.s.key, unit, v) in
        [ row "eval_pairs_per_s" "1/s" m.rate;
          row "eval_s" "s" (np /. m.rate);
          row "settled_per_s" "1/s"
            (float_of_int m.first.Eval.work.Eval.settled *. m.rate /. np);
          row "route_p50_us" "us" m.p50;
          row "route_p99_us" "us" m.p99;
          row "rounds" "count" (float_of_int m.rounds_n);
          row "table_bits_avg" "bit" (bits m) ])
      ms
    @ [ ("scale.settled_budget", "count", float_of_int budget) ]
  in
  { Env.e2e =
      [ ("setup_s", setup_s);
        ("ops_per_s", gm (fun m -> m.rate));
        ("op_p50_us", gm (fun m -> m.p50));
        ("op_p99_us", gm (fun m -> m.p99));
        ("work_per_op", gm settled_per_pair);
        ("bits_per_node", gm bits) ];
    counts;
    detail;
    setup_s;
    setup_reps = reps }
