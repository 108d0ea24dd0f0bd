(* Workload congest-geo128: the distributed constructions of Cr_proto,
   which no other workload reaches. Dist_hierarchy.build, Dist_radii.run
   and Dist_packing.run ~j:4 run through Network.local ~cost on a
   geometric graph, repeated for the measured phase. The operation is one
   delivered message (Elkin-Neiman price constructions by messages).
   Packing at j = 4 (balls of 16 nodes) keeps the three protocols'
   shares comparable; at j = 5 the packing floods of 32-node balls take
   four fifths of the time on graphs this size.

   The benchmark wraps the runner it hands the protocols: the wrapper
   samples the gap between consecutive message deliveries (the
   per-message latency), times blocks of deliveries, counts deliveries,
   and in the traced run times
   the protocol handlers and the Wire measure hook separately, so the
   simulator's own time is the protocol span's self time. *)

module Network = Cr_proto.Network
module Cost = Cr_obs.Cost
module Metric = Cr_metric.Metric

let packing_j = 4

let graph_n = function Env.Full -> 128 | Env.Tiny -> 48

(* Every [gap_every]-th delivery contributes one latency sample. *)
let gap_every = 8

(* A protocol's run is timed in blocks of [block] deliveries (about a
   millisecond each), plus the stretches before the first and after the
   last. Deliveries come in the same order on every pass, so block i of
   one pass does the same work as block i of any other. *)
let block = 1024

type probe = {
  tr : Tracer.t;
  gaps : Stat.samples;  (* us *)
  blocks : Stat.samples;  (* s *)
  mutable count : int;  (* deliveries in the current execution *)
  mutable prev : int;  (* ns *)
  mutable in_run : int;  (* deliveries in the current protocol run *)
  mutable mark : int;  (* ns, start of the current block *)
  mutable deliveries : int;  (* all deliveries reported by the runner *)
  mutable handler_ns : int;  (* traced run only *)
  mutable measure_ns : int;  (* traced run only *)
}

let create_probe tr =
  { tr;
    gaps = Stat.create_samples ();
    blocks = Stat.create_samples ();
    count = 0;
    prev = 0;
    in_run = 0;
    mark = 0;
    deliveries = 0;
    handler_ns = 0;
    measure_ns = 0 }

let end_block probe =
  let t = Clock.now_ns () in
  Stat.add probe.blocks (float_of_int (t - probe.mark) *. 1e-9);
  probe.mark <- t

let runner probe ~cost : Network.runner =
  let base = Network.local ~cost () in
  let traced = Tracer.enabled probe.tr in
  { Network.execute =
      (fun ?measure g ~protocol ~init ~handler ~kickoff ~max_messages ->
        probe.count <- 0;
        let handler actions ~self st msg =
          let c = probe.count in
          probe.count <- c + 1;
          probe.in_run <- probe.in_run + 1;
          if probe.in_run mod block = 0 then end_block probe;
          let r = c mod gap_every in
          if r = gap_every - 1 then probe.prev <- Clock.now_ns ()
          else if r = 0 && c > 0 then
            Stat.add probe.gaps
              (float_of_int (Clock.now_ns () - probe.prev) *. 1e-3);
          if traced then begin
            let t0 = Clock.now_ns () in
            let st' = handler actions ~self st msg in
            probe.handler_ns <- probe.handler_ns + (Clock.now_ns () - t0);
            st'
          end
          else handler actions ~self st msg
        in
        let measure =
          match measure with
          | Some f when traced ->
            Some
              (fun msg ->
                let t0 = Clock.now_ns () in
                let bits = f msg in
                probe.measure_ns <- probe.measure_ns + (Clock.now_ns () - t0);
                bits)
          | m -> m
        in
        let states, stats =
          base.Network.execute ?measure g ~protocol ~init ~handler ~kickoff
            ~max_messages
        in
        probe.deliveries <- probe.deliveries + stats.Network.messages;
        (states, stats)) }

type counts = { messages : int; rounds : int; bits : int; max_edge : int }

type pass = {
  runs : (string * counts) list;  (* per protocol, in run order *)
  blocks : float array;  (* block times of the three runs, s, in order *)
  gaps : float array;  (* delivery-gap samples, us, in delivery order *)
  hierarchy : Cr_proto.Dist_hierarchy.result;
  radii : Cr_proto.Dist_radii.result;
  packing : Cr_proto.Dist_packing.result;
}

(* One run of one protocol with a fresh Cost ledger. *)
let costed (env : Env.t) probe key f =
  let tr = env.Env.tr in
  let cost = Cost.create () in
  let d0 = probe.deliveries in
  probe.handler_ns <- 0;
  probe.measure_ns <- 0;
  probe.in_run <- 0;
  let r =
    Tracer.op tr ("forward.network." ^ key) (fun () ->
        probe.mark <- Clock.now_ns ();
        let r = f (runner probe ~cost) in
        end_block probe;
        Tracer.charge tr ("construct.handler." ^ key)
          (float_of_int probe.handler_ns *. 1e-9);
        Tracer.charge tr ("encode.measure." ^ key)
          (float_of_int probe.measure_ns *. 1e-9);
        r)
  in
  let s = Cost.summary cost in
  Env.check env
    (s.Cost.total_messages = probe.deliveries - d0)
    (Printf.sprintf "%s: Cost ledger %d messages <> %d network deliveries" key
       s.Cost.total_messages (probe.deliveries - d0));
  ( r,
    ( key,
      { messages = s.Cost.total_messages;
        rounds = s.Cost.total_rounds;
        bits = s.Cost.total_bits;
        max_edge = s.Cost.max_edge_messages } ) )

let run_pass (env : Env.t) (probe : probe) m =
  let g = Metric.graph m in
  probe.gaps.Stat.len <- 0;
  probe.blocks.Stat.len <- 0;
  let hierarchy, c1 =
    costed env probe "hierarchy" (fun via ->
        Cr_proto.Dist_hierarchy.build ~via m)
  in
  let radii, c2 =
    costed env probe "radii" (fun via -> Cr_proto.Dist_radii.run ~via g)
  in
  let packing, c3 =
    costed env probe "packing" (fun via ->
        Cr_proto.Dist_packing.run ~via g
          ~distances:radii.Cr_proto.Dist_radii.distances ~j:packing_j)
  in
  Env.attempt env 3;
  { runs = [ c1; c2; c3 ];
    blocks = Stat.to_array probe.blocks;
    gaps = Stat.to_array probe.gaps;
    hierarchy;
    radii;
    packing }

(* The protocols' outputs against centralized ground truth. *)
let check_outputs (env : Env.t) m p =
  Tracer.op env.Env.tr "eval.check.outputs" (fun () ->
      let h = Cr_nets.Hierarchy.build m in
      let nets = p.hierarchy.Cr_proto.Dist_hierarchy.nets in
      Env.check env
        (Array.length nets = Cr_nets.Hierarchy.top_level h + 1)
        "hierarchy: level count differs from Hierarchy.build";
      Array.iteri
        (fun i net ->
          if i <= Cr_nets.Hierarchy.top_level h then
            Env.check env
              (List.sort compare net
              = List.sort compare (Cr_nets.Hierarchy.net h i))
              (Printf.sprintf "hierarchy: level %d differs from Hierarchy.build"
                 i))
        nets;
      let g = Metric.graph m in
      let dist = p.radii.Cr_proto.Dist_radii.distances in
      let n = Metric.n m in
      List.iter
        (fun u ->
          let r = Cr_metric.Dijkstra.run g u in
          Env.check env
            (Array.for_all2
               (fun a b -> Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 b)
               dist.(u) r.Cr_metric.Dijkstra.dist)
            (Printf.sprintf "radii: distances from %d differ from Dijkstra" u))
        [ 0; n / 3; 2 * n / 3; n - 1 ];
      let radius = p.packing.Cr_proto.Dist_packing.radius in
      Env.check env
        (Array.for_all Fun.id
           (Array.init n (fun u ->
                Float.equal radius.(u)
                  (Cr_proto.Dist_radii.radius_of_size dist u (1 lsl packing_j)))))
        "packing: radii differ from the local radius profile";
      Env.check env
        (p.packing.Cr_proto.Dist_packing.accepted <> [])
        "packing: no ball accepted")

let setup (env : Env.t) () =
  let tr = env.Env.tr in
  let g =
    Tracer.span tr "graphgen.geometric" (fun () ->
        (* the geo-128 family instance of bench/common.ml, relabeled by the
           seed: elections break ties by id, so message counts vary *)
        Env.relabel env
          (Cr_graphgen.Geometric.knn ~n:(graph_n env.Env.size) ~k:3 ~seed:11))
  in
  Tracer.span tr "distance.apsp" (fun () -> Metric.of_graph ~pool:env.Env.pool g)

let run (env : Env.t) =
  let reps = 41 in
  let m, setup_s =
    Env.setups env ~reps ~measure:(fun _ ~seconds:_ -> ()) (setup env)
  in
  let probe = create_probe env.Env.tr in
  (* the first pass is the untimed warm-up, checked against ground truth;
     every later pass must repeat its costs exactly *)
  let first = run_pass env probe m in
  check_outputs env m first;
  (* each block time and each gap sample at its best over the timed
     passes: a burst of contention on a shared host then moves a result
     only if it hit the same stretch of the run in every pass *)
  let best_blocks = Array.map (fun _ -> Float.infinity) first.blocks in
  let best_gaps = Array.map (fun _ -> Float.infinity) first.gaps in
  let keep_best best xs =
    Array.iteri (fun i x -> best.(i) <- Float.min best.(i) x) xs
  in
  let passes = ref 0 in
  (* A round is a timed pass followed by an untimed one, so the timed
     passes (about --seconds in all) are spread over twice that: the other
     workloads interleave their rounds with seconds-long cold set-ups, and
     this set-up takes milliseconds. A window of ten seconds is often
     disturbed from end to end on a shared host. *)
  Env.rounds env ~seconds:(2.0 *. env.Env.seconds) (fun _ ->
      List.iter
        (fun timed ->
          let p = run_pass env probe m in
          Env.check env
            (p.runs = first.runs
            && Array.length p.blocks = Array.length first.blocks
            && Array.length p.gaps = Array.length first.gaps)
            "protocol costs differ between passes";
          if timed then begin
            keep_best best_blocks p.blocks;
            keep_best best_gaps p.gaps;
            incr passes
          end)
        [ true; false ]);
  let total f = List.fold_left (fun acc (_, c) -> acc + f c) 0 first.runs in
  let messages = total (fun c -> c.messages) in
  let bits = total (fun c -> c.bits) in
  let rounds = total (fun c -> c.rounds) in
  let max_edge =
    List.fold_left (fun acc (_, c) -> Int.max acc c.max_edge) 0 first.runs
  in
  let secs = Array.fold_left ( +. ) 0.0 best_blocks in
  let gaps = Stat.sorted_copy best_gaps in
  let p50 = Stat.nearest_rank gaps 0.5 in
  let p99 = Stat.nearest_rank gaps 0.99 in
  let per name f =
    List.map (fun (key, c) -> (Printf.sprintf "proto.%s.%s" name key, f c)) first.runs
  in
  let counts =
    per "messages" (fun c -> float_of_int c.messages)
    @ per "rounds" (fun c -> float_of_int c.rounds)
    @ per "bits" (fun c -> float_of_int c.bits)
    @ [ ("proto.max_edge_messages", float_of_int max_edge) ]
  in
  let n = Metric.n m in
  { Env.e2e =
      [ ("setup_s", setup_s);
        ("ops_per_s", float_of_int messages /. secs);
        ("op_p50_us", p50);
        ("op_p99_us", p99);
        ("work_per_op", float_of_int bits /. float_of_int messages);
        ("bits_per_node", float_of_int bits /. float_of_int n) ];
    counts;
    detail =
      List.map (fun (k, v) -> (k, "count", v)) counts
      @ [ ("proto.protocol_s", "s", secs);
          ("proto.passes", "count", float_of_int !passes);
          ("proto.ns_per_message", "ns", secs *. 1e9 /. float_of_int messages);
          ("proto.congest_messages", "count", float_of_int messages);
          ("proto.congest_rounds", "count", float_of_int rounds);
          ("proto.congest_bits", "count", float_of_int bits) ];
    setup_s;
    setup_reps = reps }
