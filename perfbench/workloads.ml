(* The workload registry, the metric lists BENCHMARK.json declares, and
   the assembly of one run's result line and traced report. *)

let workloads =
  [ ("serve-geo1k", Serve_w.run);
    ("observed-zipf-geo1k", Observed_w.run);
    ("scale-plaw10k", Scale_w.run);
    ("congest-geo128", Congest_w.run) ]

(* End-to-end metrics: every workload reports each one (name, unit). *)
let end_to_end =
  [ ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_p50_us", "us");
    ("op_p99_us", "us");
    ("work_per_op", "count");
    ("bits_per_node", "bit");
    ("peak_rss_mb", "MiB") ]

(* Per-layer self times (seconds): every workload spends time in each. *)
let layers = [ "graphgen"; "distance"; "construct"; "encode"; "forward"; "eval" ]

let engine_kinds = [ "hier"; "sfl"; "simple-ni"; "sf-ni"; "full"; "landmark" ]

(* Per-layer counts (name, unit); a workload that does not reach a layer
   reports 0 for it. All are exact except the timing ratios below. *)
let layer_counts =
  let per prefix unit keys = List.map (fun k -> (prefix ^ k, unit)) keys in
  per "serve.hops_per_route." "count" engine_kinds
  @ per "serve.alloc_words_per_route." "count" engine_kinds
  @ per "serve.compiled_bits_avg." "bit" engine_kinds
  @ per "serve.bytes_per_node." "B" engine_kinds
  @ per "par.batch_speedup." "ratio" engine_kinds
  @ [ ("serve.fallbacks_per_route.sfl", "count");
      ("eval.stretch_avg", "ratio");
      ("eval.stretch_max", "ratio");
      ("eval.pairs_over_ni_shape", "count") ]
  @ per "obs.live_tax." "ratio" [ "hier"; "simple-ni" ]
  @ per "obs.alloc_words_per_route." "count" [ "hier"; "simple-ni" ]
  @ [ ("obs.cost.edge_messages", "count");
      ("scale.oracle.sssp", "count");
      ("scale.oracle.settled", "count");
      ("scale.oracle.hit_ratio", "ratio");
      ("scale.landmarks", "count") ]
  @ per "scale.build.settled." "count" [ "landmark"; "zoom" ]
  @ per "scale.eval.settled." "count" [ "landmark"; "zoom" ]
  @ per "scale.eval.bounded_runs." "count" [ "landmark"; "zoom" ]
  @ per "scale.eval.sssp." "count" [ "landmark"; "zoom" ]
  @ per "proto.messages." "count" [ "hierarchy"; "radii"; "packing" ]
  @ per "proto.rounds." "count" [ "hierarchy"; "radii"; "packing" ]
  @ per "proto.bits." "count" [ "hierarchy"; "radii"; "packing" ]
  @ [ ("proto.max_edge_messages", "count") ]

let timing_ratio name =
  String.starts_with ~prefix:"par.batch_speedup." name
  || String.starts_with ~prefix:"obs.live_tax." name

let per_layer =
  List.map (fun l -> (l ^ ".s", "s")) layers @ layer_counts

let lookup what name kvs =
  match List.assoc_opt name kvs with
  | Some v -> v
  | None -> failwith (Printf.sprintf "workload did not report %s %s" what name)

let metric (name, unit) value = { Result_json.name; unit; value }

(* ---- Files under the output directory ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let write_file path s =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* The untraced run's numbers, one "name value" line each, so the traced
   run of the same workload and seed can report its overhead and compare
   exact counts. *)
let untraced_path ~out ~name ~seed =
  Filename.concat out (Printf.sprintf "%s-seed%d.untraced.txt" name seed)

let write_untraced path kvs =
  write_file path
    (String.concat ""
       (List.map (fun (k, v) -> Printf.sprintf "%s %.17g\n" k v) kvs))

let read_untraced path =
  if not (Sys.file_exists path) then None
  else begin
    let ic = open_in path in
    let rec go acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' line with
        | [ k; v ] -> go ((k, float_of_string v) :: acc)
        | _ -> go acc)
      | exception End_of_file -> List.rev acc
    in
    Some (Fun.protect ~finally:(fun () -> close_in ic) (fun () -> go []))
  end

(* ---- The traced report ---- *)

let traced_report (env : Env.t) ~name ~out (o : Env.outcome) e2e counts =
  let events = Tracer.events env.Env.tr in
  let scoped = Tracer.self_times events in
  let reps = o.Env.setup_reps in
  let self = Tracer.normalized ~setups:reps ~rounds:env.Env.rounds scoped in
  let by_layer = Tracer.layer_times self in
  let layer_s l = Option.value ~default:0.0 (Hashtbl.find_opt by_layer l) in
  let b = Buffer.create 4096 in
  let line fmt = Printf.bprintf b (fmt ^^ "\n") in
  line "== traced run: %s, seed %d: %d set-ups, %d rounds ==" name env.Env.seed
    reps env.Env.rounds;
  line "self times: set-up spans per set-up, round spans per round, the rest \
        (warm-up, checks) as run once";
  line "%-44s %14s" "layer" "self time s";
  List.iter (fun l -> line "%-44s %14.6f" l (layer_s l)) layers;
  line "%-44s %14s" "span" "self time s";
  List.iter (fun (s, v) -> line "%-44s %14.6f" s v) self;
  (* Set-up work outside any layer span is the "setup" root span's own
     self time: the residual between the summed setup-layer self times and
     the set-up wall time. *)
  let setup_self, setup_layers =
    List.fold_left
      (fun (r, l) (sc, k, v) ->
        match sc with
        | Tracer.Setup when String.equal k "setup" -> (r +. v, l)
        | Tracer.Setup -> (r, l +. v)
        | _ -> (r, l))
      (0.0, 0.0) scoped
  in
  let per x = x /. float_of_int reps in
  let mean_wall = per (setup_self +. setup_layers) in
  line "setup: median %.6f s (untraced-style median of %d); mean wall %.6f s; \
        setup-layer self times sum to %.6f s; residual %.6f s (%.3f%%)"
    o.Env.setup_s reps mean_wall (per setup_layers) (per setup_self)
    (if mean_wall > 0.0 then 100.0 *. per setup_self /. mean_wall else 0.0);
  line "%-44s %14s %s" "detail" "value" "unit";
  List.iter (fun (k, u, v) -> line "%-44s %14.6g %s" k v u) o.Env.detail;
  let path = untraced_path ~out ~name ~seed:env.Env.seed in
  (match read_untraced path with
  | None ->
    line "no untraced result at %s: run --trace 0 with this seed first to \
          report tracing overhead" path
  | Some base ->
    line "%-44s %14s %14s %10s" "end-to-end (tracing overhead)" "untraced"
      "traced" "change";
    List.iter
      (fun (k, _) ->
        match List.assoc_opt k base with
        | Some u ->
          let t = List.assoc k e2e in
          line "%-44s %14.6g %14.6g %+9.2f%%" k u t (100.0 *. (t -. u) /. u)
        | None -> ())
      end_to_end;
    (* exact counts must not depend on tracing *)
    List.iter
      (fun (k, v) ->
        match List.assoc_opt k base with
        | Some u when not (timing_ratio k) ->
          Env.check env (Float.equal u v)
            (Printf.sprintf "%s: traced %.17g <> untraced %.17g" k v u)
        | _ -> ())
      counts);
  let stem = Filename.concat out (Printf.sprintf "%s-seed%d" name env.Env.seed) in
  line "chrome trace: %s.trace.json" stem;
  write_file (stem ^ ".trace.json") (Tracer.chrome env.Env.tr);
  write_file (stem ^ ".layers.txt") (Buffer.contents b);
  print_string (Buffer.contents b);
  List.map (fun l -> (l ^ ".s", layer_s l)) layers

(* ---- One run ---- *)

(* Runs workload [name]; prints the human-readable lines, then the result
   line last. Returns whether every check passed, and the metrics. *)
let run ~name ~seed ~seconds ~size ~trace ~out =
  let f =
    match List.assoc_opt name workloads with
    | Some f -> f
    | None -> invalid_arg ("unknown workload " ^ name)
  in
  let env = Env.create ~seed ~seconds ~size ~trace in
  let o = f env in
  let e2e = o.Env.e2e @ [ ("peak_rss_mb", Env.peak_rss_mb ()) ] in
  let counts =
    List.map
      (fun (k, _) -> (k, Option.value ~default:0.0 (List.assoc_opt k o.Env.counts)))
      layer_counts
  in
  List.iter
    (fun (k, _) ->
      if not (List.mem_assoc k layer_counts) then
        failwith ("workload reported an undeclared count " ^ k))
    o.Env.counts;
  mkdir_p out;
  let metrics =
    if trace then begin
      let times = traced_report env ~name ~out o e2e counts in
      List.map (fun (k, u) -> metric (k, u) (lookup "per-layer" k (times @ counts))) per_layer
    end
    else begin
      write_untraced (untraced_path ~out ~name ~seed) (e2e @ counts);
      List.iter (fun (k, v) -> Printf.printf "%-44s %.6g\n" k v) counts;
      List.map (fun (k, u) -> metric (k, u) (lookup "end-to-end" k e2e)) end_to_end
    end
  in
  List.iter
    (fun (m : Result_json.metric) ->
      Printf.printf "%-44s %.6g %s\n" m.Result_json.name m.Result_json.value
        m.Result_json.unit)
    metrics;
  let correct = env.Env.failed = 0 in
  print_endline
    (Result_json.line ~correct ~attempted:env.Env.attempted
       ~failed:env.Env.failed metrics);
  (correct, metrics)
