(* The benchmark's self-tests: order statistics, aggregation, span self
   times, the metric-name grammar, and a tiny-size run of every workload,
   untraced then traced, that must pass all of its checks. Run with
   `dune build @perfbench/selftest`. *)

open Perfbench
module Trace = Cr_obs.Trace

let failures = ref 0

let expect what ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" what
  end
  else Printf.printf "ok   %s\n%!" what

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

let raises f = match f () with _ -> false | exception Invalid_argument _ -> true

let test_percentile () =
  let s = Array.init 10 (fun i -> float_of_int (i + 1)) in
  expect "p50 of 1..10 is 5" (Stat.nearest_rank s 0.5 = 5.0);
  expect "p90 of 1..10 is 9" (Stat.nearest_rank s 0.9 = 9.0);
  expect "p99 of 1..10 is 10" (Stat.nearest_rank s 0.99 = 10.0);
  expect "p100 of 1..10 is 10" (Stat.nearest_rank s 1.0 = 10.0);
  expect "p1 of 1..10 is 1" (Stat.nearest_rank s 0.01 = 1.0);
  expect "median sorts its input" (Stat.median [| 3.0; 1.0; 2.0 |] = 2.0);
  expect "empty sample set raises" (raises (fun () -> Stat.nearest_rank [||] 0.5));
  expect "p99 needs 1000 samples" (Stat.samples_needed 0.99 = 1000);
  expect "1000 samples leave 10 beyond p99" (Stat.beyond 1000 0.99 = 10);
  expect "999 samples do not support p99" (not (Stat.supports 999 0.99));
  expect "p50 needs 20 samples" (Stat.samples_needed 0.5 = 20)

let test_geomean () =
  expect "geomean [1; 100] = 10" (close (Stat.geomean [ 1.0; 100.0 ]) 10.0);
  expect "geomean [2; 8] = 4" (close (Stat.geomean [ 2.0; 8.0 ]) 4.0);
  expect "geomean of one value" (close (Stat.geomean [ 7.5 ]) 7.5);
  expect "geomean rejects 0" (raises (fun () -> Stat.geomean [ 1.0; 0.0 ]));
  expect "geomean rejects []" (raises (fun () -> Stat.geomean []))

let ev ts body = { Trace.ts; body }

let test_self_time () =
  let events =
    [ ev 0.0 (Trace.Span_open { name = "construct.a" });
      ev 1.0 (Trace.Counter { name = "op"; value = 0.0 });
      ev 2.0 (Trace.Span_open { name = "encode.b" });
      ev 3.0 (Trace.Span_open { name = "encode.c" });
      ev 4.0 (Trace.Span_close { name = "encode.c" });
      ev 5.0 (Trace.Span_close { name = "encode.b" });
      ev 6.0 (Trace.Counter { name = "charge:forward.d"; value = 1.5 });
      ev 10.0 (Trace.Span_close { name = "construct.a" });
      ev 11.0 (Trace.Span_open { name = "construct.a" });
      ev 12.0 (Trace.Span_close { name = "construct.a" }) ]
  in
  let scoped = Tracer.self_times events in
  let self = Tracer.normalized ~setups:1 ~rounds:1 scoped in
  let get k = List.assoc k self in
  expect "outer self = 10 - 3 - 1.5, plus a second 1 s span"
    (close (get "construct.a") 6.5);
  expect "middle self = 3 - 1" (close (get "encode.b") 2.0);
  expect "leaf self = 1" (close (get "encode.c") 1.0);
  expect "charge counts as a child" (close (get "forward.d") 1.5);
  let layers = Tracer.layer_times self in
  expect "layer encode sums its spans"
    (close (Hashtbl.find layers "encode") 3.0);
  expect "self times sum to the root durations"
    (close (List.fold_left (fun a (_, v) -> a +. v) 0.0 self) 11.0);
  (* set-up and round scopes are normalized per set-up and per round *)
  let scoped =
    Tracer.self_times
      [ ev 0.0 (Trace.Span_open { name = "setup" });
        ev 0.0 (Trace.Span_open { name = "graphgen.g" });
        ev 4.0 (Trace.Span_close { name = "graphgen.g" });
        ev 5.0 (Trace.Span_close { name = "setup" });
        ev 5.0 (Trace.Span_open { name = "setup" });
        ev 5.0 (Trace.Span_open { name = "graphgen.g" });
        ev 7.0 (Trace.Span_close { name = "graphgen.g" });
        ev 8.0 (Trace.Span_close { name = "setup" });
        ev 8.0 (Trace.Span_open { name = "round" });
        ev 8.0 (Trace.Span_open { name = "forward.f" });
        ev 11.0 (Trace.Span_close { name = "forward.f" });
        ev 11.0 (Trace.Span_close { name = "round" });
        ev 11.0 (Trace.Span_open { name = "eval.e" });
        ev 12.0 (Trace.Span_close { name = "eval.e" }) ]
  in
  let norm = Tracer.normalized ~setups:2 ~rounds:3 scoped in
  expect "set-up spans count per set-up" (close (List.assoc "graphgen.g" norm) 3.0);
  expect "set-up residual per set-up" (close (List.assoc "setup" norm) 1.0);
  expect "round spans count per round" (close (List.assoc "forward.f" norm) 1.0);
  expect "other spans count once" (close (List.assoc "eval.e" norm) 1.0);
  expect "unbalanced spans raise"
    (raises (fun () ->
         Tracer.self_times [ ev 0.0 (Trace.Span_open { name = "x" }) ]));
  (* a live tracer nests Cr_obs.Trace spans the same way *)
  let tr = Tracer.create () in
  Tracer.op tr "eval.outer" (fun () -> Tracer.span tr "forward.inner" ignore);
  let self =
    Tracer.normalized ~setups:1 ~rounds:1 (Tracer.self_times (Tracer.events tr))
  in
  expect "recorded spans are balanced"
    (Trace.balanced_spans (Tracer.events tr));
  expect "recorded spans yield both names"
    (List.mem_assoc "eval.outer" self && List.mem_assoc "forward.inner" self)

let test_names () =
  expect "name a.b-c_9 is valid" (Result_json.valid_name "a.b-c_9");
  expect "empty name is invalid" (not (Result_json.valid_name ""));
  expect "leading dot is invalid" (not (Result_json.valid_name ".a"));
  expect "space is invalid" (not (Result_json.valid_name "a b"));
  expect "slash is invalid" (not (Result_json.valid_name "a/b"));
  expect "65 characters is invalid"
    (not (Result_json.valid_name (String.make 65 'a')));
  let names =
    List.map fst Workloads.end_to_end @ List.map fst Workloads.per_layer
  in
  expect "every declared metric name is valid"
    (List.for_all Result_json.valid_name names);
  expect "declared metric names are unique"
    (List.length (List.sort_uniq compare names) = List.length names);
  expect "result line carries all digits"
    (Result_json.line ~correct:true ~attempted:1 ~failed:0
       [ { Result_json.name = "x"; unit = "s"; value = 0.1 } ]
    = "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
       {\"x\": {\"value\": 0.10000000000000001, \"unit\": \"s\"}}}")

(* BENCHMARK.json declares exactly the metrics a run prints, with the
   same units. *)
let test_declared path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  let declared (name, unit) =
    let needle = Printf.sprintf "{\"name\": \"%s\", \"unit\": \"%s\"" name unit in
    let n = String.length needle in
    let rec go i =
      i + n <= String.length text && (String.sub text i n = needle || go (i + 1))
    in
    go 0
  in
  let all = Workloads.end_to_end @ Workloads.per_layer in
  expect "BENCHMARK.json declares every metric with its unit"
    (List.for_all declared all);
  let names = List.length (String.split_on_char '{' text) - 2 in
  (* every object but the file's own carries a name *)
  expect "BENCHMARK.json declares no other metric or workload"
    (names = List.length all + List.length Workloads.workloads)

(* Runs [f] with standard output discarded (the smoke runs print their
   full reports). *)
let quietly f =
  flush stdout;
  let saved = Unix.dup Unix.stdout in
  let null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  Unix.dup2 null Unix.stdout;
  Fun.protect
    ~finally:(fun () ->
      flush stdout;
      Unix.dup2 saved Unix.stdout;
      Unix.close null;
      Unix.close saved)
    f

let test_smoke () =
  List.iter
    (fun (name, _) ->
      let run trace =
        quietly (fun () ->
            Workloads.run ~name ~seed:1 ~seconds:0.3 ~size:Env.Tiny ~trace
              ~out:"selftest_out")
      in
      let ok, metrics = run false in
      expect (name ^ ": tiny untraced run passes its checks") ok;
      expect (name ^ ": end-to-end metrics are positive")
        (List.for_all (fun m -> m.Result_json.value > 0.0) metrics);
      let ok, metrics = run true in
      expect (name ^ ": tiny traced run passes its checks, counts unchanged") ok;
      expect (name ^ ": every layer has self time")
        (List.for_all
           (fun l ->
             List.exists
               (fun m -> m.Result_json.name = l ^ ".s" && m.Result_json.value > 0.0)
               metrics)
           Workloads.layers))
    Workloads.workloads

let () =
  test_percentile ();
  test_geomean ();
  test_self_time ();
  test_names ();
  test_declared Sys.argv.(1);
  test_smoke ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all self-tests passed"
