(* What every workload shares: the run's settings, the failure ledger,
   seeded sub-seeds, the pool, timing helpers, and what a workload
   returns. *)

type size = Full | Tiny

type t = {
  seed : int;
  seconds : float;  (* the measured phase's budget *)
  size : size;
  tr : Tracer.t;
  pool : Cr_par.Pool.t;
  mutable attempted : int;
  mutable failed : int;
  mutable rounds : int;  (* measured rounds run so far *)
}

(* Batch throughput runs on a pool of at most two domains, never more
   than the host offers. *)
let pool_domains () = Int.min 2 (Domain.recommended_domain_count ())

let create ~seed ~seconds ~size ~trace =
  { seed;
    seconds;
    size;
    tr = (if trace then Tracer.create () else Tracer.null);
    pool = Cr_par.Pool.create ~domains:(pool_domains ()) ();
    attempted = 0;
    failed = 0;
    rounds = 0 }

(* Independent non-negative seeds for the graph, the pair stream, the
   naming, ..., all derived from the run's seed. *)
let sub_seed t k = ((t.seed * 1_000_003) + (k * 7_919) + 17) land 0x3FFF_FFFF

(* Operations the workload issued (routes, evaluated pairs, protocol
   runs); each check below is one more. *)
let attempt t n = t.attempted <- t.attempted + n

(* [check t ok what]: one checked output. A failed check is logged and
   counted, never fatal. *)
let check t ok what =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    Printf.eprintf "check failed: %s\n%!" what
  end

(* The seeded instance of a fixed graph: node ids permuted by the run's
   seed. Geometry and degree structure stay those of the workload's named
   instance; everything that breaks ties by id (net elections, landmark
   and naming draws) changes with the seed. *)
let relabel t g =
  let module G = Cr_metric.Graph in
  let n = G.n g in
  let perm =
    (Cr_sim.Workload.random_naming ~n ~seed:(sub_seed t 9)).Cr_sim.Workload.name_of
  in
  G.of_edges n
    (List.map
       (fun (e : G.edge) -> (perm.(e.G.u), perm.(e.G.v), e.G.w))
       (G.edges g))

let timed f =
  let t0 = Clock.now () in
  let v = f () in
  (v, Clock.since t0)

(* [rounds t ~seconds f]: part of the measured phase. Calls [f i] for
   rounds i = 0, 1, ... (counted over the whole run) until [seconds] have
   passed, at least once; each round is one "round" root span. *)
let rounds t ~seconds f =
  let t_end = Clock.now () +. seconds in
  let first = t.rounds in
  while t.rounds = first || Clock.now () < t_end do
    Tracer.span t.tr "round" (fun () -> f t.rounds);
    t.rounds <- t.rounds + 1
  done

(* [setups t ~reps ~measure f]: [reps] cold set-ups, each after a
   [Gc.compact]; the median time is [setup_s]. After each one,
   [measure state ~seconds] runs an equal share of the measured phase on
   the fresh state, so the rounds spread over the whole run rather than
   its last seconds. Returns the last state. *)
let setups t ~reps ~measure f =
  let times = Array.make reps 0.0 in
  let rec go i =
    Gc.compact ();
    let v, dt = timed (fun () -> Tracer.op t.tr "setup" f) in
    times.(i) <- dt;
    measure v ~seconds:(t.seconds /. float_of_int reps);
    if i + 1 = reps then v else go (i + 1)
  in
  let v = go 0 in
  (v, Stat.median times)

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.starts_with ~prefix:"VmHWM:" line ->
      Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
    | _ -> scan ()
    | exception End_of_file -> 0.0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* What a workload hands back. [e2e] must cover every end-to-end metric;
   [counts] holds the per-layer counts it can fill (the rest read 0);
   [detail] is the traced report's per-scheme table. [setup_s] is also in
   [e2e]; it is repeated so the traced report can state the residual. *)
type outcome = {
  e2e : (string * float) list;
  counts : (string * float) list;
  detail : (string * string * float) list;  (* name, unit, value *)
  setup_s : float;
  setup_reps : int;
}
