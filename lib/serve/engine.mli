(** The route-serving engine: compiled routing state with an
    allocation-free lookup path and batched query evaluation.

    Each paper scheme's forwarding decision exists once, as a driver in
    {!Cr_core.Forward} over the compiled state the scheme's [build]
    produced (ring tables travel through [Cr_codec]'s wire format — see
    {!Cr_core.Tables}). A [compile_*] function wraps that state, without
    copying it, into an engine; routes are then served by the same driver
    on one of two executors: a lean cursor ([route], [batch]) or a probe
    that stops at the first movement ([next_hop]). The schemes' own
    [walk]s bind the driver to a real [Cr_sim.Walker] instead.

    The equivalence contract, enforced by the differential test suite and
    the E20 bench gate: the executors apply the exact walker semantics, so
    for every (src, dst) a served route visits the same nodes in the same
    order as the scheme's walk — [walk] produces a byte-identical event
    trace, and [route] reproduces the walker's cost and hop count exactly
    (identical float operations in identical order).

    Destinations are always given as node ids; name-independent engines
    translate through their compiled naming internally, exactly as the
    harness's [route_to_name] callers do. *)

type t

(** {1 Compilation}

    Each compiler wraps one scheme. [obs] (default: the global trace
    context) wraps the work in a ["serve.compile.<kind>"] span. The
    labeled and name-independent engines reuse the state the scheme's
    [build] compiled (no second arena); the comparators flatten their
    tables here, fanning per-node work out over [pool] with arenas
    identical whatever the pool size. *)

val compile_hier :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_core.Hier_labeled.t -> t

val compile_scale_free_labeled :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_core.Scale_free_labeled.t -> t

(** [compile_simple_ni ~underlying scheme] serves the Theorem 1.4 scheme.
    [underlying] must be an engine compiled from the same labeled scheme
    instance the name-independent scheme was built over (its driver
    executes every zoom/search/deliver leg, and its adjacency is
    shared). Raises [Invalid_argument] if
    [underlying] is not a labeled engine over the same node count. *)
val compile_simple_ni :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  underlying:t -> Cr_core.Simple_ni.t -> t

val compile_scale_free_ni :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  underlying:t -> Cr_core.Scale_free_ni.t -> t

(** [compile_full m] is the full-table comparator: one [Metric.first_hops]
    row per node. *)
val compile_full :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t -> Cr_metric.Metric.t -> t

(** [compile_landmark m lm] is the Thorup–Zwick-style landmark comparator:
    per node a sorted bunch row (next hop per bunch member) plus the home
    landmark's row; landmark nodes keep a full row. *)
val compile_landmark :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  Cr_metric.Metric.t -> Cr_baselines.Landmark.t -> t

(** {1 Identity} *)

(** [scheme_name t] is the display name of the scheme served — identical
    to the harness name ([Scheme.l_name] / [ni_name]), so report check
    rules classify served rows the same way. *)
val scheme_name : t -> string

(** [kind t] is the short engine tag: ["hier"], ["sfl"], ["simple-ni"],
    ["sf-ni"], ["full"], or ["landmark"]. *)
val kind : t -> string

val n : t -> int

(** {1 Serving} *)

(** [next_hop t ~src ~dst] is the first node a served route from [src]
    leaves toward (-1 when [src = dst]). For the stateless-per-hop engines
    (hier, full, landmark) this is a pure array scan — no allocation, the
    E20 [Gc.minor_words] gate covers it. The per-route engines (sfl and
    the name-independent pair) derive it by probing the driver for its
    first movement. Raises [Invalid_argument] on out-of-range endpoints,
    like [route]. *)
val next_hop : t -> src:int -> dst:int -> int

(** [walk t w ~dst] runs the engine's driver on walker [w] to [dst] — the
    differential harness runs this against the scheme's own walk and
    compares traces byte for byte. *)
val walk : t -> Cr_sim.Walker.t -> dst:int -> unit

(** [route ?cost ?live t ~src ~dst] serves one route on a lean internal
    cursor (same moves, costs, and [Cost] accounting as a walker, minus
    the trace/trail machinery). An enabled [live] accumulator gets one
    clock tick, every graph-edge traversal, and the route outcome
    (served routes always deliver; the stretch sample is cost over the
    metric distance). [live] is not thread-safe — route from one domain
    per accumulator. Raises [Invalid_argument] on out-of-range endpoints
    and [Walker.Hop_budget_exhausted] past the scheme's hop budget, like
    the walker would. *)
val route :
  ?cost:Cr_obs.Cost.t -> ?live:Cr_obs.Live.t ->
  t -> src:int -> dst:int -> Cr_sim.Scheme.outcome

(** [batch ?obs ?pool ?live t pairs] serves every (src, dst) pair
    concurrently over [pool] inside a ["serve.batch.<kind>"] stage.
    Results are in input order and byte-identical whatever the pool
    size. An enabled [live] accumulator forces sequential serving in
    pair order (single-domain telemetry state keyed by a logical clock)
    — the documented observability tax of live telemetry. *)
val batch :
  ?obs:Cr_obs.Trace.context -> ?pool:Cr_par.Pool.t ->
  ?live:Cr_obs.Live.t ->
  t -> (int * int) array -> Cr_sim.Scheme.outcome array

(** {1 Accounting} *)

(** [compiled_bits t v] is node [v]'s serving state in bits: the exact
    wire size of codec-backed tables plus flat-array fields, counted at
    their stored width. Comparable against the scheme's [table_bits]
    budget gates. *)
val compiled_bits : t -> int -> int

(** [ring_arena t] is the compiled ring arena a labeled engine reads —
    physically the one its scheme's [build] compiled; [None] for the
    other engines. *)
val ring_arena : t -> Cr_core.Tables.t option

(** [bytes_per_node t] is the engine's total arena footprint (machine
    words of scheme-specific arrays — ring arena, label maps, radius and
    Voronoi tables, the zooming sequences its driver reads — excluding
    the shared graph/metric) in bytes, divided by n. *)
val bytes_per_node : t -> float

(** [fallbacks t] is the count of netting-descent fallbacks taken by
    served scale-free-labeled routes (through any engine layered on one);
    0 for other engines. *)
val fallbacks : t -> int
