module Metric = Cr_metric.Metric
module Bits = Cr_metric.Bits
module Hierarchy = Cr_nets.Hierarchy
module Netting_tree = Cr_nets.Netting_tree
module Walker = Cr_sim.Walker
module Scheme = Cr_sim.Scheme
module Workload = Cr_sim.Workload
module Trace = Cr_obs.Trace
module Cost = Cr_obs.Cost
module Live = Cr_obs.Live
module Pool = Cr_par.Pool
module Forward = Cr_core.Forward
module Tables = Cr_core.Tables
module Rings = Cr_core.Rings
module Hier_labeled = Cr_core.Hier_labeled
module Scale_free_labeled = Cr_core.Scale_free_labeled
module Simple_ni = Cr_core.Simple_ni
module Scale_free_ni = Cr_core.Scale_free_ni
module Underlying = Cr_core.Underlying
module Landmark = Cr_baselines.Landmark

(* Served routes run the schemes' own drivers ([Cr_core.Forward]) on the
   serving cursor: walker cost/hop accounting — the same float operations
   in the same order — without the trace, trail, or failure machinery. *)
type cursor = {
  adj : Flat.t;
  cmetric : Metric.t;
  mutable pos : int;
  mutable total : float;
  mutable steps : int;
  budget : int;
  mutable cur_phase : Trace.phase;
  acct : Cost.t;
  lv : Live.t;
}

let cursor_spend c =
  c.steps <- c.steps + 1;
  if c.steps > c.budget then raise Walker.Hop_budget_exhausted

let cursor_step c v =
  (* adjacency check first, then spend, then move — Walker.step's order *)
  let w = Flat.weight_exn c.adj c.pos v in
  cursor_spend c;
  let src = c.pos in
  c.pos <- v;
  c.total <- c.total +. w;
  if Cost.enabled c.acct then
    Cost.record c.acct ~phase:(Trace.phase_label c.cur_phase) ~src ~dst:v
      ~round:(c.steps - 1) ~bits:0;
  if Live.enabled c.lv then
    (* the same edge charge into the current telemetry window; teleports
       stay off the edge timeline, exactly as in Walker *)
    Live.record_edge c.lv ~src ~dst:v

let cursor_path c dst =
  if dst <> c.pos then
    match Metric.shortest_path c.cmetric ~src:c.pos ~dst with
    | [] | [ _ ] -> ()
    | _ :: rest -> List.iter (fun v -> cursor_step c v) rest

let cursor_jump c v cost =
  cursor_spend c;
  c.pos <- v;
  c.total <- c.total +. cost;
  if Cost.enabled c.acct then begin
    let phase =
      if c.cur_phase = Trace.Unphased then Trace.Teleport else c.cur_phase
    in
    Cost.record c.acct ~phase:(Trace.phase_label phase) ~src:(-1) ~dst:v
      ~round:(c.steps - 1) ~bits:0
  end

let cursor_phase c p f =
  if c.cur_phase <> Trace.Unphased then f ()
  else begin
    c.cur_phase <- p;
    Fun.protect ~finally:(fun () -> c.cur_phase <- Trace.Unphased) f
  end

let cursor_exec c =
  { Forward.position = (fun () -> c.pos);
    cost = (fun () -> c.total);
    step = (fun v -> cursor_step c v);
    jump = (fun v cost -> cursor_jump c v cost);
    path = (fun v -> cursor_path c v);
    phase = (fun p f -> cursor_phase c p f) }

(* Probe executor: runs a driver only up to its first movement — how the
   per-route engines answer [next_hop] without serving the whole route. *)
exception First_move of int

let probe_exec m pos0 =
  { Forward.position = (fun () -> pos0);
    cost = (fun () -> 0.0);
    step = (fun v -> raise (First_move v));
    jump = (fun v _ -> raise (First_move v));
    path =
      (fun v ->
        if v <> pos0 then raise (First_move (Metric.next_hop m ~src:pos0 ~dst:v)));
    phase = (fun _ f -> f ()) }

(* {2 Compiled state} *)

type full = { t_rows : int array (* src * n + dst -> first hop; -1 diag *) }

type lm = {
  m_home : int array;
  m_home_hop : int array;  (* first hop toward home; -1 at landmarks *)
  m_is_lm : bool array;
  m_bunch_off : int array;  (* n + 1 *)
  m_bunch : int array;  (* bunch members, sorted; full rows at landmarks *)
  m_bunch_hop : int array;  (* aligned first hops *)
  m_bits : int array;
}

type t = {
  data : data;
  metric : Metric.t;
  adj : Flat.t;
  n : int;
  name : string;
  kind : string;
  budget : int;  (* the scheme's walker hop budget *)
  bits : int -> int;  (* compiled bits per node *)
}

(* The labeled schemes serve their own compiled state (the sfl copy keeps
   its own fallback counter); a name-independent engine runs the scheme's
   zoom/search state over the underlying engine's labeled driver. *)
and data =
  | Hier of Forward.hier
  | Sfl of Forward.sfl
  | Ni of ni
  | Full of full
  | Lm of lm

and ni = {
  fwd : Forward.ni;
  name_of : int array;  (* node -> name *)
  under : t;  (* the labeled engine every leg travels through *)
}

let rec lm_find l dst lo hi =
  if lo > hi then -1
  else
    let mid = (lo + hi) / 2 in
    let x = l.m_bunch.(mid) in
    if x = dst then mid
    else if x < dst then lm_find l dst (mid + 1) hi
    else lm_find l dst lo (mid - 1)

let run t ex ~dst =
  match t.data with
  | Hier h -> Forward.hier h ex ~dest_label:h.h_label.(dst)
  | Sfl s -> Forward.sfl s ex ~dest_label:s.s_label.(dst)
  | Ni i -> Forward.ni i.fwd ex ~dest_name:i.name_of.(dst)
  | Full _ -> ex.Forward.path dst
  | Lm l ->
    (* straight to an in-bunch destination, else via the home landmark
       (in-bunch iff dst is in the compiled row: rows hold exactly the
       strict bunch, full rows at landmarks) *)
    let src = ex.Forward.position () in
    if src <> dst then begin
      let e =
        lm_find l dst l.m_bunch_off.(src) (l.m_bunch_off.(src + 1) - 1)
      in
      if e < 0 then ex.Forward.path l.m_home.(src);
      ex.Forward.path dst
    end

(* {2 Serving API} *)

let scheme_name t = t.name
let kind t = t.kind
let n t = t.n

(* Preallocated, so the flat [next_hop] path raises without allocating. *)
let src_out_of_range = Invalid_argument "Cr_serve.Engine: src out of range"
let dst_out_of_range = Invalid_argument "Cr_serve.Engine: dst out of range"

let check_src t src = if src < 0 || src >= t.n then raise src_out_of_range
let check_dst t dst = if dst < 0 || dst >= t.n then raise dst_out_of_range

let walk t w ~dst =
  check_dst t dst;
  run t (Forward.walker w) ~dst

let route ?(cost = Cost.null) ?(live = Live.null) t ~src ~dst =
  check_src t src;
  check_dst t dst;
  let c =
    { adj = t.adj; cmetric = t.metric; pos = src; total = 0.0; steps = 0;
      budget = t.budget; cur_phase = Trace.Unphased; acct = cost; lv = live }
  in
  if Live.enabled live then Live.tick live;
  run t (cursor_exec c) ~dst;
  (* served routes run over an intact graph: every completed drive is a
     delivery, and the stretch sample is cost over the metric distance *)
  if Live.enabled live then
    Live.record live ~src ~dst ~status:Live.Delivered
      ~dist:(Metric.dist t.metric src dst)
      ~cost:c.total ~hops:c.steps;
  { Scheme.cost = c.total; hops = c.steps }

let first_move t ~src ~dst =
  match run t (probe_exec t.metric src) ~dst with
  | () ->
    (* a route between distinct endpoints always moves *)
    assert false
  | exception First_move v -> v

(* Flat engines answer from compiled arrays without allocating; the
   lint's zero-alloc proof walks the whole Tables/lm_find call graph to
   keep it that way. Name-walking engines must replay the route, which
   builds an executor per call — the exempted probe path below. *)
let[@cr.zero_alloc] next_hop t ~src ~dst =
  check_src t src;
  check_dst t dst;
  if src = dst then -1
  else
    match t.data with
    | Hier h -> Tables.next_hop h.h_tables ~at:src ~label:h.h_label.(dst)
    | Full f -> f.t_rows.((src * t.n) + dst)
    | Lm l ->
      let e =
        lm_find l dst l.m_bunch_off.(src) (l.m_bunch_off.(src + 1) - 1)
      in
      if e >= 0 then l.m_bunch_hop.(e) else l.m_home_hop.(src)
    | Sfl _ | Ni _ ->
      (first_move t ~src ~dst
      [@cr.alloc_ok "name-walking engines replay the route via a probe \
                     executor; only flat tables serve without allocating"])

let batch ?obs ?(pool = Pool.default ()) ?(live = Live.null) t pairs =
  let ctx = Trace.resolve obs in
  let out =
    Pool.stage ctx pool
      ("serve.batch." ^ t.kind)
      (fun () ->
        if Live.enabled live then
          (* a live accumulator is single-domain state, and the window
             clock is the routed-message count — serve sequentially so
             the timeline is identical at every CR_DOMAINS (the
             documented observability tax of [~live]) *)
          Array.map (fun (src, dst) -> route ~live t ~src ~dst) pairs
        else
          Pool.parallel_map pool (fun (src, dst) -> route t ~src ~dst) pairs)
  in
  if Trace.enabled ctx then
    Trace.counter ctx
      ("serve." ^ t.kind ^ ".batch.routes")
      (float_of_int (Array.length pairs));
  out

(* {2 Compilation} *)

let finish ctx t =
  Scheme.table_counters ctx ("serve." ^ t.kind) t.bits t.n;
  t

let labeled_budget nn = 10_000 + (100 * nn)
let ni_budget nn = 50_000 + (200 * nn)

let compile_hier ?obs ?pool:_ scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.hier" @@ fun () ->
  let m =
    Hierarchy.metric (Netting_tree.hierarchy (Hier_labeled.netting_tree scheme))
  in
  let nn = Metric.n m in
  let h = Hier_labeled.compiled scheme in
  finish ctx
    { data = Hier h; metric = m; adj = Flat.of_graph (Metric.graph m); n = nn;
      name = "hier-labeled (Lemma 3.1)"; kind = "hier";
      budget = labeled_budget nn;
      bits = (fun v -> Tables.bits h.h_tables v + (2 * Bits.id_bits nn)) }

let compile_scale_free_labeled ?obs ?pool:_ scheme =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.sfl" @@ fun () ->
  let rings = Scale_free_labeled.rings scheme in
  let m =
    Hierarchy.metric (Netting_tree.hierarchy (Rings.netting_tree rings))
  in
  let nn = Metric.n m in
  let s =
    { (Scale_free_labeled.compiled scheme) with
      Forward.s_fallbacks = Atomic.make 0 }
  in
  let idb = Bits.id_bits nn in
  finish ctx
    { data = Sfl s; metric = m; adj = Flat.of_graph (Metric.graph m); n = nn;
      name = "scale-free labeled (Thm 1.2)"; kind = "sfl";
      budget = labeled_budget nn;
      bits =
        (fun v ->
          (* wire rings + per-scale Voronoi owner/parent ids and a stored
             radius + the shared directories (the scheme's non-ring
             share) *)
          Tables.bits s.s_tables v
          + (s.s_scales * ((2 * idb) + Bits.distance_bits))
          + (Scale_free_labeled.table_bits scheme v - Rings.table_bits rings v))
    }

let ring_bits u v =
  match u.data with
  | Hier h -> Tables.bits h.h_tables v
  | Sfl s -> Tables.bits s.s_tables v
  | Ni _ | Full _ | Lm _ -> 0

let compile_ni ctx ~fn ~kind ~name ~underlying ~naming ~(u : Underlying.t)
    ~scheme_bits fwd =
  Trace.span ctx ("serve.compile." ^ kind) @@ fun () ->
  let nn = underlying.n in
  if Array.length naming.Workload.name_of <> nn then
    invalid_arg ("Cr_serve.Engine." ^ fn ^ ": node count mismatch");
  let fwd =
    match underlying.data with
    | Hier h ->
      { fwd with
        Forward.n_label = (fun v -> h.h_label.(v));
        n_under = Forward.hier h }
    | Sfl s ->
      { fwd with
        Forward.n_label = (fun v -> s.s_label.(v));
        n_under = Forward.sfl s }
    | Ni _ | Full _ | Lm _ ->
      invalid_arg
        "Cr_serve.Engine: underlying engine must serve a labeled scheme"
  in
  let idb = Bits.id_bits nn in
  finish ctx
    { data =
        Ni { fwd; name_of = Array.copy naming.Workload.name_of; under = underlying };
      metric = underlying.metric; adj = underlying.adj; n = nn; name; kind;
      budget = ni_budget nn;
      bits =
        (fun v ->
          (* hub row + name entry + the scheme's directory share + the
             underlying engine's compiled tables *)
          ((fwd.n_top + 2) * idb)
          + (scheme_bits v - u.u_table_bits v)
          + ring_bits underlying v) }

let compile_simple_ni ?obs ?pool:_ ~underlying scheme =
  compile_ni (Trace.resolve obs) ~fn:"compile_simple_ni" ~kind:"simple-ni"
    ~name:"simple name-independent (Thm 1.4)" ~underlying
    ~naming:(Simple_ni.naming scheme) ~u:(Simple_ni.underlying scheme)
    ~scheme_bits:(Simple_ni.table_bits scheme) (Simple_ni.compiled scheme)

let compile_scale_free_ni ?obs ?pool:_ ~underlying scheme =
  compile_ni (Trace.resolve obs) ~fn:"compile_scale_free_ni" ~kind:"sf-ni"
    ~name:"scale-free name-independent (Thm 1.1)" ~underlying
    ~naming:(Scale_free_ni.naming scheme) ~u:(Scale_free_ni.underlying scheme)
    ~scheme_bits:(Scale_free_ni.table_bits scheme)
    (Scale_free_ni.compiled scheme)

let compile_full ?obs ?(pool = Pool.default ()) m =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.full" @@ fun () ->
  let nn = Metric.n m in
  let rows_by_src =
    Pool.parallel_init pool nn (fun src -> Metric.first_hops m ~src)
  in
  let rows = Array.make (nn * nn) (-1) in
  Array.iteri (fun src row -> Array.blit row 0 rows (src * nn) nn) rows_by_src;
  let t =
    { data = Full { t_rows = rows }; metric = m;
      adj = Flat.of_graph (Metric.graph m); n = nn; name = "full-table";
      kind = "full"; budget = 10 + (4 * nn);
      bits = (fun _ -> (nn - 1) * Bits.id_bits nn) }
  in
  finish ctx t

let compile_landmark ?obs ?(pool = Pool.default ()) m lm =
  let ctx = Trace.resolve obs in
  Trace.span ctx "serve.compile.landmark" @@ fun () ->
  let nn = Metric.n m in
  let idb = Bits.id_bits nn in
  let rows =
    Pool.parallel_init pool nn (fun u ->
        let fh = Metric.first_hops m ~src:u in
        let home = Landmark.home lm u in
        let keep v =
          v <> u
          && (Landmark.is_landmark lm u
             || Metric.dist m u v < Metric.dist m u home)
        in
        let members = ref [] in
        for v = nn - 1 downto 0 do
          if keep v then members := v :: !members
        done;
        let mem = Array.of_list !members in
        let hop = Array.map (fun v -> fh.(v)) mem in
        let home_hop = if home = u then -1 else fh.(home) in
        (mem, hop, home_hop))
  in
  let off = Array.make (nn + 1) 0 in
  Array.iteri (fun u (mem, _, _) -> off.(u + 1) <- off.(u) + Array.length mem) rows;
  let bunch = Array.make off.(nn) 0 in
  let bunch_hop = Array.make off.(nn) 0 in
  let home_arr = Array.make nn 0 in
  let home_hop_arr = Array.make nn (-1) in
  let is_lm = Array.make nn false in
  let bits = Array.make nn 0 in
  Array.iteri
    (fun u (mem, hop, home_hop) ->
      Array.blit mem 0 bunch off.(u) (Array.length mem);
      Array.blit hop 0 bunch_hop off.(u) (Array.length hop);
      home_arr.(u) <- Landmark.home lm u;
      home_hop_arr.(u) <- home_hop;
      is_lm.(u) <- Landmark.is_landmark lm u;
      (* member id + next hop per row entry, plus home id and its hop *)
      bits.(u) <- ((2 * Array.length mem) + 2) * idb)
    rows;
  let l =
    { m_home = home_arr; m_home_hop = home_hop_arr; m_is_lm = is_lm;
      m_bunch_off = off; m_bunch = bunch; m_bunch_hop = bunch_hop;
      m_bits = bits }
  in
  let t =
    { data = Lm l; metric = m; adj = Flat.of_graph (Metric.graph m); n = nn;
      name = "landmark (TZ stretch-3)"; kind = "landmark";
      budget = 10 + (8 * nn); bits = (fun v -> bits.(v)) }
  in
  finish ctx t

(* {2 Accounting} *)

let compiled_bits t v = t.bits v

let ring_arena t =
  match t.data with
  | Hier h -> Some h.h_tables
  | Sfl s -> Some s.s_tables
  | Ni _ | Full _ | Lm _ -> None

(* A zooming-sequence table (n rows of top + 1 ids), read by the
   name-independent loop and the netting-descent fallback. *)
let zoom_words nn top = nn * (top + 1)

let rec data_words t =
  match t.data with
  | Hier h ->
    Tables.words h.h_tables + Array.length h.h_label
    + Array.length h.h_node_of
  | Sfl s ->
    Tables.words s.s_tables + Array.length s.s_label
    + Array.length s.s_node_of + Array.length s.s_radii
    + Array.length s.s_vor_owner + Array.length s.s_vor_parent
    + zoom_words t.n s.s_descent.d_top
  | Ni i ->
    data_words i.under + zoom_words t.n i.fwd.n_top + Array.length i.name_of
  | Full f -> Array.length f.t_rows
  | Lm l ->
    Array.length l.m_home + Array.length l.m_home_hop
    + Array.length l.m_is_lm + Array.length l.m_bunch_off
    + Array.length l.m_bunch + Array.length l.m_bunch_hop
    + Array.length l.m_bits

let bytes_per_node t =
  float_of_int (8 * (data_words t + Flat.words t.adj)) /. float_of_int t.n

let rec fallbacks t =
  match t.data with
  | Sfl s -> Atomic.get s.s_fallbacks
  | Ni i -> fallbacks i.under
  | Hier _ | Full _ | Lm _ -> 0
