type result = {
  dist : float array;
  pred : int array;
}

(* Relaxations break ties toward the smaller predecessor id so that the
   shortest-path forest is deterministic. A tie only re-parents [v] onto a
   strictly closer [u] ([d < cand]): where a weight vanishes in the float
   sum ([d +. w = d], distances past 2^53 times the weight), two equally
   distant neighbors would otherwise adopt each other and close a
   predecessor cycle that [path] never leaves. *)
let run g s =
  let n = Graph.n g in
  if s < 0 || s >= n then invalid_arg "Dijkstra.run: source out of range";
  let dist = Array.make n infinity in
  let pred = Array.make n (-1) in
  let heap = Priority_queue.create () in
  dist.(s) <- 0.0;
  Priority_queue.push heap ~priority:0.0 s;
  while not (Priority_queue.is_empty heap) do
    let d, u = Priority_queue.pop_min heap in
    if d <= dist.(u) then
      Graph.iter_neighbors g u (fun v w ->
          let cand = d +. w in
          if
            cand < dist.(v)
            || Float.equal cand dist.(v)
               && d < cand && pred.(v) >= 0 && u < pred.(v)
          then begin
            let improved = cand < dist.(v) in
            dist.(v) <- cand;
            pred.(v) <- u;
            if improved then Priority_queue.push heap ~priority:cand v
          end)
  done;
  { dist; pred }

let path r v =
  if not (Float.is_finite r.dist.(v)) then
    invalid_arg "Dijkstra.path: unreachable node";
  let rec build v acc =
    if r.pred.(v) = -1 then v :: acc else build r.pred.(v) (v :: acc)
  in
  build v []

let next_hop_toward r v =
  match path r v with
  | _ :: hop :: _ -> hop
  | _ -> invalid_arg "Dijkstra.next_hop_toward: destination is the source"

(* Lexicographic (distance, owner) relaxation keeps Voronoi cells
   prefix-closed; see the interface for why that matters. *)
let multi_source g sources =
  let n = Graph.n g in
  if sources = [] then invalid_arg "Dijkstra.multi_source: no sources";
  let dist = Array.make n infinity in
  let owner = Array.make n (-1) in
  let pred = Array.make n (-1) in
  let heap = Priority_queue.create () in
  List.iter
    (fun s ->
      if s < 0 || s >= n then
        invalid_arg "Dijkstra.multi_source: source out of range";
      if 0.0 < dist.(s) || owner.(s) = -1 || s < owner.(s) then begin
        dist.(s) <- 0.0;
        owner.(s) <- s;
        pred.(s) <- -1;
        Priority_queue.push heap ~priority:0.0 s
      end)
    sources;
  while not (Priority_queue.is_empty heap) do
    let d, u = Priority_queue.pop_min heap in
    if d <= dist.(u) then
      Graph.iter_neighbors g u (fun v w ->
          let cand = d +. w in
          let better =
            cand < dist.(v)
            || (Float.equal cand dist.(v) && owner.(u) < owner.(v))
          in
          if better then begin
            dist.(v) <- cand;
            owner.(v) <- owner.(u);
            pred.(v) <- u;
            Priority_queue.push heap ~priority:cand v
          end)
  done;
  (dist, owner, pred)
