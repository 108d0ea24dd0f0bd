(* Order statistics and aggregation used by every workload. *)

let sorted_copy a =
  let s = Array.copy a in
  Array.sort Float.compare s;
  s

(* Nearest-rank percentile on an ascending array: the sample at rank
   ceil (p * n), 1-based. *)
let nearest_rank sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stat.nearest_rank: no samples";
  if not (p > 0.0 && p <= 1.0) then invalid_arg "Stat.nearest_rank: p";
  let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
  sorted.(Int.max 1 (Int.min n rank) - 1)

(* Samples strictly above the nearest-rank [p] sample's position. *)
let beyond n p = n - int_of_float (Float.ceil (p *. float_of_int n))

(* A percentile is reported only with at least ten samples beyond it. *)
let min_beyond = 10

let supports n p = beyond n p >= min_beyond

(* Smallest sample count at which [p] is supported. *)
let samples_needed p =
  let rec go n = if supports n p then n else go (n + 1) in
  go 1

let median samples = nearest_rank (sorted_copy samples) 0.5

let geomean = function
  | [] -> invalid_arg "Stat.geomean: empty"
  | xs ->
    if List.exists (fun x -> not (x > 0.0)) xs then
      invalid_arg "Stat.geomean: non-positive value";
    let s = List.fold_left (fun acc x -> acc +. Float.log x) 0.0 xs in
    Float.exp (s /. float_of_int (List.length xs))

(* A growable float buffer for latency samples. *)
type samples = { mutable data : float array; mutable len : int }

let create_samples () = { data = Array.make 1024 0.0; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0.0 in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let to_array s = Array.sub s.data 0 s.len

(* On a shared host, contention from other tenants comes in bursts of
   seconds that slow a round by up to 2x. Timed quantities are therefore
   measured in many short rounds spread over the run and reported at
   their best round: the median round, and even the 10th-percentile one,
   swing with the share of the run that happened to be contended, while
   the best round is the same as long as some round ran undisturbed. *)

(* [best_low xs]: the best of per-round costs (lower is better). *)
let best_low xs = Array.fold_left Float.min Float.infinity xs

(* [best_high xs]: the best of per-round rates (higher is better). *)
let best_high xs = Array.fold_left Float.max Float.neg_infinity xs
