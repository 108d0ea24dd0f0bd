(* Literal mutations inside a pool task — the cases a syntactic scan of
   the closure would see — for the domain-escape rule: the two captured
   writes fire; closure-local state and Atomic updates stay clean. *)

module Pool = Cr_par.Pool

(* violation: a captured table mutated in the task *)
let captured_hashtbl pool n (out : (int, int) Hashtbl.t) =
  Pool.parallel_init pool n (fun i ->
      Hashtbl.replace out i i;
      i)

(* violation: the [a.(i) <- v] sugar on a captured array *)
let captured_array pool (out : int array) xs =
  Pool.parallel_map pool
    (fun i ->
      out.(i) <- i;
      i)
    xs

(* clean: a table created inside the task *)
let local_hashtbl pool n =
  Pool.parallel_init pool n (fun i ->
      let t = Hashtbl.create 4 in
      Hashtbl.replace t i i;
      Hashtbl.length t)

(* clean: Atomic updates of captured state *)
let atomic_capture pool n c =
  Pool.parallel_init pool n (fun i ->
      Atomic.incr c;
      i)
