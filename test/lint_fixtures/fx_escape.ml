(* Known-bad/known-good snippets for the domain-escape rule: mutations
   no syntactic scan of the task closure can see, because they hide
   behind a callee or a local alias (domain-escape reports both). *)

module Pool = Cr_par.Pool

let fill (out : int array) i = out.(i) <- i * i

(* violation: the captured array escapes to a callee that writes it *)
let fan_out pool n (out : int array) =
  Pool.parallel_init pool n (fun i ->
      fill out i;
      i)

(* violation: the write goes through a local alias of captured state *)
let fan_alias pool n (out : int array) =
  Pool.parallel_init pool n (fun i ->
      let o = out in
      o.(i) <- i;
      i)

(* clean: reading captured state is fine *)
let fan_read pool n (src : int array) =
  Pool.parallel_init pool n (fun i -> src.(i) + 1)
