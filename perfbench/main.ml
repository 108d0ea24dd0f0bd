(* perfbench main.exe: runs one workload and prints its result line last.

     main.exe --workload NAME --seed N --seconds S --trace 0|1

   Outputs for the traced report go to .perfbench_out/.

   Exit status 0 when the run completed, 1 when some output check failed,
   2 on a usage error. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1";
  prerr_endline
    ("workloads: "
    ^ String.concat ", " (List.map fst Perfbench.Workloads.workloads));
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := Some v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | arg :: _ ->
      prerr_endline ("bad argument: " ^ arg);
      usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace
    when seed >= 0 && seconds > 0.0
         && List.mem_assoc name Perfbench.Workloads.workloads ->
    let ok, _ =
      Perfbench.Workloads.run ~name ~seed ~seconds ~size:Perfbench.Env.Full
        ~trace ~out:".perfbench_out"
    in
    exit (if ok then 0 else 1)
  | _ -> usage ()
