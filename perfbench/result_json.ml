(* The benchmark's result line and the metric-name grammar. *)

type metric = { name : string; unit : string; value : float }

let is_name_char c =
  match c with
  | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
  | _ -> false

(* [A-Za-z0-9_.-]+, starting with a letter or digit, at most 64 long. *)
let valid_name s =
  let n = String.length s in
  n > 0 && n <= 64
  && (match s.[0] with
     | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true
     | _ -> false)
  && String.for_all is_name_char s

let number v =
  if not (Float.is_finite v) then invalid_arg "Result_json.number: not finite";
  Printf.sprintf "%.17g" v

let metrics_object ms =
  List.iter
    (fun m ->
      if not (valid_name m.name) then
        invalid_arg ("Result_json: bad metric name " ^ m.name))
    ms;
  "{"
  ^ String.concat ", "
      (List.map
         (fun m ->
           Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" m.name
             (number m.value) m.unit)
         ms)
  ^ "}"

let line ~correct ~attempted ~failed ms =
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}"
    correct attempted failed (metrics_object ms)
