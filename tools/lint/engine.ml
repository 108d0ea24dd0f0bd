let all_rules =
  [ Trace_guard.rule;
    Determinism.rule;
    Unsafe_compare.rule;
    Mli_coverage.rule ]

let parse_source ~filename source =
  let lexbuf = Lexing.from_string source in
  Location.init lexbuf filename;
  Location.input_name := filename;
  Parse.implementation lexbuf

let parse_error_diag ~rel exn =
  let line =
    match exn with
    | Syntaxerr.Error err ->
      (Syntaxerr.location_of_error err).Location.loc_start.Lexing.pos_lnum
    | _ -> 1
  in
  Rule.diag_at ~rule:"parse-error" ~file:rel ~line
    (Printf.sprintf "cannot parse: %s" (Printexc.to_string exn))

(* Suppressions cover their own line and the next one; each must name a
   known rule, carry a reason (checked by Source.scan), and actually
   suppress something — a stale suppression is reported so the allowlist
   cannot rot silently.

   With two lint tiers sharing one suppression syntax, staleness is
   adjudicated per tier: a tier only reports an unused suppression for
   rules in [own_rules] (it cannot know whether the other tier's
   suppressions fire), while unknown-rule and malformed-comment errors
   are emitted once, by the tier running with [report_malformed] (the
   syntactic one, which always runs). *)
let apply_suppressions ~rel ~own_rules ~known_rules ~report_malformed
    suppressions malformed diags =
  let used = Array.make (List.length suppressions) false in
  let suppressed d =
    List.exists
      (fun (i, s) ->
        let hit =
          String.equal s.Source.rule d.Rule.rule
          && (d.Rule.line = s.Source.line || d.Rule.line = s.Source.line + 1)
        in
        if hit then used.(i) <- true;
        hit)
      (List.mapi (fun i s -> (i, s)) suppressions)
  in
  let kept = List.filter (fun d -> not (suppressed d)) diags in
  let syntax_diags =
    if not report_malformed then []
    else
      List.map
        (fun (line, msg) ->
          Rule.diag_at ~rule:"suppression-syntax" ~file:rel ~line msg)
        malformed
  in
  let stale_diags =
    List.concat
      (List.mapi
         (fun i s ->
           if not (List.mem s.Source.rule known_rules) then
             if report_malformed then
               [ Rule.diag_at ~rule:"suppression-syntax" ~file:rel
                   ~line:s.Source.line
                   (Printf.sprintf "suppression names unknown rule `%s`"
                      s.Source.rule) ]
             else []
           else if List.mem s.Source.rule own_rules && not used.(i) then
             [ Rule.diag_at ~rule:"unused-suppression"
                 ~severity:Rule.Warning ~file:rel ~line:s.Source.line
                 (Printf.sprintf
                    "suppression of `%s` matches no diagnostic; delete it"
                    s.Source.rule) ]
           else [])
         suppressions)
  in
  kept @ syntax_diags @ stale_diags

let check_source ?(rules = all_rules) ?(extra_known_rules = []) ~rel ?abs
    source =
  let abs = Option.value abs ~default:rel in
  let suppressions, malformed = Source.scan source in
  let own_rules = List.map (fun r -> r.Rule.id) rules in
  let known_rules = own_rules @ extra_known_rules in
  let diags =
    match parse_source ~filename:rel source with
    | structure ->
      let input = { Rule.rel; abs; source; structure } in
      List.concat_map
        (fun r -> if r.Rule.applies rel then r.Rule.check input else [])
        rules
    | exception exn -> [ parse_error_diag ~rel exn ]
  in
  List.sort Rule.compare_diag
    (apply_suppressions ~rel ~own_rules ~known_rules ~report_malformed:true
       suppressions malformed diags)

type report = {
  diagnostics : Rule.diagnostic list;
  files : int;
}

let rec collect_ml_files root rel acc =
  let abs = Filename.concat root rel in
  if Sys.is_directory abs then
    Sys.readdir abs |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if String.length name > 0 && (name.[0] = '.' || name.[0] = '_')
           then acc
           else collect_ml_files root (rel ^ "/" ^ name) acc)
         acc
  else if Filename.check_suffix rel ".ml" then rel :: acc
  else acc

let run ?(rules = all_rules) ?(extra_known_rules = []) ~root paths =
  let files =
    List.concat_map (fun p -> List.rev (collect_ml_files root p [])) paths
    |> List.sort_uniq String.compare
  in
  let diagnostics =
    List.concat_map
      (fun rel ->
        let abs = Filename.concat root rel in
        check_source ~rules ~extra_known_rules ~rel ~abs
          (Source.read_file abs))
      files
  in
  { diagnostics = List.sort Rule.compare_diag diagnostics;
    files = List.length files }

let error_count diags =
  List.length (List.filter (fun d -> d.Rule.severity = Rule.Error) diags)

let render_human ppf diags =
  List.iter (fun d -> Format.fprintf ppf "%a@." Rule.pp_human d) diags

let render_json ppf diags =
  Format.fprintf ppf "[";
  List.iteri
    (fun i d ->
      Format.fprintf ppf "%s@.%s" (if i = 0 then "" else ",") (Rule.to_json d))
    diags;
  Format.fprintf ppf "@.]@."
