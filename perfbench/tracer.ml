(* The benchmark's own tracing: Cr_obs.Trace spans around each call the
   benchmark makes into a library layer, kept in memory and written out at
   exit. Library-internal [?obs] contexts stay null; only the benchmark's
   calls are spanned.

   Span names are "<layer>.<detail>". Each operation's root span carries a
   fresh operation id as an "op" counter event, so spans of one operation
   share that id. Work the benchmark times inside a library call without a
   span of its own (a protocol message handler, a codec measure) is
   reported as a "charge:<name>" counter: a child of the enclosing span
   whose duration is the counter value. *)

module Trace = Cr_obs.Trace

type t = {
  ctx : Trace.context;
  events : Trace.event list ref;  (* newest first *)
  mutable next_op : int;
}

let null = { ctx = Trace.null; events = ref []; next_op = 0 }

let create () =
  let events = ref [] in
  { ctx =
      Trace.make ~clock:Clock.now
        { Trace.emit = (fun e -> events := e :: !events); flush = ignore };
    events;
    next_op = 0 }

let enabled t = Trace.enabled t.ctx

let span t name f = if enabled t then Trace.span t.ctx name f else f ()

(* [op t name f]: a root span opening a new operation. *)
let op t name f =
  if enabled t then begin
    let id = t.next_op in
    t.next_op <- id + 1;
    Trace.span t.ctx name (fun () ->
        Trace.counter t.ctx "op" (float_of_int id);
        f ())
  end
  else f ()

let charge_prefix = "charge:"

let charge t name seconds =
  if enabled t then Trace.counter t.ctx (charge_prefix ^ name) seconds

let events t = List.rev !(t.events)

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Where a span ran: inside a "setup" root span (one cold set-up),
   inside a "round" root span (one measured round), or elsewhere (warm-up
   and checks, run once). *)
type scope = Setup | Round | Once

let scope_of_root = function
  | "setup" -> Setup
  | "round" -> Round
  | _ -> Once

(* Self time per (scope, span name): duration minus the part covered by
   child spans and charges. Sorted by scope, then name. *)
let self_times events =
  let tbl = Hashtbl.create 64 in
  let scope = ref Once in
  let add name v =
    let k = (!scope, name) in
    Hashtbl.replace tbl k
      (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  (* stack of (name, opened at, time covered by children) *)
  let stack = ref [] in
  let cover v =
    match !stack with
    | (n, t0, c) :: rest -> stack := (n, t0, c +. v) :: rest
    | [] -> ()
  in
  List.iter
    (fun (ev : Trace.event) ->
      match ev.Trace.body with
      | Trace.Span_open { name } ->
        if !stack = [] then scope := scope_of_root name;
        stack := (name, ev.Trace.ts, 0.0) :: !stack
      | Trace.Span_close { name } -> (
        match !stack with
        | (n, t0, c) :: rest when String.equal n name ->
          stack := rest;
          let dur = ev.Trace.ts -. t0 in
          add name (dur -. c);
          cover dur
        | _ -> invalid_arg ("Tracer.self_times: unbalanced span " ^ name))
      | Trace.Counter { name; value }
        when String.starts_with ~prefix:charge_prefix name ->
        let child =
          String.sub name (String.length charge_prefix)
            (String.length name - String.length charge_prefix)
        in
        add child value;
        cover value
      | _ -> ())
    events;
  if !stack <> [] then invalid_arg "Tracer.self_times: span left open";
  List.sort compare (Hashtbl.fold (fun (sc, k) v acc -> (sc, k, v) :: acc) tbl [])

(* Self time per span name, normalized to one set-up and one round:
   setup-scope time divided by [setups], round-scope time by [rounds],
   once-scope time as is. *)
let normalized ~setups ~rounds self =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (sc, name, v) ->
      let v =
        match sc with
        | Setup -> v /. float_of_int (Int.max 1 setups)
        | Round -> v /. float_of_int (Int.max 1 rounds)
        | Once -> v
      in
      Hashtbl.replace tbl name
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl name)))
    self;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

(* Self time summed per layer (the span-name prefix), from [normalized]. *)
let layer_times self =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (name, v) ->
      let l = layer_of name in
      Hashtbl.replace tbl l
        (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl l)))
    self;
  tbl

let chrome t = Cr_obs.Chrome.to_string (events t)
