(* The metrics BENCHMARK.json declares, read at start-up, and the result
   line built from them.  BENCHMARK.json is the only list of names, units
   and directions: a run refuses to print a metric it does not declare
   and, for the end-to-end ones, a declared metric the workload left out. *)

module J = Gpu_report.Jsonx

type decl = { name : string; unit_ : string; better : string }
type t = { end_to_end : decl list; per_layer : decl list }

let valid_chars extra s =
  String.for_all
    (fun c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
      | c -> String.contains extra c)
    s

let valid_name s =
  s <> ""
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && valid_chars "" s

let valid_unit s = s <> "" && String.length s <= 16 && valid_chars "/%" s

let decl j =
  let str key =
    match Option.bind (J.member key j) J.to_string with
    | Some s -> s
    | None -> failwith ("metric without a string " ^ key)
  in
  let d = { name = str "name"; unit_ = str "unit"; better = str "better" } in
  if not (valid_name d.name) then failwith ("invalid metric name " ^ d.name);
  if not (valid_unit d.unit_) then failwith (d.name ^ ": invalid unit " ^ d.unit_);
  if d.better <> "lower" && d.better <> "higher" then
    failwith (d.name ^ ": better is neither lower nor higher");
  d

let parse text =
  match J.parse text with
  | Error m -> Error m
  | Ok j -> (
    let list key =
      match Option.bind (J.member key j) J.to_list with
      | Some l -> List.map decl l
      | None -> failwith ("no " ^ key ^ " list")
    in
    match { end_to_end = list "end_to_end"; per_layer = list "per_layer" } with
    | t ->
      let names = List.map (fun d -> d.name) (t.end_to_end @ t.per_layer) in
      if List.length (List.sort_uniq String.compare names) <> List.length names then
        Error "a metric name is declared twice"
      else Ok t
    | exception Failure m -> Error m)

let load path =
  let text =
    try In_channel.with_open_bin path In_channel.input_all
    with Sys_error m -> failwith ("cannot read the metric declarations: " ^ m)
  in
  match parse text with Ok t -> t | Error m -> failwith (path ^ ": " ^ m)

(* The declared metrics with their values, in declaration order.
   [values] may name only declared metrics; a declared one it leaves out
   reads [idle] when that is given (a layer the workload does not use)
   and is refused otherwise. *)
let select ?idle decls values =
  List.iter
    (fun (n, _) ->
      if not (List.exists (fun d -> d.name = n) decls) then
        invalid_arg ("Metrics_decl.select: undeclared metric " ^ n))
    values;
  List.map
    (fun d ->
      match (List.assoc_opt d.name values, idle) with
      | Some v, _ | None, Some v -> (d, v)
      | None, None -> invalid_arg ("Metrics_decl.select: missing metric " ^ d.name))
    decls

let number v =
  if not (Float.is_finite v) then invalid_arg "Metrics_decl.number: not finite";
  Printf.sprintf "%.17g" v

(* The last line of every run. *)
let result_line ~correct ~attempted ~failed selected =
  let metrics =
    List.map
      (fun (d, v) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" d.name (number v) d.unit_)
      selected
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " metrics)
