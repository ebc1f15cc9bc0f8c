(* Wire protocol: line-delimited JSON.  Everything here is pure and
   total — the daemon's robustness starts with a parser that can only
   return [Ok] or a [Serve]-stage diagnostic, never raise. *)

module D = Gpu_diag.Diag
module Jsonx = Gpu_obs.Jsonx
module Registry = Gpu_workloads.Registry

type endpoint = Tcp of string * int | Unix_socket of string

let endpoint_name = function
  | Tcp (host, port) -> Printf.sprintf "%s:%d" host port
  | Unix_socket path -> path

type format = Gpu_report.Render.format = Md | Html | Json

let format_name f =
  fst (List.find (fun (_, g) -> g = f) Gpu_report.Render.formats)

let format_of_name name = List.assoc_opt name Gpu_report.Render.formats

include Registry.Params

type request = {
  id : string;
  params : params;
  device : string;
  format : format;
  deadline_ms : int option;
  measure : bool;
  sample : int option;
}

let device_of_name = Gpu_hw.Spec.device_of_name

(* --- request parsing ----------------------------------------------------- *)

exception Bad of D.t

let bad fmt =
  Printf.ksprintf
    (fun m ->
      raise
        (Bad
           (D.make ~hint:"see the README protocol section for the schema"
              D.Error D.Serve m)))
    fmt

let known_keys =
  [
    "id"; "workload"; "params"; "device"; "format"; "deadline_ms";
    "measure"; "sample"; "op";
  ]

let get_bool ~what ~default fields key =
  match List.assoc_opt key fields with
  | None -> default
  | Some (Jsonx.Bool b) -> b
  | Some _ -> bad "%s: field %S must be a boolean" what key

let get_string ~what ?default fields key =
  match List.assoc_opt key fields with
  | None -> (
    match default with
    | Some d -> d
    | None -> bad "%s: missing required string field %S" what key)
  | Some (Jsonx.Str s) -> s
  | Some _ -> bad "%s: field %S must be a string" what key

let parse_request line =
  match Jsonx.parse line with
  | Error m ->
    Error
      (D.make ~hint:"requests are one JSON object per line" D.Error D.Serve
         (Printf.sprintf "unparsable request: %s" m))
  | Ok json -> (
    try
      let fields =
        match json with
        | Jsonx.Obj fields -> fields
        | _ -> bad "request must be a JSON object"
      in
      List.iter
        (fun (k, _) ->
          if not (List.mem k known_keys) then
            bad "request: unknown key %S" k)
        fields;
      let what = "request" in
      let workload = get_string ~what fields "workload" in
      let param_fields =
        match List.assoc_opt "params" fields with
        | None -> []
        | Some (Jsonx.Obj f) -> f
        | Some _ -> bad "request: field \"params\" must be an object"
      in
      let params =
        match Registry.of_fields ~workload param_fields with
        | Ok p -> p
        | Error m -> bad "%s" m
      in
      let device = get_string ~what ~default:"baseline" fields "device" in
      if device_of_name device = None then
        bad "unknown device %S (%s)" device
          (String.concat ", " (List.map fst Gpu_hw.Spec.fleet));
      let format_field =
        get_string ~what ~default:"json" fields "format"
      in
      let format =
        match format_of_name format_field with
        | Some f -> f
        | None -> bad "unknown format %S (json, md, html)" format_field
      in
      let deadline_ms =
        match List.assoc_opt "deadline_ms" fields with
        | None -> None
        | Some v -> (
          match Jsonx.to_int v with
          | Some i when i >= 0 -> Some i
          | Some i -> bad "request: deadline_ms must be >= 0, got %d" i
          | None -> bad "request: deadline_ms must be an integer")
      in
      let sample =
        match List.assoc_opt "sample" fields with
        | None -> None
        | Some v -> (
          match Jsonx.to_int v with
          | Some i when i >= 1 -> Some i
          | Some i -> bad "request: sample must be >= 1, got %d" i
          | None -> bad "request: sample must be an integer")
      in
      Ok
        {
          id = get_string ~what ~default:"" fields "id";
          params;
          device;
          format;
          deadline_ms;
          measure = get_bool ~what ~default:false fields "measure";
          sample;
        }
    with Bad d -> Error d)

(* --- request encoding ----------------------------------------------------- *)

let jint i = Jsonx.Num (float_of_int i)

let request_to_json r =
  Jsonx.Obj
    (List.concat
       [
         [
           ("id", Jsonx.Str r.id);
           ("workload", Jsonx.Str (Registry.name r.params));
           ("params", Jsonx.Obj (Registry.to_fields r.params));
           ("device", Jsonx.Str r.device);
           ("format", Jsonx.Str (format_name r.format));
         ];
         (match r.deadline_ms with
         | Some d -> [ ("deadline_ms", jint d) ]
         | None -> []);
         [ ("measure", Jsonx.Bool r.measure) ];
         (match r.sample with
         | Some s -> [ ("sample", jint s) ]
         | None -> []);
       ])

let encode_request r = Jsonx.encode (request_to_json r)

(* --- responses ------------------------------------------------------------ *)

type status =
  | Completed
  | Failed
  | Timed_out
  | Overloaded
  | Shutting_down
  | Malformed

let status_name = function
  | Completed -> "ok"
  | Failed -> "error"
  | Timed_out -> "timeout"
  | Overloaded -> "overloaded"
  | Shutting_down -> "shutting_down"
  | Malformed -> "malformed"

let status_of_name = function
  | "ok" -> Some Completed
  | "error" -> Some Failed
  | "timeout" -> Some Timed_out
  | "overloaded" -> Some Overloaded
  | "shutting_down" -> Some Shutting_down
  | "malformed" -> Some Malformed
  | _ -> None

type response = {
  r_id : string;
  status : status;
  elapsed_ms : float;
  confidence : string option;
  body : Jsonx.t option;
  rendered : string option;
  diags : D.t list;
  retry_after_ms : int option;
  queue_depth : int option;
  trace_id : string option;
  stage_breakdown : (string * float) list; (* stage -> wall µs, tiles elapsed *)
}

let response ?confidence ?body ?rendered ?(diags = []) ?retry_after_ms
    ?queue_depth ?trace_id ?(stage_breakdown = []) ~id ~elapsed_ms status =
  {
    r_id = id;
    status;
    elapsed_ms;
    confidence;
    body;
    rendered;
    diags;
    retry_after_ms;
    queue_depth;
    trace_id;
    stage_breakdown;
  }

let response_to_json r =
  Jsonx.Obj
    (List.concat
       [
         [
           ("id", Jsonx.Str r.r_id);
           ("status", Jsonx.Str (status_name r.status));
           ("elapsed_ms", Jsonx.Num r.elapsed_ms);
         ];
         (match r.trace_id with
         | Some t -> [ ("trace_id", Jsonx.Str t) ]
         | None -> []);
         (match r.stage_breakdown with
         | [] -> []
         | stages ->
           [
             ( "stage_us",
               Jsonx.Obj
                 (List.map (fun (n, us) -> (n, Jsonx.Num us)) stages) );
           ]);
         (match r.confidence with
         | Some c -> [ ("confidence", Jsonx.Str c) ]
         | None -> []);
         (match r.body with Some b -> [ ("result", b) ] | None -> []);
         (match r.rendered with
         | Some s -> [ ("report", Jsonx.Str s) ]
         | None -> []);
         (match r.diags with
         | [] -> []
         | diags ->
           [
             ( "diagnostics",
               Jsonx.List (List.map Gpu_report.Render.diag_json diags) );
           ]);
         (match r.retry_after_ms with
         | Some ms -> [ ("retry_after_ms", jint ms) ]
         | None -> []);
         (match r.queue_depth with
         | Some n -> [ ("queue_depth", jint n) ]
         | None -> []);
       ])

let encode_response r = Jsonx.encode (response_to_json r)

let stage_of_name name =
  let all =
    [
      D.Disasm; D.Asm; D.Compile; D.Launch; D.Exec; D.Occupancy; D.Model;
      D.Timing; D.Cache; D.Cli; D.Serve; D.Budget;
    ]
  in
  List.find_opt (fun s -> D.stage_name s = name) all

let parse_diag json =
  let str key =
    match Jsonx.member key json with
    | Some (Jsonx.Str s) -> Some s
    | _ -> None
  in
  match (str "severity", str "stage", str "message") with
  | Some sev, Some stage, Some message ->
    let severity =
      match sev with
      | "error" -> D.Error
      | "warning" -> D.Warning
      | _ -> D.Info
    in
    let stage = Option.value ~default:D.Serve (stage_of_name stage) in
    Some (D.make ?hint:(str "hint") severity stage message)
  | _ -> None

let parse_response line =
  match Jsonx.parse line with
  | Error m ->
    Error
      (D.error D.Serve "unparsable response: %s" m)
  | Ok json -> (
    let str key =
      match Jsonx.member key json with
      | Some (Jsonx.Str s) -> Some s
      | _ -> None
    in
    let int key = Option.bind (Jsonx.member key json) Jsonx.to_int in
    match Option.bind (str "status") status_of_name with
    | None -> Error (D.error D.Serve "response has no valid status field")
    | Some status ->
      Ok
        {
          r_id = Option.value ~default:"" (str "id");
          status;
          elapsed_ms =
            Option.value ~default:0.0
              (Option.bind (Jsonx.member "elapsed_ms" json) Jsonx.to_float);
          confidence = str "confidence";
          body = Jsonx.member "result" json;
          rendered = str "report";
          diags =
            (match Jsonx.member "diagnostics" json with
            | Some (Jsonx.List l) -> List.filter_map parse_diag l
            | _ -> []);
          retry_after_ms = int "retry_after_ms";
          queue_depth = int "queue_depth";
          trace_id = str "trace_id";
          stage_breakdown =
            (match Jsonx.member "stage_us" json with
            | Some (Jsonx.Obj fields) ->
              List.filter_map
                (fun (n, v) ->
                  Option.map (fun us -> (n, us)) (Jsonx.to_float v))
                fields
            | _ -> []);
        })
