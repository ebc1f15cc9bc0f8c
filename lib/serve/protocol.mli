(** Wire protocol of the analysis daemon: line-delimited JSON over a
    Unix or TCP socket.

    Each request is one JSON object on one line; each response is one
    JSON object on one line.  Responses carry the request [id] so
    clients may pipeline: completions are written in finish order, not
    submission order.  Parsing is total — a malformed line becomes a
    [Malformed] response, never a daemon fault — and
    [encode_request ∘ parse_request] is stable.

    The daemon also answers three HTTP GET endpoints on the same socket
    ([/metrics], [/healthz], [/dashboard]) and three in-band control
    operations
    ([{"op":"ping"}], [{"op":"health"}], [{"op":"metrics"}]); see
    {!Server}. *)

module Jsonx = Gpu_obs.Jsonx

(** Where the daemon listens and clients connect. *)
type endpoint =
  | Tcp of string * int  (** host, port; port [0] = ephemeral *)
  | Unix_socket of string  (** filesystem path *)

val endpoint_name : endpoint -> string

(** Rendering of a successful analysis in the response body. *)
type format = Json | Md | Html

val format_name : format -> string

(** Workload selection plus parameters: {!Gpu_workloads.Registry.Params}
    re-exported, so the wire's [workload]/[params] pair is decoded,
    defaulted and range-checked by the registry alone. *)
include module type of struct
  include Gpu_workloads.Registry.Params
end

type request = {
  id : string;  (** client correlation token; echoed verbatim *)
  params : params;
  device : string;  (** a name from {!Gpu_hw.Spec.fleet} *)
  format : format;
  deadline_ms : int option;
      (** per-request time budget from admission; [Some 0] is already
          expired and is answered without running (deterministic
          expiry).  [None] falls back to the server default. *)
  measure : bool;  (** also run the timing simulator *)
  sample : int option;  (** functional-simulation block sample *)
}

(** {!Gpu_hw.Spec.device_of_name}, the daemon's [device] lookup. *)
val device_of_name : string -> Gpu_hw.Spec.t option

(** Parse one request line.  Diagnostics use the [Serve] stage; unknown
    workload, device, format, or field types are all [Error].  Unknown
    object keys are rejected (protects against silently ignored
    misspellings of [deadline_ms]). *)
val parse_request : string -> (request, Gpu_diag.Diag.t) result

val request_to_json : request -> Jsonx.t

(** One line, no trailing newline; [parse_request] of this is [Ok] and
    equal to the input. *)
val encode_request : request -> string

(** Response status, rendered into the wire [status] field. *)
type status =
  | Completed  (** ["ok"] *)
  | Failed  (** ["error"] — the request failed; the daemon is fine *)
  | Timed_out  (** ["timeout"] — deadline budget exhausted *)
  | Overloaded  (** ["overloaded"] — admission queue full; retry later *)
  | Shutting_down  (** ["shutting_down"] — daemon is draining *)
  | Malformed  (** ["malformed"] — unparsable or oversized line *)

val status_name : status -> string
val status_of_name : string -> status option

type response = {
  r_id : string;  (** echoed request id, [""] when unparsable *)
  status : status;
  elapsed_ms : float;  (** admission to completion *)
  confidence : string option;
      (** ["calibrated"] or ["degraded"]; degraded also when answered
          from a degraded calibration-cache state *)
  body : Jsonx.t option;  (** [result] object for [Json] requests *)
  rendered : string option;  (** [report] text for [Md]/[Html] *)
  diags : Gpu_diag.Diag.t list;
      (** the error first (if any), then warnings *)
  retry_after_ms : int option;  (** backpressure hint on [Overloaded] *)
  queue_depth : int option;  (** admitted-but-unfinished requests *)
  trace_id : string option;
      (** request's trace id; the access-log line carries the same one *)
  stage_breakdown : (string * float) list;
      (** wire field [stage_us]: per-stage wall µs (queue-wait, the
          workflow stages, render, a residual [other]) that sum to
          [elapsed_ms] for completed requests *)
}

val response :
  ?confidence:string ->
  ?body:Jsonx.t ->
  ?rendered:string ->
  ?diags:Gpu_diag.Diag.t list ->
  ?retry_after_ms:int ->
  ?queue_depth:int ->
  ?trace_id:string ->
  ?stage_breakdown:(string * float) list ->
  id:string ->
  elapsed_ms:float ->
  status ->
  response

val response_to_json : response -> Jsonx.t

(** One line, no trailing newline. *)
val encode_response : response -> string

(** Total accessor used by clients and tests: pull the pieces back out
    of an encoded response line. *)
val parse_response : string -> (response, Gpu_diag.Diag.t) result
