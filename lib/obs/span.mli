(** Lightweight wall-time span tracer for the workflow stages.

    Disabled (the default), {!with_} is one atomic load and a tail call.
    Enabled, each span records wall time in microseconds since the
    module's load-time epoch, the caller's attributes and the delta of every
    registered {!Metrics} counter across its extent.  Completed spans
    accumulate in completion order. *)

type completed = {
  name : string;
  start_us : float;  (** µs since the tracer's epoch *)
  dur_us : float;
  attrs : (string * string) list;
  deltas : (string * int) list;  (** nonzero counter deltas *)
}

val set_enabled : bool -> unit
val enabled : unit -> bool

(** Microseconds since the tracer's epoch (set when the module loads).
    {!Trace_ctx} shares this timebase so request spans and global spans
    line up in one trace file. *)
val now_us : unit -> float

(** [with_ ~attrs name f] runs [f ()]; when tracing is enabled the call
    is recorded (also when [f] raises — a span closed by an exception
    carrying a {!Gpu_diag.Diag.t} payload gains [diag.severity] and
    [diag.stage] attributes, any other exception an [error] attribute). *)
val with_ : ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** The attributes {!with_} attaches to a span closed by this exception:
    [diag.severity]/[diag.stage] for {!Gpu_diag.Diag.Diag_error}, a
    generic [error] tag otherwise.  Shared with {!Trace_ctx}. *)
val exn_attrs : exn -> (string * string) list

(** Completed spans, in completion order. *)
val completed : unit -> completed list

val clear : unit -> unit
