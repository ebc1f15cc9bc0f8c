(** Request-scoped trace context: a splitmix64-derived trace id plus a
    per-request span tree, threaded {e explicitly} (no domain-local
    storage) from server admission through [Pool.async] and
    [Workflow.analyze].  Spans share {!Span}'s epoch and microsecond
    timebase, so request tracks and the global span track line up in
    one trace-event file. *)

type t

(** Fresh context with a new trace id (or the given one). *)
val make : ?id:string -> unit -> t

val id : t -> string

(** µs since {!Span}'s epoch at context creation. *)
val created_us : t -> float

(** Draw the next trace id (16 lowercase hex digits) from the
    process-global splitmix64 sequence.  Ids are unique within a
    process; the state is seeded from pid ⊕ wall-clock when the module
    loads. *)
val next_id : unit -> string

(** Override the id-sequence seed (tests). *)
val set_seed : int -> unit

(** [span t name f] runs [f ()] and records its extent into [t].
    Nested calls record at increasing depth; only depth-0 spans count
    as {e stages} for {!breakdown}.  A span closed by an exception is
    tagged via {!Span.exn_attrs} (diag severity/stage when the payload
    is a [Diag_error]).  Always records — per-request tracing has no
    global off switch; the off path is "no ctx". *)
val span : t -> ?attrs:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Record an already-measured top-level stage (e.g. queue-wait,
    reconstructed from admission and dispatch timestamps). *)
val stage :
  t -> ?attrs:(string * string) list -> string ->
  start_us:float -> dur_us:float -> unit

(** All recorded spans, sorted by start time. *)
val spans : t -> Span.completed list

(** Depth-0 spans only, sorted by start time. *)
val stages : t -> Span.completed list

(** Per-stage wall-µs breakdown over a request that took [total_us]:
    the depth-0 stages in chronological order, plus one residual
    ["other"] entry covering uninstrumented time, so the durations sum
    to [total_us] exactly (up to float rounding). *)
val breakdown : t -> total_us:float -> (string * float) list
