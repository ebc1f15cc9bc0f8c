(** Fixed-capacity ring buffer of timeline slices with a Chrome
    trace-event JSON exporter (chrome://tracing / Perfetto loadable).

    A slice is one busy interval on one track; tracks are (pid, tid)
    pairs.  Timestamps and durations are integer producer units (the
    timing engine emits ticks); the JSON writer applies [scale] so the
    exported microsecond axis reads in core cycles.  Past capacity the
    oldest slices drop ([dropped] counts them) — the producer never
    blocks and memory stays bounded. *)

type slice = {
  pid : int;
  tid : int;
  cat : string;
  name : string;
  ts : int;
  dur : int;
}

type t

(** Default capacity: [2^20] slices. *)
val create : ?capacity:int -> unit -> t

val add :
  t -> pid:int -> tid:int -> cat:string -> name:string -> ts:int ->
  dur:int -> unit

(** Slices ever added, including dropped ones. *)
val added : t -> int

val dropped : t -> int

(** [Some warning] when the ring overflowed and drop-oldest truncated the
    trace to a suffix window: a [Gpu_diag] warning naming the dropped
    count and the capacity that would have kept everything.  [None] while
    nothing has been dropped.  Every dropping {!add} also increments the
    [obs.timeline.dropped] counter metric. *)
val drop_warning : t -> Gpu_diag.Diag.t option

(** Human-readable names for Perfetto's track labels.  Capped: past 4096
    registrations new names are ignored. *)
val set_process : t -> pid:int -> string -> unit

val set_thread : t -> pid:int -> tid:int -> string -> unit

(** Retained slices in insertion order (the newest [capacity] of them). *)
val slices : t -> slice array

(** Total duration of retained slices with the given category — the
    quantity the lib/check audit ties to the engine's busy counters. *)
val sum_dur : t -> cat:string -> int

(** Trace-event JSON: [ph:"X"] complete events for slices (pid/tid
    tracks, ts sorted) and workflow spans (pid 0 tid 0, µs, with
    attrs/counter deltas as args), [ph:"M"] metadata for
    track names.  [tracks] are labelled sibling span tracks on pid 0
    (tids 1..) — [gpuperf trace-serve] exports each captured request's
    span tree as one.  [scale] multiplies slice ts/dur (default 1.0). *)
val to_json :
  ?scale:float -> ?spans:Span.completed list ->
  ?tracks:(string * Span.completed list) list -> t -> string

val write_json :
  ?scale:float -> ?spans:Span.completed list ->
  ?tracks:(string * Span.completed list) list -> out_channel -> t -> unit
