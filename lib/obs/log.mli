(** Leveled structured logging: one JSON object per line, each carrying
    [level] × [component] × [trace_id] × attrs.  Sinks serialize whole
    lines under a mutex (concurrent domains never interleave bytes);
    Debug events are sampled 1-in-{!set_debug_keep}; suppressed events
    bump an exact {!dropped} counter. *)

type level = Debug | Info | Warn | Error

val level_name : level -> string

(** Attribute values, rendered as the corresponding JSON type. *)
type value = S of string | I of int | F of float | B of bool

type sink

(** Open (default: append to) a JSONL file.  Raises [Sys_error]. *)
val open_file : ?append:bool -> string -> sink

val close : sink -> unit

(** The process-default sink used when {!event} gets no explicit one.
    [gpuperf serve] points this at the access log so [Calib_cache] and
    [Pool] warnings land in the same structured stream. *)
val set_default : sink option -> unit

val default : unit -> sink option

(** Minimum level written (default [Info]); events below it count as
    dropped. *)
val set_level : level -> unit

(** Keep 1 in [n] Debug events (default 1 = keep all). *)
val set_debug_keep : int -> unit

(** Events written / suppressed since start (or {!reset_counters}). *)
val emitted : unit -> int

val dropped : unit -> int
val reset_counters : unit -> unit

(** Emit one event.  With neither [?sink] nor a default sink this is a
    no-op (logging off).  [trace_id] defaults to [""] — the key is
    always present on the wire so log consumers can rely on it. *)
val event :
  ?sink:sink -> ?trace_id:string -> ?attrs:(string * value) list ->
  level -> component:string -> string -> unit
