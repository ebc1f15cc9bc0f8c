(** Minimal JSON values and a recursive-descent parser — the reading
    counterpart of {!Json_text}'s emission helpers.  Used by the
    accuracy ledger (JSONL records), the daemon's wire protocol and the
    workload registry's parameter codec; no external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

(** Parse one JSON document.  [Error msg] carries a byte offset.  Input
    past the document (other than whitespace) is an error. *)
val parse : string -> (t, string) result

(** Serialize compactly (no whitespace); numbers via
    {!Json_text.number}, so [encode] ∘ [parse] is stable. *)
val encode : t -> string

(** {2 Accessors} — all total, [None] on a type or key mismatch. *)

val member : string -> t -> t option
val to_float : t -> float option

(** [Num] within ±2^53 and integral. *)
val to_int : t -> int option

val to_string : t -> string option
val to_list : t -> t list option
val to_obj : t -> (string * t) list option
