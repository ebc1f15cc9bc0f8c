(** Register values: 64-bit bit patterns.  Integer and single-precision
    operations use the (zero-extended) low word; double-precision uses the
    full width — a simplification over real register pairs.  Re-exports
    {!Machine.Conv}. *)

type t = int64

val of_i32 : int32 -> t
val to_i32 : t -> int32

(** Round an OCaml float to the nearest single-precision value. *)
val round_f32 : float -> float

val of_f32 : float -> t
val to_f32 : t -> float
val of_f64 : float -> t
val to_f64 : t -> float
val of_int : int -> t
val to_int : t -> int
