(** Global device memory: a flat buffer of unboxed 32-bit words addressed
    by byte, with the driver-side buffer allocator (the cudaMalloc analog;
    bases are 256-byte aligned, which matters for coalescing). *)

type t

exception Fault of string

val create : bytes:int -> t
val size_bytes : t -> int

(** Loads and stores raise {!Fault} on out-of-bounds, misaligned or
    poisoned accesses.  32-bit words cross as immediates: [load32] returns
    the word sign-extended, [store32] stores the low 32 bits. *)
val load32 : t -> int -> int

val store32 : t -> int -> int -> unit
val load64 : t -> int -> int64
val store64 : t -> int -> int64 -> unit

(** Fault injection: mark a byte range as failing, so any overlapping
    access raises {!Fault} — a deterministic stand-in for a failing memory
    transaction (ECC/Xid-style errors on real devices). *)
val poison : t -> addr:int -> width:int -> unit

val alignment : int

type allocation = { base : int; length : int (** words *) }

(** [layout sizes] places buffers of the given word sizes back to back with
    aligned bases; returns the allocations and total bytes needed. *)
val layout : int list -> allocation list * int

val copy_in : t -> allocation -> int32 array -> unit

(** Write a buffer back to the caller's array; only words that differ are
    stored, so unchanged inputs cost no allocation. *)
val copy_out : t -> allocation -> int32 array -> unit
val floats_to_words : float array -> int32 array
val words_to_floats : int32 array -> float array
