(** Global device memory: a flat buffer of unboxed 32-bit words addressed
    by byte, with the driver-side buffer allocator (the cudaMalloc analog;
    bases are 256-byte aligned, which matters for coalescing), and the
    host-side argument buffers that are copied in and out of it. *)

type t

exception Fault of string

(** [create ~bytes]: [bytes] zero bytes, rounded up to whole words. *)
val create : bytes:int -> t

(** [layout_only ~bytes]: a memory of the same size that holds no words,
    only its size and its poisoned ranges — for a statistics launch that
    loads no global word, whose accesses are only checked.  {!size_bytes},
    {!poison}, {!check_lanes} and every fault message behave as on
    {!create}.  Its contents are unreachable: {!load_lanes},
    {!store_lanes}, {!copy_in} and {!copy_out} raise [Invalid_argument]
    on it, whatever their lanes, so a launch that wrongly chose it fails
    instead of reading zeros. *)
val layout_only : bytes:int -> t

val size_bytes : t -> int

(** Fault injection: mark a byte range as failing, so any overlapping
    access raises {!Fault} — a deterministic stand-in for a failing memory
    transaction (ECC/Xid-style errors on real devices). *)
val poison : t -> addr:int -> width:int -> unit

(** {2 Lane sets}

    One warp's access: lane [l] is active when bit [l] of [mask] is set,
    and reads or writes [width] (4 or 8) bytes at byte address
    [addrs.(l)].  Its register is the 8 bytes at [reg + 8 * l] of [regs]
    (a register row of the interpreter's register file).

    Every active lane is checked first, in lane order: the first lane
    whose access is out of bounds, misaligned or poisoned raises {!Fault},
    and then no word has moved.  Raises [Invalid_argument] on another
    width. *)

(** [check_lanes t ~width addrs ~mask]: the checks {!load_lanes} and
    {!store_lanes} make before moving a word, alone — for an access whose
    values are not computed. *)
val check_lanes : t -> width:int -> int array -> mask:int -> unit

(** A 4-byte load zero-extends the word into the register; an 8-byte
    load reads the word at [a] as the low half and [a + 4] as the high
    half. *)
val load_lanes :
  t -> width:int -> int array -> mask:int -> Bytes.t -> reg:int -> unit

(** A 4-byte store writes the register's low 32 bits; an 8-byte store
    writes the low half at [a] and the high half at [a + 4]. *)
val store_lanes :
  t -> width:int -> int array -> mask:int -> Bytes.t -> reg:int -> unit

(** {2 Argument buffers}

    A kernel argument: a mutable array of 32-bit words in device-memory
    layout.  A float word holds the single-precision bits of the value
    ([Int32.bits_of_float] rounds to nearest); an integer word holds the
    low 32 bits.

    [of_floats], [of_ints] and [of_int32s] copy their array at once.
    [zeros], [const_float], [init], [init2] and [gather_floats] record how
    to write their words instead: {!copy_in} writes them straight into
    device memory, a launch that never copies its arguments in (a
    layout-only statistics launch) never builds them, and the first host
    read ({!get_int}, {!to_floats}, {!to_int32s}, {!copy}) or a values
    launch's {!copy_out} replaces the recipe with the words, once.  So a
    recipe's callback may run once per launch, once more for a host read,
    or never:
    - a callback must be total and a pure function of its indices (no
      state such as a [Random.State]);
    - a captured source ([gather_floats]'s [src], whatever a callback
      reads) must not change while the buffer is in use.
    Two host reads that race build equal words, so either may win.

    Every word is written in one loop inside this module and no [int32]
    or [float] crosses the module boundary per word, which would box on
    every call (DESIGN §18); the callbacks return [int]s. *)

type buffer

(** [zeros n]: [n] zero words (also [0.0] as floats). *)
val zeros : int -> buffer

(** [const_float n x]: [n] words, each holding [x]. *)
val const_float : int -> float -> buffer

val of_floats : float array -> buffer
val of_ints : int array -> buffer
val of_int32s : int32 array -> buffer

(** [init n f]: word [i] holds the low 32 bits of [f i]. *)
val init : int -> (int -> int) -> buffer

(** [init2 ~outer ~inner f]: [outer * inner] words, word [o * inner + i]
    holding the low 32 bits of [f o i] — a layout stored outer-major.
    [f] is called once per word written, in no specified order (the
    builder writes cache-sized tiles, so a layout that transposes its
    source stays cache-friendly). *)
val init2 : outer:int -> inner:int -> (int -> int -> int) -> buffer

(** [gather_floats ~outer ~inner src index]: [outer * inner] words, word
    [o * inner + i] holding [src.(index o i)] — a float layout that
    reorders [src], written like {!init2}. *)
val gather_floats :
  outer:int -> inner:int -> float array -> (int -> int -> int) -> buffer

(** Number of words. *)
val length : buffer -> int

(** Word [i], sign-extended.  Raises [Invalid_argument] out of range. *)
val get_int : buffer -> int -> int

val to_floats : buffer -> float array
val to_int32s : buffer -> int32 array

(** A buffer holding the same words, independent of the original. *)
val copy : buffer -> buffer

(** {2 Device allocation} *)

val alignment : int

type allocation = { base : int; length : int (** words *) }

(** [layout sizes] places buffers of the given word sizes back to back with
    aligned bases; returns the allocations and total bytes needed. *)
val layout : int list -> allocation list * int

(** Copy a buffer into its allocation: one blit, or its recipe run
    straight into [t] (the buffer keeps its recipe).  Raises
    [Invalid_argument] when the lengths differ. *)
val copy_in : t -> allocation -> buffer -> unit

(** Copy an allocation back into a buffer (one blit; a recipe is dropped
    unrun).  When one buffer backs several allocations, the caller copies
    them out in order and the last one wins. *)
val copy_out : t -> allocation -> buffer -> unit
