(** Binary min-heap of int payloads keyed by integer time: the event queue
    of the timing engine.  It stores only immediates (the engine queues
    warp-slot indices), so no operation allocates or pays the write
    barrier, apart from doubling the arrays when full. *)

type t

val create : unit -> t
val is_empty : t -> bool

(** Number of stored entries. *)
val size : t -> int

val add : t -> key:int -> int -> unit

(** The minimum key currently stored.  [add t ~key v] followed by
    [pop_min t] returns [v] whenever [key < min_key t] held before the
    [add] — the engine's event-coalescing shortcut relies on exactly that.
    Among equal keys the pop order is that of the textbook swap-based
    binary heap (strict comparisons in both sifts).
    @raise Invalid_argument on an empty heap. *)
val min_key : t -> int

(** Remove the minimum-key entry and return its payload; read its key
    with {!min_key} first.
    @raise Invalid_argument on an empty heap. *)
val pop_min : t -> int

(** [iter t f] calls [f payload key] on every entry, in layout order. *)
val iter : t -> (int -> int -> unit) -> unit

(** [shift t d] adds [d] to every key in place; the layout stays a valid
    heap and the pop order among the entries is unchanged. *)
val shift : t -> int -> unit
