(** Shared-memory bank-conflict analyzer (paper Section 4.2), generalized to
    any bank count so the prime-bank proposal of Section 5.2 can be
    evaluated.  Addresses are byte addresses; [width] is the access width
    in bytes (default 4).  An access wider than one 4-byte word spans
    adjacent banks — on GT200 a 64-bit access touches two words, and both
    are tallied in their banks.

    One counting core serves every entry point: it reads lanes in the
    {!Lanes} form (address buffer plus active-lane mask) and allocates
    nothing.  The [int option array] functions ([None] = inactive lane)
    stage their argument into that form and run the same core. *)

val word_size : int

(** {2 Counting core} *)

(** Per-bank tallies the core counts into.  Owned by the caller — one
    simulated run, or one call — so concurrent domains never share one. *)
type scratch

val scratch : unit -> scratch

(** [conflicts s ~width ~banks ~group addrs ~mask]: effective transactions
    of a warp access split into issue groups of [group] lanes — per group,
    the maximum over banks of the distinct words addressed in that bank
    (1 = conflict-free, 0 = no active lane), summed.  Raises
    [Invalid_argument] on a non-positive parameter or a negative active
    address. *)
val conflicts :
  scratch -> width:int -> banks:int -> group:int -> int array -> mask:int ->
  int

(** Atomic serialization of a warp access: per group, the maximum over
    banks of the lane-word accesses landing in that bank counted {e with
    multiplicity} — same-word accesses cannot broadcast, each must observe
    the previous one's write — summed. *)
val atomic_conflicts :
  scratch -> width:int -> banks:int -> group:int -> int array -> mask:int ->
  int

(** Transactions the same access would need were it conflict-free: per
    active group, the word count of its widest active lane. *)
val ideal : width:int -> group:int -> int array -> mask:int -> int

(** [active_groups ~group ~mask]: the issue groups of [group] lanes with
    at least one active lane.  For a one-word access whose active lanes
    all address the same aligned word it equals both {!conflicts} and
    {!ideal} at width 4, at any bank count, without reading the
    addresses: the simulator's broadcast count. *)
val active_groups : group:int -> mask:int -> int

(** Contention-free floor for an atomic access: one transaction per group
    with at least one active lane. *)
val ideal_atomic : group:int -> mask:int -> int

(** {2 [int option array] entry points}

    Each accepts at most {!Lanes.max_lanes} lanes. *)

(** {!conflicts} of one access group (the whole array). *)
val conflict_degree : ?width:int -> banks:int -> int option array -> int

(** Serialized transactions to serve one access group (= conflict degree). *)
val transactions : ?width:int -> banks:int -> int option array -> int

(** {!conflicts} of a warp access split into groups of [group] lanes
    (half-warps on real hardware). *)
val warp_transactions :
  ?width:int -> banks:int -> group:int -> int option array -> int

(** {!ideal} of a warp access. *)
val ideal_warp_transactions :
  ?width:int -> group:int -> int option array -> int

(** {!atomic_conflicts} of one access group (the whole array). *)
val atomic_transactions : ?width:int -> banks:int -> int option array -> int

(** {!atomic_conflicts} of a warp access split into groups of [group]
    lanes. *)
val warp_atomic_transactions :
  ?width:int -> banks:int -> group:int -> int option array -> int

(** {!ideal_atomic} of a warp access. *)
val ideal_warp_atomic_transactions :
  group:int -> int option array -> int
