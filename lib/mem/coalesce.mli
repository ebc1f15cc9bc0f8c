(** Memory-transaction simulator: the CUDA compute-capability 1.2/1.3
    coalescing protocol of paper Section 4.3, with configurable issue-group
    size and segment granularity for the Figure 10/11 what-if studies. *)

type txn = { base : int; size : int }

type config = {
  group : int;  (** threads per transaction issue (half-warp = 16) *)
  min_segment : int;  (** smallest transaction, bytes, power of two *)
  max_segment : int;  (** initial segment size, bytes, power of two *)
}

val config_of_spec : Gpu_hw.Spec.t -> config

(** {2 Counting core} *)

(** Transaction buffers: after {!serve} returns [n], transaction [i < n]
    is [(bases.(i), sizes.(i))].  Owned by the caller — one simulated run,
    or one call — so concurrent domains never share one. *)
type scratch = private { bases : int array; sizes : int array }

val scratch : unit -> scratch

(** [serve c s ~width addrs ~mask] serves the active lanes of [mask] (in the
    {!Lanes} form) in issue groups of [c.group] threads, writing the
    transactions into [s] in service order, and returns how many.  [width]
    must be a power of two and active addresses width-aligned.  Allocates
    nothing. *)
val serve : config -> scratch -> width:int -> int array -> mask:int -> int

(** {2 [int option array] entry points}

    [addresses.(i) = Some a] is the byte address requested by thread [i]
    ([None] = inactive); both stage their argument (at most
    {!Lanes.max_lanes} lanes) and run {!serve}. *)

(** Transactions serving one issue group (at most [c.group] threads). *)
val group_transactions : config -> width:int -> int option array -> txn list

(** Serve a full warp by splitting it into issue groups. *)
val warp_transactions : config -> width:int -> int option array -> txn list

(** Total bytes moved by a transaction list. *)
val bytes : txn list -> int

val count : txn list -> int

(** Requested bytes / transferred bytes; 1.0 = perfectly coalesced. *)
val efficiency : width:int -> int option array -> txn list -> float

val pp_txn : Format.formatter -> txn -> unit
