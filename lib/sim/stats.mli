(** Dynamic execution statistics — the output of the paper's "info
    extractor" (Figure 1).  Stages are the program intervals delimited by
    block-wide barriers; stage [s] aggregates every block's s-th interval
    (Section 3). *)

val class_index : Gpu_isa.Instr.cost_class -> int
val class_of_index : int -> Gpu_isa.Instr.cost_class
val num_classes : int

type stage = {
  mutable issued : int array;  (** warp-instructions per cost class *)
  mutable mads : int;  (** single-precision MAD warp-instructions *)
  mutable smem_accesses : int;  (** warp-level shared-memory instructions *)
  mutable smem_txns : int;  (** conflict-adjusted half-warp transactions *)
  mutable smem_ideal_txns : int;  (** same pattern, conflict-free *)
  mutable atomic_accesses : int;  (** warp-level shared-atomic instructions *)
  mutable atomic_txns : int;  (** contention-serialized half-warp txns *)
  mutable atomic_ideal_txns : int;  (** same accesses, contention-free *)
  mutable gmem_accesses : int;  (** warp-level global-memory instructions *)
  mutable gmem_txns : int;  (** coalesced transactions *)
  mutable gmem_requested_bytes : int;
  mutable gmem_transferred_bytes : int;
  mutable barriers : int;
  mutable active_warp_slots : int;
      (** warps doing enabled work at least once, summed over blocks *)
  mutable site_issued : int array;
      (** warp-instructions issued per pc (dense, grow-on-demand) *)
  mutable site_smem_txns : int array;
      (** conflict-adjusted shared-memory transactions per pc *)
  mutable site_atomic_txns : int array;
      (** contention-serialized atomic transactions per pc *)
  mutable site_gmem_bytes : int array;
      (** global-memory bytes transferred per pc *)
}

val empty_stage : unit -> stage

type t

val create : unit -> t

(** The stages recorded so far, in barrier order. *)
val stages : t -> stage array

val num_stages : t -> int

(** [stage t i] returns stage [i], growing the stage list if needed. *)
val stage : t -> int -> stage

(** {2 Collection (used by the simulator)} *)

(** The [~pc] argument additionally charges the count to that program
    counter for hotspot attribution; {!no_pc} (synthetic stats, tests)
    keeps only the per-class aggregates.  Counting allocates nothing once
    the per-pc arrays have grown to the program's length. *)

val no_pc : int

val count_issue :
  t -> stage:int -> pc:int -> Gpu_isa.Instr.cost_class -> unit

val count_mad : t -> stage:int -> unit

val count_smem : t -> stage:int -> pc:int -> txns:int -> ideal:int -> unit

val count_atomic :
  t -> stage:int -> pc:int -> txns:int -> ideal:int -> unit

(** One warp-level global access: [txns] coalesced transactions moving
    [bytes] in total, for [requested] bytes the active lanes asked for. *)
val count_gmem :
  t -> stage:int -> pc:int -> txns:int -> bytes:int -> requested:int -> unit

val count_barrier : t -> stage:int -> unit
val count_active_warp : t -> stage:int -> unit

(** {2 Aggregation} *)

val issued_of : stage -> Gpu_isa.Instr.cost_class -> int
val total_issued : stage -> int

(** One program counter's share of a stage's work (hotspot attribution). *)
type site = {
  pc : int;
  issued : int;  (** warp-instructions issued at this pc *)
  smem_txns : int;  (** conflict-adjusted shared transactions *)
  atomic_txns : int;  (** contention-serialized atomic transactions *)
  gmem_transferred_bytes : int;  (** global bytes moved *)
}

(** Per-pc attribution rows of a stage, ascending pc, all-zero pcs
    omitted.  Empty when the stage was collected with {!no_pc} (synthetic
    stats). *)
val sites : stage -> site list

val merge_stage : into:stage -> stage -> unit

(** All stages folded into one (the multi-block overlapped view). *)
val total : t -> stage

(** Fraction of issued warp-instructions that are MADs (Section 5). *)
val computational_density : stage -> float

(** Requested / transferred global bytes; 1.0 = perfectly coalesced. *)
val coalescing_efficiency : stage -> float

(** Effective / ideal shared transactions; 1.0 = conflict-free. *)
val bank_conflict_penalty : stage -> float

(** Serialized / contention-free atomic transactions; 1.0 = every atomic
    hit its own bank and word. *)
val atomic_contention_penalty : stage -> float

val pp_stage : Format.formatter -> stage -> unit
val pp : Format.formatter -> t -> unit
