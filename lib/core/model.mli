(** The microbenchmark-based throughput model — the paper's primary
    contribution (Sections 3-4).

    Each barrier-delimited stage is charged per component: issued
    warp-instructions at the microbenchmarked class throughput for the
    stage's warp-level parallelism; conflict-adjusted shared transactions
    (64 bytes each) at the microbenchmarked bandwidth; coalesced global
    bytes at the bandwidth of a synthetic benchmark matching the launch
    configuration.  A stage's time is its slowest component.  One resident
    block serializes stages; several overlap them and the program gets a
    single bottleneck. *)

type cause =
  | Low_computational_density of float
  | Expensive_instructions of float  (** class III/IV fraction *)
  | Insufficient_warps of int
  | Bank_conflicts of float  (** transaction inflation factor *)
  | Atomic_contention of float
      (** serialized / contention-free atomic transactions *)
  | Bookkeeping_smem_traffic
  | Uncoalesced_accesses of float  (** coalescing efficiency *)
  | Large_transaction_granularity
  | Insufficient_memory_parallelism of float  (** fraction of peak *)

val pp_cause : Format.formatter -> cause -> unit

type stage_analysis = {
  index : int;
  times : Component.times;
  bottleneck : Component.t;
  active_warps : int;  (** per SM, used for the table lookups *)
  smem_bandwidth : float;  (** GB/s at that parallelism *)
  instr_throughput_ii : float;  (** class II Ginstr/s at that parallelism *)
  gmem_bandwidth : float;  (** GB/s of the matched synthetic benchmark *)
  class_throughput : float array;
      (** Ginstr/s per cost class at this stage's parallelism, indexed by
          {!Gpu_sim.Stats.class_index} — the divisor the model charged
          each class with, exposed so per-pc attribution can tile a
          stage's instruction time exactly. *)
  causes : cause list;
}

(** Whether the inputs stayed inside the domain the microbenchmark tables
    were calibrated on.  [Degraded] means the prediction is still computed
    by the same arithmetic but at least one {!t.warnings} entry flags an
    extrapolation. *)
type confidence = Calibrated | Degraded

type t = {
  spec : Gpu_hw.Spec.t;
  grid : int;
  block : int;
  occupancy : Gpu_hw.Occupancy.t;
  resident_blocks : int;  (** actually resident, given the grid *)
  serialized : bool;
  stages : stage_analysis list;
  totals : Component.times;
  bottleneck : Component.t;
  predicted_seconds : float;
  no_overlap_seconds : float;
      (** upper bound assuming the components never overlap — together with
          [predicted_seconds] (perfect overlap, the paper's assumption)
          this brackets the truth (the paper's future-work item (4)) *)
  computational_density : float;
  coalescing_efficiency : float;
  bank_conflict_penalty : float;
  atomic_contention_penalty : float;
      (** serialized / contention-free atomic transactions over the whole
          program; 1.0 without atomics *)
  predicted_gflops : float;
  warnings : Gpu_diag.Diag.t list;
      (** out-of-calibrated-range conditions; [Warning] severity degrades
          {!t.confidence}, [Info] entries are purely informational *)
  confidence : confidence;
}

type inputs = {
  in_spec : Gpu_hw.Spec.t;
  tables : Gpu_microbench.Tables.t;
  stats : Gpu_sim.Stats.t;
  scale : float;  (** grid blocks / blocks simulated *)
  in_grid : int;
  in_block : int;
  in_occupancy : Gpu_hw.Occupancy.t;
  blocks_run : int;
}

(** Effective device-throughput fraction for a possibly unbalanced grid. *)
val load_balance : spec:Gpu_hw.Spec.t -> grid:int -> float

(** Raises [Invalid_argument] on degenerate launch geometry (non-positive
    grid or block), a non-finite or negative [scale], or statistics that
    produce a non-finite stage component time — any of which would
    otherwise flow NaN into the bottleneck comparison and silently
    classify every stage as instruction-pipeline bound. *)
val analyze : inputs -> t

(** Like {!analyze} but total: degenerate geometry or non-finite inputs
    become a [Model] diagnostic.  No exception escapes. *)
val analyze_result : inputs -> (t, Gpu_diag.Diag.t) result
val pp_times : Format.formatter -> Component.times -> unit
val pp_stage : Format.formatter -> stage_analysis -> unit
val pp : Format.formatter -> t -> unit
