(** Device description for GT200-class GPUs (default: the GTX 285 the paper
    studies) plus the architectural variants its what-if analyses propose. *)

type t = {
  name : string;
  num_sms : int;
  sms_per_cluster : int;  (** SMs sharing one global-memory pipeline *)
  warp_size : int;
  core_clock_ghz : float;
  units_class_i : int;
  units_class_ii : int;
  units_class_iii : int;
  units_class_iv : int;
  alu_latency : int;  (** arithmetic pipeline depth, core cycles *)
  warp_issue_gap : int;
      (** minimum cycles between two issues of the same warp *)
  registers_per_sm : int;
  smem_per_sm : int;  (** bytes *)
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  max_warps_per_sm : int;
  smem_banks : int;
  smem_words_per_cycle : int;
  smem_latency : int;
  smem_access_cycles : float;
  mem_clock_ghz : float;
  bus_width_bits : int;
  gmem_latency : int;
  gmem_overhead_cycles : float;
  min_segment_bytes : int;
  max_segment_bytes : int;
  coalesce_threads : int;  (** transaction issue granularity (half-warp) *)
  smem_replay_cycles : float;
      (** warp-hold cycles per serialized shared transaction (LSU replay) *)
  smem_launch_overhead : int;
      (** bytes of shared memory the driver reserves per block *)
  early_release : bool;
}

val gtx285 : t

(** Built-in non-baseline profiles for the device fleet.  [volta_like] is
    a V100-class part with parameters drawn from Jia et al.'s
    microbenchmark dissection (arXiv:1804.06826); [ampere_like] an
    A100-class part after Abdelkhalik et al. (arXiv:2208.11174).  Both
    keep the GT200 model's structure (SM clusters sharing a memory pipe,
    fractional overheads) with the successors' published counts, clocks,
    32-bank shared memory and full-warp 128-byte coalescing. *)
val volta_like : t

val ampere_like : t
val num_clusters : t -> int

(** Bytes one conflict-free shared-memory (or atomic) transaction moves:
    one 4-byte word per bank, [smem_banks x 4].  64 B on the GT200
    half-warp organisation, 128 B on 32-bank parts. *)
val smem_transaction_bytes : t -> int

(** Bytes of the natural fully-coalesced global transaction: one 4-byte
    word per lane of an issue group, [coalesce_threads x 4]. *)
val gmem_transaction_bytes : t -> int

(** Canonical one-line rendering of every field, in declaration order,
    with floats printed exactly ([%h]).  The calibration cache
    fingerprints device specs with this string; a mismatch invalidates
    cached tables, so any new measurement-relevant field belongs here. *)
val canonical : t -> string

(** Functional units available for a cost class (Table 1). *)
val units_for : t -> Gpu_isa.Instr.cost_class -> int

(** Peak warp-instruction throughput of a class, Giga-instructions/s:
    units x frequency x num_sms / warp_size (Section 4.1). *)
val peak_instruction_throughput : t -> Gpu_isa.Instr.cost_class -> float

(** Peak single-precision rate (counting a MAD as 2 flops). *)
val peak_gflops : t -> float

(** Peak shared-memory bandwidth, GB/s, read+write traffic (Section 4.2). *)
val peak_smem_bandwidth : t -> float

(** Peak global-memory bandwidth, GB/s (Section 4.3). *)
val peak_gmem_bandwidth : t -> float

val gmem_bytes_per_cycle_per_cluster : t -> float

val with_name : string -> t -> t
val with_max_blocks : int -> t -> t
val with_banks : int -> t -> t
val with_registers : int -> t -> t
val with_smem : int -> t -> t
val with_min_segment : int -> t -> t
val with_early_release : t -> t

(** The device fleet: [("baseline", gtx285)] first, then the paper's
    Section-6 what-if variants of it, then {!volta_like} and
    {!ampere_like}.  The only definition of the fleet: the CLI's
    [--variant] and [--device] values, [gpuperf sweep-devices] rows and
    the daemon's [device] field all resolve against it. *)
val fleet : (string * t) list

(** Look a device up by its fleet name. *)
val device_of_name : string -> t option
val pp : Format.formatter -> t -> unit
