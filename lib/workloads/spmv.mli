(** Sparse matrix-vector multiply — the paper's Section 5.3 case study.
    3x3-blocked matrices with a uniform block count per block-row
    (QCD-like lattice stencils), in three storage formats: scalar ELL,
    blocked ELL with interleaved matrix (BELL+IM), and additionally with
    the interleaved (component-major) vector (BELL+IMIV) — the paper's
    transaction-simulator-guided optimization. *)

val block_dim : int
val entries_per_block : int

type matrix = {
  block_rows : int;
  block_offsets : int list;  (** stencil offsets, applied mod block_rows *)
  block_cols : int array;  (** [r * k + ki] -> block column *)
  blocks : float array;  (** [((r * k) + ki) * 9 + 3i + j] *)
}

val k_blocks : matrix -> int
val rows : matrix -> int
val nnz : matrix -> int
val qcd_offsets : int list

val generate :
  ?seed:int -> block_rows:int -> offsets:int list -> unit -> matrix

(** The paper's QCD matrix, synthetically: 49152 rows, 13 blocks per
    block-row, ~1.9M nonzeros. *)
val qcd_like : ?seed:int -> unit -> matrix

(** CPU reference (double accumulation). *)
val reference : matrix -> float array -> float array

(** {2 Storage layouts} *)

(** Component-major vector, [x'.(j * block_rows + c) = x.(3c + j)]. *)
val interleave_vector : matrix -> float array -> float array
val deinterleave_vector : matrix -> float array -> float array

(** {2 Kernels and execution} *)

type format = Ell | Bell_im | Bell_imiv

val format_name : format -> string
val ell_threads_per_block : int
val bell_threads_per_block : int
val kernel : matrix -> format -> Gpu_kernel.Ir.t

(** (grid, block) for a launch. *)
val launch : matrix -> format -> int * int

(** Kernel arguments for multiplying by [x], in parameter order: the
    matrix in the format's layout, its column indices, [x]
    (pre-interleaved for BELL+IMIV) and a zero result [y].  Each layout is
    written straight into its buffer, allocating only the buffers. *)
val buffers :
  matrix -> format -> float array -> (string * Gpu_sim.Memory.buffer) list

(** {!buffers} as [int32 array]s, for the repository benchmark's walk
    (perfbench), which runs {!Gpu_sim.Sim.run}. *)
val args : matrix -> format -> float array -> (string * int32 array) list

(** y = A x on the functional simulator (de-interleaved as needed). *)
val run_simulated :
  ?spec:Gpu_hw.Spec.t -> matrix -> format -> float array -> float array

(** Full analysis; rows differ in gather targets, so by default every
    block is simulated (exact statistics). *)
val analyze :
  ?spec:Gpu_hw.Spec.t ->
  ?measure:bool ->
  ?sample:int ->
  ?replay_sample:Gpu_timing.Engine.sample ->
  ?timeline:Gpu_obs.Timeline.t -> ?ctx:Gpu_obs.Trace_ctx.t ->
  matrix ->
  format ->
  Gpu_model.Workflow.report

(** {2 Figure 11a / Figure 12 analytics} *)

(** Vector-gather byte addresses in half-warp issue order. *)
val vector_gather_addresses : matrix -> format -> int array

type traffic = {
  matrix_bytes : float;
  index_bytes : float;
  vector_bytes : float;
}

val total_traffic : traffic -> float

(** Bytes moved per matrix entry per traffic component, counting the
    distinct [granularity]-sized segments each half-warp gather touches
    (the paper's Figure 11a metric; 4 bytes = the dedup'd ideal). *)
val bytes_per_entry : ?granularity:int -> matrix -> format -> traffic

(** Hit rate of the vector gathers in a GT200-style texture L1. *)
val vector_cache_hit_rate : matrix -> format -> float

(** Predicted seconds with vector gathers served through the texture
    cache (the Figure 12 +Cache columns). *)
val cached_prediction :
  Gpu_model.Workflow.report -> matrix -> format -> float

(** 2 * nnz / seconds / 1e9. *)
val gflops : matrix -> float -> float
