(** Parallel sum reduction in three shared-memory variants: [Interleaved]
    (interleaved addressing with a strided index, whose bank-conflict
    degree doubles each step — the cyclic-reduction pathology), the
    tuned [Sequential] tree (contiguous, conflict-free), and [Atomic]
    (no tree: every thread atomically adds into one shared accumulator,
    fully serializing each half-warp — exact only for integer-valued
    inputs).  Each block reduces 2*threads elements to a partial sum;
    {!run_simulated} recursively reduces the partials. *)

type variant = Interleaved | Sequential | Atomic

val variant_name : variant -> string

(** [kernel ~threads variant]; threads must be a power of two. *)
val kernel : threads:int -> variant -> Gpu_kernel.Ir.t

val elements_per_block : threads:int -> int

(** Double-precision reference sum (kernels accumulate in f32 with
    variant-specific association: compare with a relative tolerance). *)
val reference : float array -> float

val run_simulated :
  ?spec:Gpu_hw.Spec.t -> ?threads:int -> variant -> float array -> float

(** The workflow input for [blocks] blocks of [threads] (default 128)
    reducing ones into per-block partials, with a 2-block sample. *)
val input :
  ?threads:int -> blocks:int -> variant -> Gpu_model.Workflow.input
