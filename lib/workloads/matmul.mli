(** Dense matrix multiply in the style of Volkov and Demmel — the paper's
    Section 5.1 case study.  Column-major C = A * B, all n x n; a
    64-thread block computes a 64 x tile strip of C with only the B tile
    in shared memory, read through fused MAD-with-shared-operand
    instructions, and the A operand software-pipelined two iterations
    ahead. *)

val threads_per_block : int

(** Blocks in the launch grid for a given problem. *)
val grid : n:int -> tile:int -> int

(** The kernel for a concrete (n, tile); tile must be 8, 16 or 32 and n a
    power of two divisible by 64 and by the tile. *)
val kernel : n:int -> tile:int -> Gpu_kernel.Ir.t

(** CPU reference (column-major, fp32 rounding). *)
val reference : n:int -> float array -> float array -> float array

(** Run on the functional simulator; returns C. *)
val run_simulated :
  ?spec:Gpu_hw.Spec.t -> n:int -> tile:int -> float array -> float array ->
  float array

(** The workflow input for the Section 5.1 experiments: the kernel, its
    launch, zero matrices and a 4-block sample, exact because every block
    does identical work. *)
val input : n:int -> tile:int -> Gpu_model.Workflow.input

(** [Gpu_model.Workflow.analyze ?spec ?measure (input ~n ~tile)], for the
    repository benchmark (perfbench), which calls it; every other caller
    analyses {!input}. *)
val analyze :
  ?spec:Gpu_hw.Spec.t -> ?measure:bool -> n:int -> tile:int -> unit ->
  Gpu_model.Workflow.report
