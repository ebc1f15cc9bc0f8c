(** Out-of-place n x n matrix transpose: [Naive] (one uncoalesced side),
    [Tiled] (coalesced both ways via a 16x16 shared tile, but 16-way bank
    conflicts on the column read), and [Tiled_padded] (17-word pitch, the
    Section 5.2 padding trick).  The model shows tiling's large win and
    that the remaining conflicts hide under the global transfers. *)

type variant = Naive | Tiled | Tiled_padded

val variant_name : variant -> string
val tile : int
val threads_per_block : int
val grid : n:int -> int
val kernel : n:int -> variant -> Gpu_kernel.Ir.t
val reference : n:int -> float array -> float array

val run_simulated :
  ?spec:Gpu_hw.Spec.t -> n:int -> variant -> float array -> float array

(** The workflow input for an n x n transpose, with a 2-block sample. *)
val input : n:int -> variant -> Gpu_model.Workflow.input
