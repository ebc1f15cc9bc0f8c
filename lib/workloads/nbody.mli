(** All-pairs N-body force accumulation (1-D), staged through shared-memory
    tiles.  Every interaction costs an rsqrt (class III), making this the
    "expensive instructions" showcase of the model's cause diagnosis. *)

val softening : float
val kernel : n:int -> threads:int -> Gpu_kernel.Ir.t
val reference : n:int -> float array -> float array

val run_simulated :
  ?spec:Gpu_hw.Spec.t -> ?threads:int -> n:int -> float array -> float array

(** The workflow input for [n] bodies in blocks of [threads] (default
    128), with a 2-block sample. *)
val input : ?threads:int -> n:int -> unit -> Gpu_model.Workflow.input
