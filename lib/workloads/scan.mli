(** Inclusive prefix sum: per-block Hillis-Steele scan in a ping-pong
    shared double buffer, a host-side scan of block sums, and an
    offset-adding pass — exact over arbitrarily many blocks. *)

val scan_kernel : threads:int -> Gpu_kernel.Ir.t
val offset_kernel : threads:int -> Gpu_kernel.Ir.t

(** Double-precision reference (kernels accumulate in f32). *)
val reference : float array -> float array

(** Full two-kernel pipeline on the functional simulator. *)
val run_simulated :
  ?spec:Gpu_hw.Spec.t -> ?threads:int -> float array -> float array

(** The workflow input for the per-block scan kernel over [blocks] blocks
    of [threads] (default 128), with a 2-block sample. *)
val input : ?threads:int -> blocks:int -> unit -> Gpu_model.Workflow.input
