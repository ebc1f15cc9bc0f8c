(** Shared-memory histogram — the canonical atomic-bound kernel.  Each
    block bins [items] elements per thread into a per-block shared
    histogram with atomic increments and flushes it to global memory;
    same-bin lanes serialize, so [bins] and input skew set the
    atomic-contention level the model's fourth cost class charges. *)

(** [kernel ~threads ~bins ~items]; [threads] and [bins] powers of two,
    [bins <= threads]. *)
val kernel : threads:int -> bins:int -> items:int -> Gpu_kernel.Ir.t

val elements_per_block : threads:int -> items:int -> int

(** CPU reference: counts of [x land (bins-1)]. *)
val reference : bins:int -> int array -> int array

(** Histogram an integer array on the simulator (size must divide into
    blocks); returns the host-summed global histogram. *)
val run_simulated :
  ?spec:Gpu_hw.Spec.t -> ?threads:int -> ?bins:int -> ?items:int ->
  int array -> int array

(** [input ~blocks ()] is the workflow input on synthetic data, with a
    2-block sample: [skew] (default 0.8) is the fraction of elements
    landing in bin 0 — 0.0 is uniform, 1.0 serializes every half-warp. *)
val input :
  ?threads:int -> ?bins:int -> ?items:int -> ?skew:float -> blocks:int ->
  unit -> Gpu_model.Workflow.input
