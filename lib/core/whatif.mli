(** Architectural what-if engine: re-run the full workflow against device
    variants and compare predictions — the way the paper argues its
    architectural improvements (Sections 5.1-5.3).  Variants are
    re-simulated, not re-priced: bank counts change conflict statistics,
    segment sizes change coalescing, and the microbenchmark tables are
    re-fit to the variant device. *)

type outcome = {
  spec : Gpu_hw.Spec.t;
  report : Workflow.report;
  speedup : float;  (** baseline predicted time / variant predicted time *)
}

(** Returns the baseline report and one outcome per variant (in variant
    order).  Baseline and variants are evaluated in parallel on the
    domain pool, one per task, each against a private copy of every
    buffer in [args] ({!Gpu_sim.Memory.copy}) —
    so every spec is analyzed on identical inputs regardless of
    evaluation order, and results are deterministic. *)
val run :
  ?base:Gpu_hw.Spec.t ->
  ?jobs:int ->
  variants:Gpu_hw.Spec.t list ->
  ?sample:int ->
  grid:int ->
  block:int ->
  args:(string * Gpu_sim.Memory.buffer) list ->
  Gpu_kernel.Ir.t ->
  Workflow.report * outcome list

val pp_outcome : Format.formatter -> outcome -> unit
val pp : Format.formatter -> Workflow.report * outcome list -> unit
