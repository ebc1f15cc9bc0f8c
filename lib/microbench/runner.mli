(** Runs a microbenchmark program: functional simulation for its trace,
    then timing simulation.  A program whose warps all execute the same
    trace ({!Codegen} states which) simulates one warp and replays it as
    the whole block; a multi-block program simulates one block and
    replicates it across the (homogeneous) grid. *)

(** Wrap a raw ISA program as a launchable kernel. *)
val wrap :
  param_regs:(string * int) list ->
  smem_bytes:int ->
  Gpu_isa.Program.t ->
  Gpu_kernel.Compile.compiled

(** Launch-validation-relaxed spec (microbenchmarks control warps per SM
    directly with blocks of up to 32 warps). *)
val relaxed : Gpu_hw.Spec.t -> Gpu_hw.Spec.t

(** The trace of the single warp of a one-block, one-warp launch of a
    kernel without parameters.  When every warp of the program's blocks
    executes the same trace, this is each warp's trace at any block
    size. *)
val warp_trace :
  spec:Gpu_hw.Spec.t -> Gpu_kernel.Compile.compiled -> Gpu_sim.Trace.warp_trace

(** Measured cycles of one block of [warps] warps that all execute the
    cooked trace, replayed alone on the timing simulator under the device
    it was cooked for ({!Gpu_timing.Engine.replay_shared}).  The cycles
    equal those of a full [warps]-warp block whose warps carry equal
    traces; cooking the trace once serves every warp count. *)
val replay_warp : warps:int -> Gpu_timing.Engine.cooked_warp -> int

(** Measured cycles of a [grid]-block launch on the timing simulator:
    block 0 is simulated in full and stands for every block. *)
val measure_cycles :
  spec:Gpu_hw.Spec.t ->
  grid:int ->
  block:int ->
  args:(string * Gpu_sim.Memory.buffer) list ->
  ?max_resident:int ->
  Gpu_kernel.Compile.compiled ->
  int
