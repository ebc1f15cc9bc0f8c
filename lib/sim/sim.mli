(** High-level functional-simulation driver: allocates device buffers,
    loads kernel arguments per the calling convention, runs blocks, and
    collects dynamic statistics and (optionally) timing traces.

    Blocks execute independently, so a subset ([block_ids]) can be
    simulated when the workload is block-homogeneous and only statistics
    are needed; scale counts by {!scale_factor}. *)

exception Launch_error of string

type result = {
  stats : Stats.t;
  traces : Trace.block_trace list;  (** one per simulated block, in order *)
  blocks_run : int;
  grid : int;
  block : int;
  counted_only : int;
      (** warp-instructions that ran without computing their lane values
          (0 from {!launch}; see {!launch_result}) *)
  staging_reused : int;
      (** count-only shared accesses that reused the previous broadcast's
          staging ({!Machine.staging_reused}; 0 from {!launch}) *)
}

(** [grid /. blocks_run]: multiply sampled counts by this. *)
val scale_factor : result -> float

(** [launch ~grid ~block ~args k] simulates the launch, computing every
    lane value: the values face, for callers that read results.  [args]
    binds each kernel parameter name, once, to a caller-owned buffer: it
    is copied into its own device region before the run and copied back
    after it.  Regions are copied back in parameter order, so a buffer
    bound to several parameters ends up holding the last one's region.
    Raises {!Launch_error} on bad launches (including a missing, unknown
    or repeated argument name) and {!Machine.Stuck} / {!Memory.Fault} on
    kernel misbehaviour.

    Fault injection (both also accepted by {!launch_result}):
    [inject_stuck_at n] traps deterministically at a warp's [n]-th issued
    instruction; [poison] marks global-memory byte ranges
    [(addr, width)] whose transactions fault on access. *)
val launch :
  ?collect_trace:bool ->
  ?block_ids:int list ->
  ?spec:Gpu_hw.Spec.t ->
  ?max_warp_instructions:int ->
  ?inject_stuck_at:int ->
  ?poison:(int * int) list ->
  grid:int ->
  block:int ->
  args:(string * Memory.buffer) list ->
  Gpu_kernel.Compile.compiled ->
  result

(** What {!launch_result} returns instead of raising: the diagnostic, plus
    the statistics accumulated up to the fault point (internally
    consistent — a trap never half-counts an instruction) and the number
    of blocks that completed before the fault.  Nothing is copied back
    into the buffers. *)
type failure = {
  diag : Gpu_diag.Diag.t;
  partial_stats : Stats.t;
  blocks_completed : int;
}

(** The statistics face of {!launch}, and total.  It returns the same
    statistics, traces and faults as {!launch}, bit for bit, but computes
    only the lane values that reach an address, a guard or a branch
    ({!Relevance}); [counted_only] says how many warp-instructions skipped
    theirs.  It never writes [args]: each buffer is only copied in, and
    only when a needed pc loads a global word; otherwise device memory is
    {!Memory.layout_only}, its accesses checked and counted as before.
    Launch-validation failures surface as [Launch] diagnostics, mid-run
    traps as [Exec] diagnostics located at the faulting block.  No
    exception escapes. *)
val launch_result :
  ?collect_trace:bool ->
  ?block_ids:int list ->
  ?spec:Gpu_hw.Spec.t ->
  ?max_warp_instructions:int ->
  ?inject_stuck_at:int ->
  ?poison:(int * int) list ->
  grid:int ->
  block:int ->
  args:(string * Memory.buffer) list ->
  Gpu_kernel.Compile.compiled ->
  (result, failure) Stdlib.result

(** {!launch} on [int32 array] arguments, which exists only for the
    repository benchmark (perfbench), whose walks build their inputs this
    way.  Each array is converted to a buffer, and after the run each word
    the kernel changed is stored back into it, in parameter order; an
    unchanged slot keeps its box. *)
val run :
  ?collect_trace:bool ->
  ?block_ids:int list ->
  ?spec:Gpu_hw.Spec.t ->
  ?max_warp_instructions:int ->
  ?inject_stuck_at:int ->
  ?poison:(int * int) list ->
  grid:int ->
  block:int ->
  args:(string * int32 array) list ->
  Gpu_kernel.Compile.compiled ->
  result

(** {2 Buffer helpers} *)

val float_arg : string -> float array -> string * Memory.buffer
val int_arg : string -> int array -> string * Memory.buffer
val read_floats : string * Memory.buffer -> float array
