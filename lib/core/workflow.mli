(** The end-to-end analysis workflow of the paper's Figure 1: compile →
    functional simulation (dynamic statistics) → info extraction →
    microbenchmark tables → quantitative per-component analysis, with an
    optional timing-simulator run standing in for the measured GPU.

    Every stage runs inside a {!Gpu_obs.Span} named after the Figure-1
    box it implements (compile, functional-sim, extract, calibrate,
    model, timing-replay); enable span recording to get per-stage wall
    time, metric deltas, and diagnostics in the exported trace. *)

type launch = { grid : int; block : int }

(** What to analyse: a kernel with its launch and argument buffers.  Each
    workload module builds one ([Matmul.input], ...); {!analyze} takes
    the options. *)
type input = {
  kernel : Gpu_kernel.Ir.t;
  grid : int;
  block : int;
  args : (string * Gpu_sim.Memory.buffer) list;
      (** each kernel parameter bound to a buffer, as in
          {!Gpu_sim.Sim.launch} *)
  sample : int option;
      (** functionally simulate only the first n blocks: exact for
          block-homogeneous workloads (statistics are scaled, traces
          replicated); [None] simulates the whole grid *)
}

type report = {
  kernel_name : string;
  compiled : Gpu_kernel.Compile.compiled;
  launch : launch;
  stats : Gpu_sim.Stats.t;
  scale : float;  (** grid / blocks functionally simulated *)
  analysis : Model.t;
  measured : Gpu_timing.Engine.result option;
}

(** Occupancy of a compiled kernel, including the driver's per-block
    shared-memory launch overhead. *)
val occupancy_of :
  spec:Gpu_hw.Spec.t -> block:int -> Gpu_kernel.Compile.compiled ->
  Gpu_hw.Occupancy.t

(** Replay traces of [n] sampled blocks onto the whole grid for the
    timing simulator, assigning sample [b mod n] to block [b].  The
    cyclic assignment keeps replication maximally even (each sample
    appears ⌊grid/n⌋ or ⌈grid/n⌉ times), so the replicated trace volume
    tracks the grid/n statistics scale to within one sample even when
    [n] does not divide [grid].  Raises [Invalid_argument] on an empty
    trace list. *)
val replicate_traces :
  grid:int -> Gpu_sim.Trace.block_trace list ->
  Gpu_sim.Trace.block_trace array

(** Whether all sampled traces describe identical per-block work in the
    timing-relevant sense: same per-warp event sequence up to
    global-memory transaction base addresses, which the timing engine
    never reads (only transaction counts and sizes matter).  Block ids
    are likewise ignored.  Only then may the timing replay use the
    single-cluster [homogeneous] fast path. *)
val traces_homogeneous : Gpu_sim.Trace.block_trace list -> bool

(** [analyze input] runs the full workflow on [input] and raises
    {!Gpu_diag.Diag.Diag_error} with the first failing stage's
    diagnostic (compile, occupancy, launch, simulation, model, trace
    replay); with spans on, that stage's span closes tagged with
    [diag.severity]/[diag.stage].  The model's own out-of-range warnings
    are in [report.analysis.warnings]; a sampled replay's is
    {!replay_sample_warning}.

    The functional simulation is the statistics face,
    {!Gpu_sim.Sim.launch_result}: it computes only the values its
    statistics and traces observe, adds the warp-instructions that
    skipped theirs to the [sim.counted_only] counter (and the shared
    accesses among them that reused a broadcast's staging to
    [sim.staging_reused]), and never writes [input.args], so one input
    serves any number of analyses.

    [measure] additionally replays the traces on the timing simulator;
    [replay_sample] makes that replay simulate a seeded subset of
    clusters ({!Gpu_timing.Engine.sample}) — the measurement is then an
    extrapolation carried in [report.measured.sampled]; [timeline] is
    handed to {!Gpu_timing.Engine.run} to record the replay's
    per-pipeline busy intervals and warp states; [ctx] is a
    request-scoped {!Gpu_obs.Trace_ctx} every stage also records into
    (the serve daemon threads one per request). *)
val analyze :
  ?spec:Gpu_hw.Spec.t ->
  ?measure:bool ->
  ?replay_sample:Gpu_timing.Engine.sample ->
  ?timeline:Gpu_obs.Timeline.t ->
  ?ctx:Gpu_obs.Trace_ctx.t ->
  input ->
  report

(** The degraded-confidence warning a sampled timing replay carries
    (empty when the replay was exact), which the CLI prints and the
    serve daemon returns with the response. *)
val replay_sample_warning : Gpu_timing.Engine.result -> Gpu_diag.Diag.t list

val measured_seconds : report -> float option

(** (predicted - measured) / measured, when a measurement was taken. *)
val prediction_error : report -> float option

val pp : Format.formatter -> report -> unit
