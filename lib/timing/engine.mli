(** Cycle-approximate timing simulator of a GT200-class GPU — the stand-in
    for the GTX 285 the paper measures microbenchmarks on.

    Model: per-warp in-order issue with a register scoreboard; one
    arithmetic issue pipeline per SM (fractional per-class occupancy,
    fixed latency); a shared-memory pipeline with per-transaction
    occupancy, latency, and an LSU replay hold per serialized transaction;
    one global-memory pipeline per 3-SM cluster with per-transaction
    service and a fixed round trip; barriers; per-SM block scheduling with
    an occupancy limit (or per-warp slots under the early-release
    what-if).  Blocks distribute cluster-major (block b on cluster
    b mod 10), which yields Figure 3's period-10 sawtooth. *)

(** Engine time unit: ticks of a tenth of a core cycle (fractional issue
    occupancies stay exact).  Busy counters round ticks up to cycles;
    timeline slices and {!stage_busy} are raw ticks. *)
val ticks_per_cycle : int

(** Busy ticks one barrier-delimited stage charged each pipeline, summed
    over the simulated clusters. *)
type stage_busy = {
  alu_ticks : int;
  smem_ticks : int;
  atomic_ticks : int;
  gmem_ticks : int;
}

(** Extrapolation record of a sampled replay.  [cycles_low] is the
    sampled maximum — a {e guaranteed} lower bound on the full-replay
    cycles, since the sampled clusters are a subset of all clusters and
    the grid time is the maximum over clusters.  [cycles_high] is a
    heuristic upper estimate (sampled max + sampled spread + two sample
    standard deviations widened by the 1/k sampling error; twice the
    point estimate when only one cluster was sampled): wide enough to
    bracket the full replay on realistic grids but not a guarantee,
    which is why sampled results surface as degraded confidence. *)
type sampled_estimate = {
  clusters_sampled : int;
  clusters_total : int;
      (** non-empty clusters a full replay would simulate *)
  blocks_sampled : int;
  cycles_low : int;
  cycles_high : int;
}

type result = {
  cycles : int;
  seconds : float;
  alu_busy_cycles : int;  (** summed over simulated SMs *)
  smem_busy_cycles : int;
  atomic_busy_cycles : int;
      (** atomic share of the shared pipe, summed over simulated SMs *)
  gmem_busy_cycles : int;  (** summed over simulated clusters *)
  sms_simulated : int;
  clusters_simulated : int;
  warps_launched : int;
      (** conservation accounting over the simulated clusters: the
          checking harness ([lib/check]) asserts launched = retired and
          nothing left pending, so a deadlocked barrier or leaked block
          slot is observable instead of a silently-short simulation *)
  warps_retired : int;
  blocks_retired : int;
  blocks_unlaunched : int;  (** left in SM pending queues at exhaustion *)
  stages_busy : stage_busy array;
      (** per-barrier-stage pipeline attribution; empty unless [run] was
          given a timeline *)
  sampled : sampled_estimate option;
      (** present iff the replay ran on a sampled cluster subset; the
          headline [cycles] then equals [sampled.cycles_low] *)
}

(** The seeded cluster subset request: same seed, same subset, on every
    platform.  Applies only to the heterogeneous path ([homogeneous]
    already simulates a single representative cluster) and only when it
    actually shrinks the cluster set; otherwise {!result.sampled} is
    [None] and the replay is exact. *)
type sample = {
  fraction : float;
      (** of the non-empty clusters to simulate (rounded up, clamped to
          [1, all]) *)
  seed : int;
}

(** [run ~spec ~max_resident_blocks blocks] replays the whole grid's
    traces ([blocks.(b)] is block b).  With [homogeneous:true] only the
    most-loaded cluster is simulated — exact when all blocks carry the
    same trace, since clusters are independent and the slowest bounds the
    total.

    [timeline] turns on interval recording: every pipeline busy interval
    (categories ["alu"], ["smem"], ["atomic"], ["gmem"]; per category the
    slice durations in ticks tile exactly into the corresponding busy
    counter — atomics occupy the shared pipe's track but carry their own
    category) and every warp hold/park interval (category ["warp"]:
    [issue], [smem], [atomic], [gmem], [barrier], plus a zero-length
    [retire] marker) is
    added, and {!result.stages_busy} is populated.  Cluster [c] records
    under pid [c+1] (pid 0 is reserved for workflow spans); SM [s] uses
    tids [2s] (alu) and [2s+1] (smem), the cluster's global pipe tid 999,
    and block [b] warp [w] tid [10000 + stride b + w], where the stride
    is the largest warp count of any launched block, floored at 64 —
    so tids match the historical layout whenever every block fits 64
    warps, and stay collision-free past it.  Without a timeline the
    recording paths cost one [None] match per event.

    Throughput: every distinct warp trace (by physical identity — the
    workflow's cyclic replication shares warp arrays across blocks) is
    cooked once per call into packed cost arrays before replay, and only
    the blocks that will be simulated (after the homogeneous shortcut or
    [sample]'s subset, and only the first of identical clusters) are
    cooked at all; nothing is cached across calls ([engine.warps_cooked]
    counts the cooks).  A caller that replays one trace many times cooks
    it once with {!cook_warp} instead.  The replay allocates
    nothing per event.  Consecutive events of one warp that would
    re-enter the event queue strictly before every queued event coalesce
    into one heap transaction.  On the heterogeneous path without a
    timeline, clusters whose SMs queue the same warp arrays block for
    block (physically shared, as a replicated grid's are) are simulated
    once, and every identical cluster reuses that output; the distinct
    clusters fan out over the {!Gpu_parallel.Pool} domain pool with a
    deterministic cluster-order reduction.  Without a timeline, a
    cluster whose warps settle into a steady state (each round repeating
    the one before, shifted in time, with no tied pop, launch or
    retirement) simulates one period, checks that it repeats, and
    applies the remaining whole periods at once; a tied pop after such a
    skip replays the cluster without it.  A timeline simulates every
    event of every cluster, each cluster under its own pid.  All of these preserve
    the exact schedule: results are bit-identical to the serial,
    uncoalesced engine that simulates every event of every cluster.
    [engine.clusters_reused] counts the reused clusters;
    [engine.events_replayed] and [engine.replay_ticks] count only what
    was simulated, [engine.clusters_parallel] only the distinct clusters
    fanned out, [engine.events_skipped] the events the kept skips
    accounted for, [engine.fast_forwards] those skips and
    [engine.ff_rollbacks] the clusters replayed again; without a
    rollback, replayed plus skipped events are the simulated clusters'
    trace events.  [sample] instead trades exactness for speed —
    it replays a seeded subset of clusters and reports the extrapolation
    in {!result.sampled} (a timeline still records, but only the sampled
    clusters' slices, so the lib/check tiling audit only applies to full
    replays). *)
val run :
  ?homogeneous:bool ->
  ?timeline:Gpu_obs.Timeline.t ->
  ?sample:sample ->
  spec:Gpu_hw.Spec.t ->
  max_resident_blocks:int ->
  Gpu_sim.Trace.block_trace array ->
  result

(** One warp trace cooked for replay under one device: its per-event
    costs under that device's parameters, which it carries, so it replays
    only under the device it was cooked for.  Immutable; share it freely
    across replays and domains. *)
type cooked_warp

(** [cook_warp ~spec trace] cooks [trace] once under [spec]'s parameters
    (about 60 ns an event) and adds 1 to [engine.warps_cooked]. *)
val cook_warp : spec:Gpu_hw.Spec.t -> Gpu_sim.Trace.warp_trace -> cooked_warp

(** [replay_shared ~warps c] replays one block of [warps] warps that all
    execute [c]'s trace, alone on its device, without cooking it again.
    It returns exactly what [run ~homogeneous:true ~spec
    ~max_resident_blocks:1] returns for that block under the spec [c] was
    cooked for, through the same cluster simulation (fast-forward
    included), and adds the same counters, [engine.warps_cooked] aside.
    Raises [Invalid_argument] unless [warps] is positive. *)
val replay_shared : warps:int -> cooked_warp -> result

(** The per-barrier-stage bottleneck attribution table recorded in
    {!result.stages_busy} (busy cycles per pipeline and the busiest one),
    mirroring the paper's per-stage breakdown. *)
val pp_stage_attribution : Format.formatter -> result -> unit

(** Analytic pipeline-busy totals for a trace set, in the same rounded
    cycles as {!result}'s busy counters. *)
type busy = {
  alu_cycles : int;
  smem_cycles : int;
  atomic_cycles : int;
  gmem_cycles : int;
}

(** What the event-driven simulation must charge each pipeline, computed
    by summation alone (no scheduling).  Equals {!result}'s busy counters
    exactly whenever every block is simulated ([homogeneous:false]); the
    checking harness asserts that it does. *)
val expected_busy :
  spec:Gpu_hw.Spec.t -> Gpu_sim.Trace.block_trace array -> busy
