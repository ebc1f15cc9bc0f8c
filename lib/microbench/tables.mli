(** Fitted throughput tables: the microbenchmark observations the model
    consumes (paper Section 4) — instruction throughput per class and
    warps/SM (Figure 2 left), shared bandwidth per warps/SM (Figure 2
    right), and the memoized global-memory synthetic benchmark
    (Figure 3).  Built against a device spec, so the model recalibrates
    automatically for architectural variants.

    Calibration fans out over the [Gpu_parallel] domain pool and persists
    to a versioned on-disk cache (see {!Calib_cache}); parallel and
    serial calibration produce bit-identical tables, and a warm cache
    skips measurement entirely.  All query and construction entry points
    are domain-safe. *)

val max_warps : int
val arithmetic_classes : Gpu_isa.Instr.cost_class list

type t

(** Run the instruction and shared-memory microbenchmark sweeps on the
    domain pool ([?jobs] overrides the pool's default).  Pure
    measurement: never touches the disk cache. *)
val build : ?jobs:int -> Gpu_hw.Spec.t -> t

(** Like {!build}, but shared per spec name within the process
    (single-flight: concurrent calls for one spec calibrate once) and
    backed by the on-disk cache — a cache hit skips calibration, a
    corrupt or stale file degrades to recalibration with a [Warning]
    sent to {!set_on_diag}'s sink. *)
val for_spec : ?jobs:int -> Gpu_hw.Spec.t -> t

(** Device-wide Giga warp-instructions per second for a class at a warp
    count (clamped to [1, 32]); memory and control classes are priced at
    class II rates. *)
val instr_throughput : t -> Gpu_isa.Instr.cost_class -> warps:int -> float

(** Device-wide GB/s counting read plus write traffic. *)
val smem_bandwidth : t -> warps:int -> float

(** Bandwidth the synthetic streaming benchmark of this configuration
    sustains, in GB/s of transferred bytes; measured on demand and
    memoized (domain-safe, single-flight: concurrent misses of one
    configuration measure once).  Large configurations are folded onto
    bounded cluster-balanced ones (bandwidth saturates well before the
    caps). *)
val gmem_bandwidth : t -> blocks:int -> threads:int -> txns_per_thread:int
  -> float

(** Measure a batch of [(blocks, threads, txns_per_thread)] points in
    parallel (deduplicated and normalized first), e.g. ahead of a
    Figure-3-style sweep; each miss is persisted to the disk cache. *)
val gmem_prefetch : ?jobs:int -> t -> (int * int * int) list -> unit

(** {2 Cache control & observability} *)

(** Sink for the library's cache/calibration diagnostics ([Info] on
    calibration start and cache hits, [Warning] on rejected or
    unwritable cache files).  Default: drop them. *)
val set_on_diag : (Gpu_diag.Diag.t -> unit) -> unit

(** Disable (or re-enable) the on-disk cache for this process — the
    [--no-cache] escape hatch.  The in-process per-spec sharing of
    {!for_spec} is unaffected. *)
val set_disk_cache : bool -> unit

(** Drop the in-process per-spec tables (tests use this to exercise the
    disk-cache path).  Raises if a calibration is in flight. *)
val clear_process_cache : unit -> unit

type counters = {
  instr_smem_measurements : int;
      (** instruction + shared-memory microbenchmarks run so far *)
  gmem_measurements : int;  (** global-memory points measured so far *)
  cache_loads : int;  (** tables loaded from the on-disk cache *)
  calibrations : int;  (** full calibrations actually run *)
}

(** Monotonic process-wide counters (the cache tests read these to tell
    cold from warm runs; [--metrics] exports the same cells as
    [calib.*]). *)
val counters : unit -> counters

(** The constants string folded into the cache fingerprint (schema
    version, grid dimensions, chain lengths).  Bump
    [calibration_version] in the implementation whenever measurement
    semantics change, so stale cache files stop matching. *)
val calibration_constants : string

(** {2 Raw measurements (exposed for tests and ablations)} *)

val measure_instr_throughput :
  spec:Gpu_hw.Spec.t -> cls:Gpu_isa.Instr.cost_class -> warps:int -> float

val measure_smem_bandwidth : spec:Gpu_hw.Spec.t -> warps:int -> float

val measure_gmem_bandwidth :
  spec:Gpu_hw.Spec.t -> blocks:int -> threads:int -> txns_per_thread:int ->
  float
