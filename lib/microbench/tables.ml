(* Fitted throughput tables: the microbenchmark observations the
   performance model consumes (paper Section 4).

   - instruction throughput per cost class, for 1..32 warps per SM
     (Figure 2, left), in device-wide Giga warp-instructions / second;
   - shared-memory bandwidth for 1..32 warps per SM (Figure 2, right),
     in device-wide GB/s counting read plus write traffic;
   - global-memory bandwidth for a (blocks, threads, transactions/thread)
     configuration (Figure 3), measured on demand and memoized, in GB/s of
     transferred bytes.

   Tables are built against a device spec, so the model recalibrates
   automatically when evaluating architectural variants.

   Calibration is expensive (160 instruction and shared-memory
   microbenchmarks, each a marginal pair of timing replays of a one-block
   launch, plus the global-memory points), so this module attacks the
   cost on four fronts, all preserving bit-identical
   results (the measurements are pure integer-cycle functions of the
   spec):
   - every warp of an instruction or shared-memory microbenchmark block
     executes the same trace ([Codegen]), so a point simulates one warp
     and replays it shared by the block's warps, and since none of those
     traces depends on the warp count, each chain and each copy length is
     simulated and cooked once per table: 10 warp simulations and 10
     cooks per table instead of 5280 and 320, and the timing replay
     fast-forwards each point's steady state ([Gpu_timing.Engine]);
   - the grid of independent measurements fans out over the
     [Gpu_parallel] domain pool, with results placed by index;
   - tables persist to a versioned on-disk cache ([Calib_cache]), so a
     second process skips recalibration entirely;
   - the per-spec tables and each table's global-memory points are
     single-flight [Gpu_parallel.Memo] tables: concurrent requests for one
     spec or one configuration measure once. *)

module I = Gpu_isa.Instr
module D = Gpu_diag.Diag
module Pool = Gpu_parallel.Pool
module Memo = Gpu_parallel.Memo

let max_warps = 32

let arithmetic_classes = [ I.Class_i; I.Class_ii; I.Class_iii; I.Class_iv ]

let num_classes = List.length arithmetic_classes

(* Memory and control classes are charged at class II issue rates when they
   appear in the instruction-pipeline component. *)
let class_index = function
  | I.Class_i -> 0
  | I.Class_ii | I.Class_mem | I.Class_ctrl -> 1
  | I.Class_iii -> 2
  | I.Class_iv -> 3

type t = {
  spec : Gpu_hw.Spec.t;
  instr : float array array; (* [class_index][w-1] -> Ginstr/s *)
  smem : float array; (* [w-1] -> GB/s *)
  gmem : (int * int * int, float) Memo.t;
}

(* --- observability ------------------------------------------------------ *)

type counters = {
  instr_smem_measurements : int;
  gmem_measurements : int;
  cache_loads : int;
  calibrations : int;
}

(* The cells live in the process-wide Gpu_obs.Metrics registry (so
   `--metrics` and perfbench see them); [counters ()] is the record view
   the cache tests read. *)
module M = Gpu_obs.Metrics

let instr_smem_measured = M.counter "calib.measurements.instr_smem"
let gmem_measured = M.counter "calib.measurements.gmem"
let cache_loads = M.counter "calib.cache.process_loads"
let calibrations = M.counter "calib.calibrations"

let counters () =
  {
    instr_smem_measurements = M.value instr_smem_measured;
    gmem_measurements = M.value gmem_measured;
    cache_loads = M.value cache_loads;
    calibrations = M.value calibrations;
  }

(* Cache and calibration progress reporting goes through a caller-provided
   sink (the CLI prints to stderr); the library never prints on its own. *)
let on_diag : (D.t -> unit) Atomic.t = Atomic.make (fun _ -> ())
let set_on_diag f = Atomic.set on_diag f

(* Every diagnostic also lands in the structured log when a default sink
   is configured (the serve daemon points one at its access log), so
   calibration warnings correlate with request traffic.  No-op without a
   sink — the CLI path costs one atomic load. *)
let log_level_of = function
  | D.Error -> Gpu_obs.Log.Error
  | D.Warning -> Gpu_obs.Log.Warn
  | D.Info -> Gpu_obs.Log.Info

let emit d =
  Gpu_obs.Log.event (log_level_of d.D.severity) ~component:"calib"
    ~attrs:[ ("stage", Gpu_obs.Log.S (D.stage_name d.D.stage)) ]
    d.D.message;
  Atomic.get on_diag d

let disk_enabled = Atomic.make true
let set_disk_cache b = Atomic.set disk_enabled b
let disk_cache_enabled () = Atomic.get disk_enabled

(* --- raw measurements --------------------------------------------------- *)

let chain_length = 384

(* Marginal measurement: the cycle difference between a 2n-long and an
   n-long run isolates steady-state throughput from pipeline fill and
   launch effects.  [work] is what the extra n adds, in the rate's
   units. *)
let marginal_rate ~(spec : Gpu_hw.Spec.t) ~work ~short ~long =
  let d = long - short in
  if d <= 0 then invalid_arg "Tables: non-positive marginal cycles";
  float_of_int work
  *. spec.core_clock_ghz
  *. float_of_int spec.num_sms
  /. float_of_int d

(* The trace every warp of a block of [program] executes ([Codegen]). *)
let warp_trace ~spec ~smem_bytes program =
  Runner.warp_trace ~spec (Runner.wrap ~param_regs:[] ~smem_bytes program)

(* The traces of a class's short and long chain. *)
let chain_pair ~spec cls =
  let trace n =
    warp_trace ~spec ~smem_bytes:0 (Codegen.instruction_chain ~cls ~n)
  in
  (trace chain_length, trace (2 * chain_length))

let copy_pairs = 256

(* The traces of the copy's short and long run.  Only the destination
   offset depends on the warp count, and warp 0's trace does not
   ([Codegen]), so the one-warp block's trace stands for every count. *)
let copy_pair ~spec =
  let trace n =
    let program, smem_bytes = Codegen.shared_copy ~threads:32 ~n in
    warp_trace ~spec ~smem_bytes program
  in
  (trace copy_pairs, trace (2 * copy_pairs))

(* A trace pair cooked for replay under [spec]: once, for every warp
   count. *)
let cook_pair ~spec (short, long) =
  let cook = Gpu_timing.Engine.cook_warp ~spec in
  (cook short, cook long)

(* One table point: the marginal rate of a short and long cooked pair
   replayed at [warps], [work] per warp. *)
let pair_rate ~spec ~work ~warps (short, long) =
  M.incr instr_smem_measured;
  let run = Runner.replay_warp ~warps in
  marginal_rate ~spec ~work:(work * warps) ~short:(run short) ~long:(run long)

(* each pair moves a warp's 128 read + 128 written bytes *)
let smem_work = copy_pairs * 256

let measure_instr_throughput ~spec ~cls ~warps =
  pair_rate ~spec ~work:chain_length ~warps
    (cook_pair ~spec (chain_pair ~spec cls))

let measure_smem_bandwidth ~spec ~warps =
  pair_rate ~spec ~work:smem_work ~warps (cook_pair ~spec (copy_pair ~spec))

(* Total-time measurement for global memory: the latency tail is part of
   what Figure 3 shows (small configurations cannot cover the memory
   latency and sustain low bandwidth). *)
let measure_gmem_bandwidth ~spec ~blocks ~threads ~txns_per_thread =
  M.incr gmem_measured;
  let program, words =
    Codegen.global_stream ~blocks ~threads ~txns_per_thread
  in
  let k = Runner.wrap ~param_regs:[ ("buf", 0) ] ~smem_bytes:0 program in
  let args = [ ("buf", Gpu_sim.Memory.zeros words) ] in
  let cycles =
    Runner.measure_cycles ~spec ~grid:blocks ~block:threads ~args
      ~max_resident:spec.Gpu_hw.Spec.max_blocks_per_sm k
  in
  if cycles <= 0 then invalid_arg "Tables: zero-cycle benchmark";
  float_of_int (4 * words)
  *. spec.Gpu_hw.Spec.core_clock_ghz
  /. float_of_int cycles

(* --- construction ------------------------------------------------------- *)

(* Bump when the measurement semantics change (codegen, runner, or timing
   engine): the on-disk fingerprint folds this in, so old caches are
   rejected as stale instead of silently served. *)
let calibration_version = 1

let calibration_constants =
  Printf.sprintf "v=%d classes=%d max_warps=%d chain=%d pairs=%d"
    calibration_version num_classes max_warps chain_length copy_pairs

let of_parts spec instr smem gmem_entries =
  { spec; instr; smem; gmem = Memo.create ~seed:gmem_entries () }

let build (spec : Gpu_hw.Spec.t) =
  let classes = Array.of_list arithmetic_classes in
  let n_instr = num_classes * max_warps in
  (* No trace depends on the warp count: simulate and cook each class's
     chain pair and the copy pair once, then replay them at every warp
     count. *)
  let pairs =
    Pool.parallel_init (num_classes + 1) (fun c ->
        cook_pair ~spec
          (if c < num_classes then chain_pair ~spec classes.(c)
           else copy_pair ~spec))
  in
  (* One flat deterministic grid: row r of [max_warps] slots replays
     [pairs.(r)], the chains' rows first, then the shared-memory sweep.
     Results land by index, so the parallel tables are bit-identical to
     serial ones. *)
  let flat =
    Pool.parallel_init (n_instr + max_warps) (fun i ->
        pair_rate ~spec
          ~work:(if i < n_instr then chain_length else smem_work)
          ~warps:((i mod max_warps) + 1)
          pairs.(i / max_warps))
  in
  let instr =
    Array.init num_classes (fun c -> Array.sub flat (c * max_warps) max_warps)
  in
  let smem = Array.sub flat n_instr max_warps in
  of_parts spec instr smem []

(* --- persistence -------------------------------------------------------- *)

(* Snapshot the finished points, write outside the table's lock.
   Concurrent writers both go through temp-file + rename, so the file is
   always complete; a lost update is re-saved by the next miss. *)
let persist t =
  if disk_cache_enabled () then
    match Calib_cache.path_for t.spec with
    | None -> ()
    | Some path ->
      let fingerprint =
        Calib_cache.fingerprint ~constants:calibration_constants t.spec
      in
      let gmem_entries = List.sort compare (Memo.finished t.gmem) in
      let payload =
        { Calib_cache.instr = t.instr; smem = t.smem; gmem = gmem_entries }
      in
      (match
         Calib_cache.save ~on_retry:emit ~path ~fingerprint
           ~spec_name:t.spec.Gpu_hw.Spec.name payload
       with
      | Ok () -> ()
      | Error d -> emit d)

let load_from_disk (spec : Gpu_hw.Spec.t) =
  if not (disk_cache_enabled ()) then None
  else
    match Calib_cache.path_for spec with
    | None -> None
    | Some path -> (
      let fingerprint =
        Calib_cache.fingerprint ~constants:calibration_constants spec
      in
      match Calib_cache.load ~on_retry:emit ~path ~fingerprint () with
      | `Miss -> None
      | `Rejected d ->
        emit d;
        None
      | `Hit p ->
        if
          Array.length p.Calib_cache.instr = num_classes
          && Array.for_all
               (fun row -> Array.length row = max_warps)
               p.Calib_cache.instr
          && Array.length p.Calib_cache.smem = max_warps
        then begin
          M.incr cache_loads;
          emit
            (D.info D.Cache
               "loaded calibration for %s from %s (%d global-memory points)"
               spec.name path
               (List.length p.Calib_cache.gmem));
          Some
            (of_parts spec p.Calib_cache.instr p.Calib_cache.smem
               p.Calib_cache.gmem)
        end
        else begin
          emit
            (D.warning D.Cache
               "rejecting calibration cache %s: table dimensions do not \
                match this build"
               path);
          None
        end)

(* --- queries ------------------------------------------------------------ *)

let clamp_warps w = max 1 (min max_warps w)

(* The hottest query of the model: a dense array load, no list search. *)
let instr_throughput t cls ~warps =
  t.instr.(class_index cls).(clamp_warps warps - 1)

let smem_bandwidth t ~warps = t.smem.(clamp_warps warps - 1)

let normalize_gmem_key ~blocks ~threads ~txns_per_thread =
  (* Bandwidth saturates well before these caps, and the per-cluster
     leftover effect fades for large grids (paper Section 4.3), so huge
     configurations are folded onto bounded, cluster-balanced ones to keep
     the synthetic benchmark affordable. *)
  let blocks =
    if blocks > 120 then min 120 (blocks / 10 * 10) else max 1 blocks
  and threads = max 1 (min threads (32 * max_warps))
  and txns_per_thread = max 1 (min 256 txns_per_thread) in
  (blocks, threads, txns_per_thread)

(* Single-flight: concurrent misses of one key measure once, and the
   domain that measured a point persists the table once the point is
   published, so the file includes it. *)
let gmem_bandwidth t ~blocks ~threads ~txns_per_thread =
  Memo.get t.gmem ~on_fresh:(fun _ -> persist t)
    (normalize_gmem_key ~blocks ~threads ~txns_per_thread)
    (fun (blocks, threads, txns_per_thread) ->
      measure_gmem_bandwidth ~spec:t.spec ~blocks ~threads ~txns_per_thread)

(* --- per-process sharing ------------------------------------------------ *)

let build_or_load spec =
  match load_from_disk spec with
  | Some t -> t
  | None ->
    emit
      (D.info D.Cache "calibrating %d microbenchmarks for %s (%d jobs)"
         ((num_classes * max_warps) + max_warps)
         spec.Gpu_hw.Spec.name (Pool.current_jobs ()));
    M.incr calibrations;
    let t = build spec in
    persist t;
    t

(* Build on first use and share per spec: model queries are frequent.
   Single-flight, so e.g. parallel what-if variants naming the same spec
   calibrate it once. *)
let process_tables : (string, t) Memo.t = Memo.create ()

let clear_process_cache () = Memo.clear process_tables

let for_spec (spec : Gpu_hw.Spec.t) =
  Memo.get process_tables spec.name (fun _ -> build_or_load spec)
