(* The microbenchmark-based throughput model — the paper's primary
   contribution (Sections 3-4).

   For each barrier-delimited stage the model charges:
     - the instruction pipeline with every issued warp-instruction at the
       microbenchmarked throughput of its cost class for the stage's
       warp-level parallelism;
     - shared memory with the conflict-adjusted half-warp transaction count
       (64 bytes each) at the microbenchmarked bandwidth for that
       parallelism;
     - global memory with the coalesced transferred bytes at the bandwidth
       a synthetic benchmark of the same (blocks, block size,
       transactions/thread) configuration sustains.

   A stage's time is its slowest component (the others overlap); the stage
   bottleneck is that component.  With one resident block per SM the stages
   serialize; with several, stages themselves overlap and the program gets
   a single overall bottleneck (Section 3). *)

module Spec = Gpu_hw.Spec
module Stats = Gpu_sim.Stats
module Tables = Gpu_microbench.Tables

type cause =
  | Low_computational_density of float
  | Expensive_instructions of float (* class III/IV fraction *)
  | Insufficient_warps of int
  | Bank_conflicts of float (* penalty factor *)
  | Atomic_contention of float (* serialized / contention-free txns *)
  | Bookkeeping_smem_traffic
  | Uncoalesced_accesses of float (* coalescing efficiency *)
  | Large_transaction_granularity
  | Insufficient_memory_parallelism of float (* fraction of peak *)

let pp_cause ppf = function
  | Low_computational_density d ->
    Fmt.pf ppf "low computational density (%.0f%% of instructions are MADs)"
      (100.0 *. d)
  | Expensive_instructions f ->
    Fmt.pf ppf "expensive instructions (%.0f%% are class III/IV)"
      (100.0 *. f)
  | Insufficient_warps w -> Fmt.pf ppf "insufficient parallel warps (%d)" w
  | Bank_conflicts p -> Fmt.pf ppf "bank conflicts (%.2fx transactions)" p
  | Atomic_contention p ->
    Fmt.pf ppf "atomic contention (%.2fx serialized transactions)" p
  | Bookkeeping_smem_traffic ->
    Fmt.pf ppf "shared-memory traffic from bookkeeping accesses"
  | Uncoalesced_accesses e ->
    Fmt.pf ppf "uncoalesced accesses (%.0f%% of moved bytes useful)"
      (100.0 *. e)
  | Large_transaction_granularity ->
    Fmt.pf ppf "large memory-transaction granularity"
  | Insufficient_memory_parallelism f ->
    Fmt.pf ppf
      "insufficient parallelism to cover memory latency (%.0f%% of peak \
       bandwidth)"
      (100.0 *. f)

type stage_analysis = {
  index : int;
  times : Component.times;
  bottleneck : Component.t;
  active_warps : int; (* per SM, used for the table lookups *)
  smem_bandwidth : float; (* GB/s the stage's parallelism sustains *)
  instr_throughput_ii : float; (* Ginstr/s for class II at that parallelism *)
  gmem_bandwidth : float; (* GB/s of the matched synthetic benchmark *)
  class_throughput : float array; (* Ginstr/s per Stats class index, at
                                     this stage's active warps *)
  causes : cause list;
}

type confidence = Calibrated | Degraded

type t = {
  spec : Spec.t;
  grid : int;
  block : int;
  occupancy : Gpu_hw.Occupancy.t;
  resident_blocks : int; (* actually resident, given the grid *)
  serialized : bool;
  stages : stage_analysis list;
  totals : Component.times;
  bottleneck : Component.t;
  predicted_seconds : float;
  no_overlap_seconds : float; (* upper bound: components never overlap *)
  computational_density : float;
  coalescing_efficiency : float;
  bank_conflict_penalty : float;
  atomic_contention_penalty : float;
  predicted_gflops : float;
  warnings : Gpu_diag.Diag.t list;
      (* out-of-calibrated-range conditions: the prediction stands, with
         degraded confidence *)
  confidence : confidence;
}

type inputs = {
  in_spec : Spec.t;
  tables : Tables.t;
  stats : Stats.t;
  scale : float; (* grid blocks / blocks simulated *)
  in_grid : int;
  in_block : int;
  in_occupancy : Gpu_hw.Occupancy.t;
  blocks_run : int;
}

(* How fully the grid loads the device: with fewer blocks than SMs, or a
   remainder, the busiest SM carries more than the average share, so the
   effective device throughput drops by this factor. *)
let load_balance ~spec ~grid =
  let sms = spec.Spec.num_sms in
  let busiest = (grid + sms - 1) / sms in
  float_of_int grid /. float_of_int (busiest * sms)

(* Global-memory transactions per thread over the whole program: the
   configuration the matched synthetic benchmark reproduces (Section 4.3).
   [gmem_accesses] counts warp-level accesses, so the per-thread figure
   multiplies by the device's warp size.  [total] is every stage folded
   into one. *)
let txns_per_thread inp (total : Stats.stage) =
  if total.Stats.gmem_accesses = 0 then 0
  else
    let threads = inp.in_grid * inp.in_block in
    let per_thread =
      float_of_int total.Stats.gmem_accesses
      *. inp.scale
      *. float_of_int inp.in_spec.Spec.warp_size
      /. float_of_int threads
    in
    max 1 (int_of_float (Float.round per_thread))

let analyze_stage inp ~program_txns_per_thread ~stage_index
    (s : Stats.stage) =
  let spec = inp.in_spec in
  let balance = load_balance ~spec ~grid:inp.in_grid in
  (* Parallelism: warps active in this stage per block, times the blocks
     resident on an SM. *)
  let resident =
    min inp.in_occupancy.Gpu_hw.Occupancy.blocks
      (max 1 ((inp.in_grid + spec.Spec.num_sms - 1) / spec.Spec.num_sms))
  in
  let per_block_active =
    if inp.blocks_run = 0 then 0
    else
      (s.active_warp_slots + inp.blocks_run - 1) / inp.blocks_run
  in
  let active_warps =
    max 1 (min (per_block_active * resident) spec.Spec.max_warps_per_sm)
  in
  (* Instruction pipeline time. *)
  let t_instr =
    List.fold_left
      (fun acc cls ->
        let n = float_of_int (Stats.issued_of s cls) *. inp.scale in
        if n = 0.0 then acc
        else
          acc
          +. n
             /. (Tables.instr_throughput inp.tables cls ~warps:active_warps
                *. 1e9)
             /. balance)
      0.0 Gpu_isa.Instr.all_cost_classes
  in
  (* Shared memory time.  A conflict-free transaction moves one word per
     bank, so its byte size follows the spec's bank count (64 B on the
     16-bank GT200, 128 B on 32-bank parts) rather than a constant. *)
  let smem_bw = Tables.smem_bandwidth inp.tables ~warps:active_warps in
  let smem_txn_bytes = Spec.smem_transaction_bytes spec in
  let t_smem =
    float_of_int (s.smem_txns * smem_txn_bytes)
    *. inp.scale /. (smem_bw *. 1e9) /. balance
  in
  (* Atomic serialization time: the contention-serialized transactions
     drain through the same shared pipe at the same microbenchmarked
     bandwidth, but are charged as their own component — an atomic-bound
     stage should say so, not hide inside the shared term.  The balance
     factor is numerically the grid load balance, kept as its own binding
     because the atomic term's balance could diverge from the shared one
     (e.g. contention hotspots concentrating on few SMs). *)
  let atomic_balance = balance in
  let t_atomic =
    float_of_int (s.atomic_txns * smem_txn_bytes)
    *. inp.scale /. (smem_bw *. 1e9) /. atomic_balance
  in
  (* Global memory time: synthetic benchmark of the same configuration. *)
  let gmem_bw =
    if program_txns_per_thread = 0 then Float.infinity
    else
      Tables.gmem_bandwidth inp.tables ~blocks:inp.in_grid
        ~threads:inp.in_block ~txns_per_thread:program_txns_per_thread
  in
  let t_gmem =
    if s.gmem_transferred_bytes = 0 then 0.0
    else
      float_of_int s.gmem_transferred_bytes
      *. inp.scale /. (gmem_bw *. 1e9)
  in
  let times =
    {
      Component.instruction = t_instr;
      shared = t_smem;
      atomic = t_atomic;
      global = t_gmem;
    }
  in
  let bottleneck = Component.bottleneck times in
  (* Cause diagnosis (Section 3). *)
  let density = Stats.computational_density s in
  let expensive =
    let total = float_of_int (Stats.total_issued s) in
    if total = 0.0 then 0.0
    else
      float_of_int
        (Stats.issued_of s Gpu_isa.Instr.Class_iii
        + Stats.issued_of s Gpu_isa.Instr.Class_iv)
      /. total
  in
  let conflict_penalty = Stats.bank_conflict_penalty s in
  let contention_penalty = Stats.atomic_contention_penalty s in
  let coalescing = Stats.coalescing_efficiency s in
  let saturation_warps = 16 in
  let causes =
    match bottleneck with
    | Component.Instruction_pipeline ->
      List.concat
        [
          (if density < 0.3 then [ Low_computational_density density ]
           else []);
          (if expensive > 0.1 then [ Expensive_instructions expensive ]
           else []);
          (if active_warps < saturation_warps then
             [ Insufficient_warps active_warps ]
           else []);
        ]
    | Component.Shared_memory ->
      List.concat
        [
          (if conflict_penalty > 1.1 then [ Bank_conflicts conflict_penalty ]
           else []);
          (* the [smem_accesses > 0] conjunct guards the ratio against a
             0-access stage (MADs but no shared traffic): mads /. 0. is
             inf/NaN and must not reach the comparison *)
          (if
             s.smem_accesses > 0
             && float_of_int s.mads /. float_of_int s.smem_accesses < 2.0
           then [ Bookkeeping_smem_traffic ]
           else []);
          (if active_warps < saturation_warps then
             [ Insufficient_warps active_warps ]
           else []);
        ]
    | Component.Atomic ->
      List.concat
        [
          (if contention_penalty > 1.1 then
             [ Atomic_contention contention_penalty ]
           else []);
          (if active_warps < saturation_warps then
             [ Insufficient_warps active_warps ]
           else []);
        ]
    | Component.Global_memory ->
      let peak = Spec.peak_gmem_bandwidth spec in
      List.concat
        [
          (if coalescing < 0.9 then
             [
               Uncoalesced_accesses coalescing;
               Large_transaction_granularity;
             ]
           else []);
          (if gmem_bw < 0.6 *. peak then
             [ Insufficient_memory_parallelism (gmem_bw /. peak) ]
           else []);
        ]
  in
  {
    index = stage_index;
    times;
    bottleneck;
    active_warps;
    smem_bandwidth = smem_bw;
    instr_throughput_ii =
      Tables.instr_throughput inp.tables Gpu_isa.Instr.Class_ii
        ~warps:active_warps;
    gmem_bandwidth = gmem_bw;
    class_throughput =
      Array.init Stats.num_classes (fun k ->
          Tables.instr_throughput inp.tables (Stats.class_of_index k)
            ~warps:active_warps);
    causes;
  }

(* Inputs the microbenchmark sweeps never measured (Section 4 calibrates
   whole warps at 1..32 warps/SM, global configurations up to the folding
   caps of [Tables.gmem_bandwidth], and statistics from at least one
   simulated block).  Outside that domain the model still computes, but the
   result is extrapolation: report it, don't abort on it. *)
let range_warnings inp ~total ~program_txns_per_thread =
  let module D = Gpu_diag.Diag in
  let w ?(severity = D.Warning) cond fmt =
    Format.kasprintf
      (fun m -> if cond then [ D.make severity D.Model m ] else [])
      fmt
  in
  let spec = inp.in_spec in
  List.concat
    [
      w
        (Stats.total_issued total = 0)
        "kernel issued no instructions: the prediction is degenerate";
      w
        (inp.in_block mod spec.Spec.warp_size <> 0)
        "block size %d is not a multiple of the warp size %d: throughput \
         tables are calibrated on whole warps"
        inp.in_block spec.Spec.warp_size;
      w (inp.in_grid > 120)
        "grid of %d blocks exceeds the calibrated synthetic-benchmark \
         sweep: its bandwidth is folded onto a 120-block configuration"
        inp.in_grid;
      w
        (program_txns_per_thread > 256)
        "%d global transactions/thread exceeds the calibrated sweep (max \
         256): bandwidth is extrapolated"
        program_txns_per_thread;
      w
        (load_balance ~spec ~grid:inp.in_grid < 0.75)
        "grid of %d blocks loads the %d SMs at %.0f%%: per-SM throughput \
         tables are applied to an unbalanced device"
        inp.in_grid spec.Spec.num_sms
        (100.0 *. load_balance ~spec ~grid:inp.in_grid);
      w ~severity:D.Info
        (inp.scale > 1.0)
        "statistics scaled %.3gx from a %d-block sample: exact only for \
         block-homogeneous workloads"
        inp.scale inp.blocks_run;
    ]

let analyze inp =
  if inp.in_grid <= 0 then
    invalid_arg "Model.analyze: grid must have at least one block";
  if inp.in_block <= 0 then
    invalid_arg "Model.analyze: blocks must have at least one thread";
  (* Non-finite inputs would flow through the component divisions into
     NaN stage times, and NaN compares false against everything — the
     bottleneck classifier would then silently report the first component
     (instruction pipeline) no matter what the kernel does.  Reject at
     the door instead. *)
  if not (Float.is_finite inp.scale) || inp.scale < 0.0 then
    invalid_arg
      (Printf.sprintf
         "Model.analyze: statistics scale must be finite and non-negative, \
          got %g"
         inp.scale);
  let spec = inp.in_spec in
  let resident =
    min inp.in_occupancy.Gpu_hw.Occupancy.blocks
      (max 1 ((inp.in_grid + spec.Spec.num_sms - 1) / spec.Spec.num_sms))
  in
  let serialized = resident = 1 in
  (* Every stage folded into one, merged once: the per-pc arrays make the
     merge the costliest step of the whole-program figures below. *)
  let all = Stats.total inp.stats in
  let program_txns_per_thread = txns_per_thread inp all in
  let stages =
    Array.to_list
      (Array.mapi
         (fun i s ->
           analyze_stage inp ~program_txns_per_thread ~stage_index:i s)
         (Stats.stages inp.stats))
  in
  let totals =
    List.fold_left
      (fun acc st -> Component.add acc st.times)
      Component.zero_times stages
  in
  (* Same guard downstream: inconsistent statistics (e.g. transferred
     bytes with zero accesses, hand-built Stats records) can still
     produce a non-finite component time; fail loudly rather than let a
     NaN pick the bottleneck. *)
  let finite (t : Component.times) =
    Float.is_finite t.Component.instruction
    && Float.is_finite t.Component.shared
    && Float.is_finite t.Component.atomic
    && Float.is_finite t.Component.global
  in
  List.iter
    (fun st ->
      if not (finite st.times) then
        invalid_arg
          (Printf.sprintf
             "Model.analyze: stage %d has a non-finite component time \
              (inconsistent statistics)"
             st.index))
    stages;
  let predicted_seconds =
    if serialized then
      (* one resident block: barrier-delimited stages run back to back *)
      List.fold_left (fun acc st -> acc +. Component.max_time st.times) 0.0
        stages
    else
      (* several resident blocks: stages of different blocks overlap, so
         each component pipeline runs its aggregate work (Section 3) *)
      Component.max_time totals
  in
  (* The paper assumes perfect overlap of the non-bottleneck components and
     flags non-perfect overlap as future work (4); the no-overlap sum gives
     the complementary upper bound, bracketing the truth. *)
  let no_overlap_seconds =
    totals.Component.instruction +. totals.Component.shared
    +. totals.Component.atomic +. totals.Component.global
  in
  let density = Stats.computational_density all in
  let predicted_gflops =
    (* [mads] counts warp-level instructions: warp_size lanes x 2 flops. *)
    if predicted_seconds <= 0.0 then 0.0
    else
      float_of_int all.mads *. inp.scale
      *. float_of_int spec.Spec.warp_size
      *. 2.0 /. predicted_seconds /. 1e9
  in
  let warnings = range_warnings inp ~total:all ~program_txns_per_thread in
  let confidence =
    if
      List.exists
        (fun (d : Gpu_diag.Diag.t) -> d.severity = Gpu_diag.Diag.Warning)
        warnings
    then Degraded
    else Calibrated
  in
  {
    spec;
    grid = inp.in_grid;
    block = inp.in_block;
    occupancy = inp.in_occupancy;
    resident_blocks = resident;
    serialized;
    stages;
    totals;
    bottleneck = Component.bottleneck totals;
    predicted_seconds;
    no_overlap_seconds;
    computational_density = density;
    coalescing_efficiency = Stats.coalescing_efficiency all;
    bank_conflict_penalty = Stats.bank_conflict_penalty all;
    atomic_contention_penalty = Stats.atomic_contention_penalty all;
    predicted_gflops;
    warnings;
    confidence;
  }

(* The [Result] face of [analyze]: degenerate launch geometry becomes a
   [Model] diagnostic instead of an exception (or a NaN reaching the
   caller through the load-balance division). *)
let analyze_result inp =
  let module D = Gpu_diag.Diag in
  let convert = function
    | Invalid_argument m -> Some (D.make D.Error D.Model m)
    | _ -> None
  in
  D.protect ~stage:D.Model ~convert (fun () -> analyze inp)

(* --- Reporting -------------------------------------------------------- *)

let pp_times ppf (t : Component.times) =
  Fmt.pf ppf "instr %.3g ms, shared %.3g ms, atomic %.3g ms, global %.3g ms"
    (1e3 *. t.instruction) (1e3 *. t.shared) (1e3 *. t.atomic)
    (1e3 *. t.global)

let pp_stage ppf st =
  Fmt.pf ppf "@[<v>stage %d: %a@,  bottleneck: %a (%d warps/SM)%a@]" st.index
    pp_times st.times Component.pp st.bottleneck st.active_warps
    (fun ppf causes ->
      List.iter (fun c -> Fmt.pf ppf "@,  cause: %a" pp_cause c) causes)
    st.causes

let pp_confidence ppf t =
  match t.confidence with
  | Calibrated -> ()
  | Degraded ->
    Fmt.pf ppf "@,confidence: degraded (outside the calibrated domain)";
    List.iter (fun d -> Fmt.pf ppf "@,%a" Gpu_diag.Diag.pp d) t.warnings

let pp ppf t =
  Fmt.pf ppf
    "@[<v>%s | grid %d x %d threads | %d resident blocks (%s)@,\
     predicted: %.4g ms (%s; no-overlap bound %.4g ms)@,bottleneck: \
     %a@,components: %a@,\
     computational density %.1f%%, coalescing %.1f%%, bank-conflict \
     penalty %.2fx@,predicted %.1f GFLOPS@,%a%a@]"
    t.spec.Spec.name t.grid t.block t.resident_blocks
    (if t.serialized then "stages serialized" else "stages overlapped")
    (1e3 *. t.predicted_seconds)
    (if t.serialized then "sum of stage bottlenecks"
     else "max of component totals")
    (1e3 *. t.no_overlap_seconds)
    Component.pp t.bottleneck pp_times t.totals
    (100.0 *. t.computational_density)
    (100.0 *. t.coalescing_efficiency)
    t.bank_conflict_penalty t.predicted_gflops
    (fun ppf stages ->
      List.iter (fun st -> Fmt.pf ppf "@,%a" pp_stage st) stages)
    t.stages pp_confidence t
