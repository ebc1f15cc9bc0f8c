(* Device description for GT200-class GPUs, defaulting to the GTX 285 the
   paper studies, plus the architectural variants the paper's what-if
   analyses argue for (Sections 5.1-5.3). *)

type t = {
  name : string;
  (* processor array *)
  num_sms : int;
  sms_per_cluster : int; (* SMs sharing one global-memory pipeline *)
  warp_size : int;
  core_clock_ghz : float;
  (* functional units per SM for the paper's Table 1 classes *)
  units_class_i : int;
  units_class_ii : int;
  units_class_iii : int;
  units_class_iv : int;
  alu_latency : int; (* arithmetic pipeline depth, core cycles *)
  warp_issue_gap : int; (* minimum cycles between two issues of the same
                           warp: the scheduler revisits a warp only every
                           few cycles even when instructions are
                           independent *)
  (* per-SM resource ceilings *)
  registers_per_sm : int;
  smem_per_sm : int; (* bytes *)
  max_threads_per_block : int;
  max_threads_per_sm : int;
  max_blocks_per_sm : int;
  max_warps_per_sm : int;
  (* shared memory organisation *)
  smem_banks : int;
  smem_words_per_cycle : int; (* sustained words serviced per SM cycle *)
  smem_latency : int; (* shared-memory pipeline depth, core cycles *)
  smem_access_cycles : float; (* pipeline occupancy of one conflict-free
                                 half-warp access; the fraction above the
                                 2-cycle data movement is arbitration
                                 overhead, which caps sustained bandwidth
                                 below the theoretical peak as the paper
                                 observes (1165 of 1420 GB/s) *)
  (* global memory system *)
  mem_clock_ghz : float; (* effective (DDR) data clock *)
  bus_width_bits : int;
  gmem_latency : int; (* round-trip latency, core cycles *)
  gmem_overhead_cycles : float; (* fixed per-transaction DRAM overhead *)
  min_segment_bytes : int; (* smallest coalescing segment *)
  max_segment_bytes : int;
  coalesce_threads : int; (* transaction issue granularity: a half-warp *)
  smem_replay_cycles : float; (* cycles the issuing warp is held per
                                  serialized (replayed) shared transaction:
                                  the LSU replays conflicted accesses and
                                  the scheduler revisits the warp only
                                  after the replay drains *)
  smem_launch_overhead : int; (* bytes of shared memory the driver
                                 reserves per block for launch metadata *)
  early_release : bool; (* release block resources as warps retire
                           (paper Section 5.2 architectural proposal) *)
}

let gtx285 =
  {
    name = "GTX 285";
    num_sms = 30;
    sms_per_cluster = 3;
    warp_size = 32;
    core_clock_ghz = 1.476;
    units_class_i = 10;
    units_class_ii = 8;
    units_class_iii = 4;
    units_class_iv = 1;
    alu_latency = 24;
    warp_issue_gap = 8;
    registers_per_sm = 16384;
    smem_per_sm = 16384;
    max_threads_per_block = 512;
    max_threads_per_sm = 1024;
    max_blocks_per_sm = 8;
    max_warps_per_sm = 32;
    smem_banks = 16;
    smem_words_per_cycle = 8;
    smem_latency = 40;
    smem_access_cycles = 2.5;
    mem_clock_ghz = 2.484;
    bus_width_bits = 512;
    gmem_latency = 550;
    gmem_overhead_cycles = 1.0;
    min_segment_bytes = 32;
    max_segment_bytes = 128;
    coalesce_threads = 16;
    smem_replay_cycles = 8.0;
    smem_launch_overhead = 64;
    early_release = false;
  }

(* Volta-class profile (a V100-like part), parameter values from the
   microbenchmark dissection of Jia et al., "Dissecting the NVIDIA Volta
   GPU Architecture via Microbenchmarking" (arXiv:1804.06826): 80 SMs at
   1.38 GHz, 64 FP32 lanes per SM (so a warp instruction occupies one
   issue cycle), ~4-cycle dependent-issue ALU latency, 32 shared-memory
   banks serving a full 128-byte warp access per cycle, full-warp
   coalescing into 32-byte sectors within 128-byte segments, and ~900
   GB/s of HBM2 on a 4096-bit bus.  "like", not "exact": the sms_per_
   cluster pairing and the overhead fractions keep the GT200 model's
   structure rather than reproduce Volta's crossbar. *)
let volta_like =
  {
    name = "Volta-like";
    num_sms = 80;
    sms_per_cluster = 2;
    warp_size = 32;
    core_clock_ghz = 1.38;
    units_class_i = 64;
    units_class_ii = 64;
    units_class_iii = 16; (* SFUs *)
    units_class_iv = 32; (* FP64 at 1:2 rate *)
    alu_latency = 4;
    warp_issue_gap = 2;
    registers_per_sm = 65536;
    smem_per_sm = 98304; (* 96 KB configurable maximum *)
    max_threads_per_block = 1024;
    max_threads_per_sm = 2048;
    max_blocks_per_sm = 32;
    max_warps_per_sm = 64;
    smem_banks = 32;
    smem_words_per_cycle = 32;
    smem_latency = 19;
    smem_access_cycles = 1.25;
    mem_clock_ghz = 1.76; (* effective HBM2 data rate: ~901 GB/s *)
    bus_width_bits = 4096;
    gmem_latency = 400;
    gmem_overhead_cycles = 1.0;
    min_segment_bytes = 32; (* 32-byte sectors *)
    max_segment_bytes = 128;
    coalesce_threads = 32; (* full-warp coalescing *)
    smem_replay_cycles = 4.0;
    smem_launch_overhead = 0;
    early_release = false;
  }

(* Ampere-class profile (an A100-like part), parameter values from
   Abdelkhalik et al., "Demystifying the Nvidia Ampere Architecture
   through Microbenchmarking and Instruction-level Analysis"
   (arXiv:2208.11174): 108 SMs at 1.41 GHz, the same 64-lane FP32 SM and
   full-warp 32-bank shared memory organisation as Volta, larger shared
   memory (164 KB configurable), and ~1555 GB/s of HBM2e on a 5120-bit
   bus.  The same "like" caveat as [volta_like] applies. *)
let ampere_like =
  {
    volta_like with
    name = "Ampere-like";
    num_sms = 108;
    core_clock_ghz = 1.41;
    smem_per_sm = 167936; (* 164 KB configurable maximum *)
    smem_latency = 23;
    mem_clock_ghz = 2.43; (* effective HBM2e data rate: ~1555 GB/s *)
    bus_width_bits = 5120;
    gmem_latency = 466;
  }

let num_clusters t = t.num_sms / t.sms_per_cluster

(* Per-transaction byte sizes, derived from the spec rather than baked in
   as GT200's 64: shared-memory (and atomic) traffic moves one 4-byte
   word per bank per conflict-free transaction, global traffic coalesces
   over one issue group of 4-byte lanes.  On the GTX 285 both come to
   16 x 4 = 64 bytes, which is why the old constant was right on the
   baseline and silently wrong everywhere else. *)
let smem_transaction_bytes t = t.smem_banks * 4
let gmem_transaction_bytes t = t.coalesce_threads * 4

(* Every field, in declaration order, rendered exactly ("%h" for floats).
   The calibration cache fingerprints specs with this string, so any new
   field that affects measurements must be appended here — a mismatch only
   costs a recalibration, never a stale table. *)
let canonical t =
  Printf.sprintf
    "name=%s sms=%d spc=%d warp=%d core=%h ui=%d uii=%d uiii=%d uiv=%d \
     alat=%d gap=%d regs=%d smem=%d mtpb=%d mtps=%d mbps=%d mwps=%d \
     banks=%d words=%d slat=%d sacc=%h memclk=%h bus=%d glat=%d govh=%h \
     minseg=%d maxseg=%d coal=%d replay=%h launch=%d early=%b"
    t.name t.num_sms t.sms_per_cluster t.warp_size t.core_clock_ghz
    t.units_class_i t.units_class_ii t.units_class_iii t.units_class_iv
    t.alu_latency t.warp_issue_gap t.registers_per_sm t.smem_per_sm
    t.max_threads_per_block t.max_threads_per_sm t.max_blocks_per_sm
    t.max_warps_per_sm t.smem_banks t.smem_words_per_cycle t.smem_latency
    t.smem_access_cycles t.mem_clock_ghz t.bus_width_bits t.gmem_latency
    t.gmem_overhead_cycles t.min_segment_bytes t.max_segment_bytes
    t.coalesce_threads t.smem_replay_cycles t.smem_launch_overhead
    t.early_release

(* --- Peak rates (Section 4 formulas) --------------------------------- *)

let units_for t = function
  | Gpu_isa.Instr.Class_i -> t.units_class_i
  | Class_ii -> t.units_class_ii
  | Class_iii -> t.units_class_iii
  | Class_iv -> t.units_class_iv
  | Class_mem | Class_ctrl -> t.units_class_ii

(* Peak warp-instruction throughput of a class in Giga-instructions/s:
   units * frequency * num_sms / warp_size. *)
let peak_instruction_throughput t cls =
  float_of_int (units_for t cls)
  *. t.core_clock_ghz
  *. float_of_int t.num_sms
  /. float_of_int t.warp_size

(* Peak single-precision rate: MAD throughput * warp_size * 2 flops. *)
let peak_gflops t =
  peak_instruction_throughput t Gpu_isa.Instr.Class_ii
  *. float_of_int t.warp_size
  *. 2.0

(* Peak shared-memory bandwidth in GB/s, counting read plus write traffic:
   numberSP * numberSM * frequency * 4 bytes (paper Section 4.2). *)
let peak_smem_bandwidth t =
  float_of_int t.smem_words_per_cycle
  *. float_of_int t.num_sms
  *. t.core_clock_ghz
  *. 4.0

(* Peak global-memory bandwidth in GB/s: memory clock * bus width / 8
   (paper Section 4.3). *)
let peak_gmem_bandwidth t =
  t.mem_clock_ghz *. float_of_int t.bus_width_bits /. 8.0

let gmem_bytes_per_cycle_per_cluster t =
  peak_gmem_bandwidth t
  /. float_of_int (num_clusters t)
  /. t.core_clock_ghz

(* Issue occupancy (cycles the functional units are held) of one warp
   instruction of a class: warp_size / units. *)
let issue_cycles t cls =
  let u = units_for t cls in
  (t.warp_size + u - 1) / u

(* --- Architectural variants ------------------------------------------ *)

let with_name name t = { t with name }

let with_max_blocks n t =
  with_name (Printf.sprintf "%s +maxblocks=%d" t.name n)
    { t with max_blocks_per_sm = n }

let with_banks n t =
  with_name (Printf.sprintf "%s +banks=%d" t.name n) { t with smem_banks = n }

let with_registers n t =
  with_name (Printf.sprintf "%s +regs=%d" t.name n)
    { t with registers_per_sm = n }

let with_smem bytes t =
  with_name (Printf.sprintf "%s +smem=%d" t.name bytes)
    { t with smem_per_sm = bytes }

let with_min_segment bytes t =
  with_name (Printf.sprintf "%s +segment=%dB" t.name bytes)
    { t with min_segment_bytes = bytes }

let with_early_release t =
  with_name (t.name ^ " +early-release") { t with early_release = true }

(* --- The device fleet ---------------------------------------------------- *)

(* The baseline, the Section-6 what-if variants and the later-generation
   profiles, under the names the CLI's [--variant]/[--device] and the
   daemon's [device] field accept. *)
let fleet =
  [
    ("baseline", gtx285);
    ("maxblocks16", with_max_blocks 16 gtx285);
    ("banks17", with_banks 17 gtx285);
    ("segment16", with_min_segment 16 gtx285);
    ("segment4", with_min_segment 4 gtx285);
    ("bigregfile", with_registers 32768 gtx285);
    ("bigsmem", with_smem 32768 gtx285);
    ("earlyrelease", with_early_release gtx285);
    ("volta-like", volta_like);
    ("ampere-like", ampere_like);
  ]

let device_of_name name = List.assoc_opt name fleet

let pp ppf t =
  Fmt.pf ppf
    "@[<v>%s: %d SMs (%d clusters), %.3f GHz core, %.3f GHz mem, %d-bit \
     bus@,units I/II/III/IV = %d/%d/%d/%d, %d regs, %d B smem, %d banks@,\
     peak: %.1f GFLOPS, %.0f GB/s shared, %.0f GB/s global@]"
    t.name t.num_sms (num_clusters t) t.core_clock_ghz t.mem_clock_ghz
    t.bus_width_bits t.units_class_i t.units_class_ii t.units_class_iii
    t.units_class_iv t.registers_per_sm t.smem_per_sm t.smem_banks
    (peak_gflops t) (peak_smem_bandwidth t) (peak_gmem_bandwidth t)
