(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Zhang & Owens, HPCA 2011).

     dune exec bench/main.exe            -- run every experiment
     dune exec bench/main.exe -- fig3    -- run selected experiments
     dune exec bench/main.exe -- --list
     dune exec bench/main.exe -- --jobs N --no-cache

   Experiments fan out over the gpu_parallel domain pool, one per task;
   each task's output is captured in a buffer and replayed in experiment
   order, so the report reads identically to a serial run.  This harness
   prints model results only; the toolchain's own speed is measured by
   perfbench (perfbench/METRICS.md).

   "paper" lines quote the published numbers (GTX 285 hardware); "ours"
   lines are this reproduction (cycle timing simulator as the hardware
   substitute), so shapes and ratios are comparable, absolute numbers only
   loosely. *)

module Spec = Gpu_hw.Spec
module Tables = Gpu_microbench.Tables
module I = Gpu_isa.Instr
module Model = Gpu_model.Model
module Component = Gpu_model.Component
module Workflow = Gpu_model.Workflow
module Whatif = Gpu_model.Whatif
module Stats = Gpu_sim.Stats
module Matmul = Gpu_workloads.Matmul
module Tridiag = Gpu_workloads.Tridiag
module Spmv = Gpu_workloads.Spmv
module Pool = Gpu_parallel.Pool
module Memo = Gpu_parallel.Memo

let spec = Spec.gtx285

(* --- captured output ------------------------------------------------------

   Experiments print through these shims (they shadow the stdlib printers
   the experiment bodies use).  When the driver fans experiments out over
   the domain pool, each task installs a domain-local buffer so its output
   is captured and replayed in order; run standalone they print straight
   to stdout. *)

let capture_buf : Buffer.t option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

module Printf = struct
  let printf fmt =
    Stdlib.Printf.ksprintf
      (fun s ->
        match Domain.DLS.get capture_buf with
        | Some b -> Buffer.add_string b s
        | None ->
          Stdlib.print_string s;
          flush stdout)
      fmt

  let sprintf = Stdlib.Printf.sprintf
end

let print_string s =
  match Domain.DLS.get capture_buf with
  | Some b -> Buffer.add_string b s
  | None -> Stdlib.print_string s

let print_newline () = print_string "\n"

(* [Tables.for_spec] shares the calibration per spec; the other
   heavyweight artifacts below are single-flight memos, not [lazy] —
   concurrent experiments may force them from different domains. *)
let tables () = Tables.for_spec spec

let header id title =
  Printf.printf "\n=== %s: %s ===\n%!" id title

(* --- Table 1 ------------------------------------------------------------ *)

let table1 () =
  header "Table 1" "instruction types and functional units";
  Printf.printf "%-8s %-6s %-28s %s\n" "type" "units" "examples"
    "peak Ginstr/s";
  List.iter
    (fun (cls, examples) ->
      Printf.printf "%-8s %-6d %-28s %6.2f\n"
        (I.cost_class_name cls)
        (Spec.units_for spec cls)
        examples
        (Spec.peak_instruction_throughput spec cls))
    [
      (I.Class_i, "mul");
      (I.Class_ii, "mov, add, mad");
      (I.Class_iii, "sin, cos, log, rcp");
      (I.Class_iv, "double precision");
    ];
  Printf.printf "paper: 10 / 8 / 4 / 1 units; MAD peak 11.1 Ginstr/s = \
                 710.4 GFLOPS\n";
  Printf.printf "ours:  MAD peak %.1f Ginstr/s = %.1f GFLOPS\n"
    (Spec.peak_instruction_throughput spec I.Class_ii)
    (Spec.peak_gflops spec)

(* --- Figure 2 ------------------------------------------------------------ *)

let warp_axis = [ 1; 2; 4; 6; 8; 12; 16; 20; 24; 28; 32 ]

let fig2_left () =
  header "Figure 2 (left)" "instruction throughput vs warps per SM \
                            (Ginstr/s, device-wide)";
  let t = tables () in
  Printf.printf "%-6s" "warps";
  List.iter (fun w -> Printf.printf "%7d" w) warp_axis;
  print_newline ();
  List.iter
    (fun cls ->
      Printf.printf "%-6s" (I.cost_class_name cls);
      List.iter
        (fun w ->
          Printf.printf "%7.2f" (Tables.instr_throughput t cls ~warps:w))
        warp_axis;
      print_newline ())
    Tables.arithmetic_classes;
  Printf.printf
    "paper: type II saturates at ~6 warps (pipeline ~6 stages); classes \
     with more units need more warps; type IV flat at ~1.4\n"

let fig2_right () =
  header "Figure 2 (right)" "shared memory bandwidth vs warps per SM";
  let t = tables () in
  Printf.printf "%-6s" "warps";
  List.iter (fun w -> Printf.printf "%7d" w) warp_axis;
  print_newline ();
  Printf.printf "%-6s" "GB/s";
  List.iter
    (fun w -> Printf.printf "%7.0f" (Tables.smem_bandwidth t ~warps:w))
    warp_axis;
  print_newline ();
  Printf.printf "paper at {6,16,32} warps: {870, 1112, 1165} GB/s\n";
  Printf.printf "ours  at {6,16,32} warps: {%.0f, %.0f, %.0f} GB/s\n"
    (Tables.smem_bandwidth t ~warps:6)
    (Tables.smem_bandwidth t ~warps:16)
    (Tables.smem_bandwidth t ~warps:32)

(* --- Figure 3 ------------------------------------------------------------ *)

let fig3 () =
  header "Figure 3" "global memory bandwidth vs blocks (T threads, M \
                     transactions/thread)";
  let t = tables () in
  let configs =
    [
      (512, 256); (256, 256); (256, 128); (128, 256); (128, 128);
      (64, 256); (512, 2); (256, 2);
    ]
  in
  let blocks = [ 1; 2; 4; 6; 8; 10; 11; 14; 17; 20; 21; 25; 30; 31; 35;
                 40; 41; 45; 50; 51; 56 ]
  in
  Printf.printf "%-12s" "blocks";
  List.iter (fun b -> Printf.printf "%6d" b) blocks;
  print_newline ();
  List.iter
    (fun (threads, m) ->
      Printf.printf "%4dT,%4dM " threads m;
      List.iter
        (fun b ->
          Printf.printf "%6.0f"
            (Tables.gmem_bandwidth t ~blocks:b ~threads ~txns_per_thread:m))
        blocks;
      print_newline ())
    configs;
  Printf.printf
    "paper: peak ~127 GB/s of the 160 GB/s theoretical; sawtooth with \
     period 10 (30 SMs in 10 clusters share memory pipelines); small M \
     stays latency-bound\n"

(* --- Table 2 ------------------------------------------------------------- *)

let table2 () =
  header "Table 2" "matmul resource usage and occupancy per tile size";
  Printf.printf "%-8s %5s %6s %8s %9s %7s %6s\n" "tile" "regs" "smem"
    "blk(reg)" "blk(smem)" "blocks" "warps";
  List.iter
    (fun tile ->
      let k = Gpu_kernel.Compile.compile (Matmul.kernel ~n:1024 ~tile) in
      let o = Workflow.occupancy_of ~spec ~block:Matmul.threads_per_block k in
      Printf.printf "%dx%-6d %5d %6d %8d %9d %7d %6d\n" tile tile
        k.Gpu_kernel.Compile.reg_demand
        (k.Gpu_kernel.Compile.smem_bytes + spec.Spec.smem_launch_overhead)
        o.Gpu_hw.Occupancy.blocks_by_registers
        o.Gpu_hw.Occupancy.blocks_by_smem o.Gpu_hw.Occupancy.blocks
        o.Gpu_hw.Occupancy.active_warps)
    [ 8; 16; 32 ];
  Printf.printf
    "paper: regs 16/30/58, smem 348/1088/4284 B, blocks 8/8/3, warps \
     16/16/6\n"

(* --- Figure 4 ------------------------------------------------------------ *)

let fig4 () =
  header "Figure 4" "matmul (1024x1024): counts, times, bottlenecks";
  Printf.printf
    "%-6s %9s %9s %9s %9s | %8s %8s %8s %9s %9s %7s\n" "tile" "instr(M)"
    "mad(M)" "smem(M)" "gmem(M)" "t_ins ms" "t_shr ms" "t_glb ms" "pred ms"
    "meas ms" "GFLOPS";
  List.iter
    (fun tile ->
      let r = Workflow.analyze ~measure:true (Matmul.input ~n:1024 ~tile) in
      let total = Stats.total r.Workflow.stats in
      let sc x = float_of_int x *. r.Workflow.scale /. 1e6 in
      let a = r.Workflow.analysis in
      let m = Option.get r.Workflow.measured in
      Printf.printf
        "%dx%-4d %9.2f %9.2f %9.2f %9.2f | %8.2f %8.2f %8.2f %9.2f %9.2f \
         %7.0f  (%s-bound)\n"
        tile tile
        (sc (Stats.total_issued total))
        (sc total.Stats.mads)
        (sc total.Stats.smem_accesses)
        (sc total.Stats.gmem_accesses)
        (1e3 *. a.Model.totals.Component.instruction)
        (1e3 *. a.Model.totals.Component.shared)
        (1e3 *. a.Model.totals.Component.global)
        (1e3 *. a.Model.predicted_seconds)
        (1e3 *. m.Gpu_timing.Engine.seconds)
        (2.0 *. (1024.0 ** 3.0) /. m.Gpu_timing.Engine.seconds /. 1e9)
        (Component.short_name a.Model.bottleneck))
    [ 8; 16; 32 ];
  Printf.printf
    "paper 4a: instr 47.0/41.7/38.8M, MAD 33.55M, smem ~34.3M, gmem \
     4.75/2.65/1.61M\n";
  Printf.printf
    "paper 4b: instr 5.2/4.6/4.6 ms, shared 4.0/3.9/5.0 ms, global \
     4.4/2.5/1.5 ms; measured 6.0/5.4/5.6 ms = 356/399/397 GFLOPS; 8 and \
     16 instruction-bound, 32 shared-memory-bound\n"

(* --- Figures 5-8: cyclic reduction --------------------------------------- *)

let fig5 () =
  header "Figure 5" "cyclic reduction communication and conflict degrees";
  Printf.printf
    "forward step s accesses shared memory with a stride of 2^s words:\n";
  Printf.printf "%-6s %-12s %-14s %-16s\n" "step" "stride" "16 banks"
    "17 banks (prime)";
  List.iter
    (fun s ->
      let stride = 1 lsl s in
      let addresses = Array.init 16 (fun t -> Some (4 * stride * t)) in
      Printf.printf "%-6d %-12d %-14d %-16d\n" s stride
        (Gpu_mem.Bank.conflict_degree ~banks:16 addresses)
        (Gpu_mem.Bank.conflict_degree ~banks:17 addresses))
    [ 1; 2; 3; 4; 5 ];
  Printf.printf
    "paper: 2-way at step 1, 4-way at step 2, 8-way at step 3...; a prime \
     bank count removes all of them (Section 5.2 proposal)\n"

let cr_reports =
  Memo.once (fun () ->
      let cr padded =
        Workflow.analyze ~measure:true (Tridiag.input ~nsys:512 ~n:512 ~padded)
      in
      (cr false, cr true))

let fig6 () =
  header "Figure 6" "per-step breakdown, CR vs CR-NBC (512 systems x 512 \
                     equations; stages 0-8 = load + forward reduction)";
  let show name (r : Workflow.report) =
    Printf.printf "%s:\n%-6s %6s %9s %9s %9s  %s\n" name "stage" "warps"
      "instr ms" "shared ms" "global ms" "bottleneck";
    List.iteri
      (fun idx (st : Model.stage_analysis) ->
        if idx <= 8 then
          Printf.printf "%-6d %6d %9.4f %9.4f %9.4f  %s\n" idx
            st.Model.active_warps
            (1e3 *. st.Model.times.Component.instruction)
            (1e3 *. st.Model.times.Component.shared)
            (1e3 *. st.Model.times.Component.global)
            (Component.short_name st.Model.bottleneck))
      r.Workflow.analysis.Model.stages
  in
  let cr, nbc = cr_reports () in
  show "CR" cr;
  show "CR-NBC" nbc;
  Printf.printf
    "paper: CR is global-bound in step 0, instruction-bound in step 1, \
     shared-bound from step 2 on; CR-NBC is instruction-bound everywhere; \
     warps fall 8, 8, 4, 2, 1...\n"

let fig7 () =
  header "Figure 7" "sustained shared bandwidth and transactions per CR \
                     step";
  let cr, _ = cr_reports () in
  let stages = Array.of_list cr.Workflow.analysis.Model.stages in
  Printf.printf "%-6s %10s %15s %12s\n" "step" "BW GB/s" "txns(conflict)"
    "txns(ideal)";
  List.iter
    (fun idx ->
      let s = Stats.stage cr.Workflow.stats idx in
      Printf.printf "%-6d %10.0f %15.0f %12.0f\n" idx
        stages.(idx).Model.smem_bandwidth
        (float_of_int s.Stats.smem_txns *. cr.Workflow.scale)
        (float_of_int s.Stats.smem_ideal_txns *. cr.Workflow.scale))
    [ 1; 2; 3; 4; 5; 6 ];
  Printf.printf
    "paper 7a: 1029 / 723 / 470 / 330 GB/s for steps 1/2/3/4+ (fewer \
     active warps each step)\n";
  Printf.printf
    "paper 7b: with conflicts the transaction count stays flat (139264) \
     instead of halving each step\n"

let fig8 () =
  header "Figure 8" "CR vs CR-NBC, model vs timing simulator";
  let cr, nbc = cr_reports () in
  let show name (r : Workflow.report) =
    let m = Option.get r.Workflow.measured in
    Printf.printf "%-8s predicted %6.3f ms   measured %6.3f ms   (model \
                   error %+5.1f%%)\n"
      name
      (1e3 *. r.Workflow.analysis.Model.predicted_seconds)
      (1e3 *. m.Gpu_timing.Engine.seconds)
      (100.0 *. Option.get (Workflow.prediction_error r))
  in
  show "CR" cr;
  show "CR-NBC" nbc;
  let measured (r : Workflow.report) =
    (Option.get r.Workflow.measured).Gpu_timing.Engine.seconds
  in
  Printf.printf "measured speedup from padding: %.2fx\n"
    (measured cr /. measured nbc);
  Printf.printf
    "paper: measured 0.757 -> 0.468 ms (1.6x); simulated 0.796 -> 0.434 \
     ms, within 7%%\n"

(* --- Figures 9-12: SpMV --------------------------------------------------- *)

let qcd = Memo.once (fun () -> Spmv.qcd_like ())

let fig9 () =
  header "Figure 9" "ELL and BELL storage layouts (12x12 example)";
  let m = Spmv.generate ~block_rows:4 ~offsets:[ 0; 1 ] () in
  let n = Spmv.rows m in
  let dense = Array.make_matrix n n false in
  let k = Spmv.k_blocks m in
  for r = 0 to m.Spmv.block_rows - 1 do
    for ki = 0 to k - 1 do
      let c = m.Spmv.block_cols.((r * k) + ki) in
      for i = 0 to 2 do
        for j = 0 to 2 do
          dense.((3 * r) + i).((3 * c) + j) <- true
        done
      done
    done
  done;
  Printf.printf "sparsity pattern (x = nonzero, 3x3 blocks):\n";
  Array.iter
    (fun row ->
      Array.iter (fun b -> print_string (if b then "x" else ".")) row;
      print_newline ())
    dense;
  Printf.printf
    "ELL: %d entries/row, stored column-major (thread = row, coalesced)\n"
    (k * 3);
  Printf.printf
    "BELL: %d blocks/block-row, 1 column index per 9 entries, interleaved \
     so thread = block-row stays coalesced\n" k

let fig10 () =
  header "Figure 10" "vector transaction sharing, straight vs interleaved \
                      (2-thread issue, 8-byte transactions)";
  let cfg = { Gpu_mem.Coalesce.group = 2; min_segment = 8; max_segment = 8 } in
  let count pairs =
    List.fold_left
      (fun acc (a, b) ->
        acc
        + Gpu_mem.Coalesce.count
            (Gpu_mem.Coalesce.group_transactions cfg ~width:4
               [| Some a; Some b |]))
      0 pairs
  in
  let straight = [ (0, 24); (4, 28); (8, 32); (12, 36); (16, 40); (20, 44) ] in
  let interleaved = [ (0, 4); (8, 12); (16, 20); (24, 28); (32, 36); (40, 44) ] in
  Printf.printf "straightforward storage: %d transactions for 12 gathers\n"
    (count straight);
  Printf.printf "interleaved storage:     %d transactions for 12 gathers\n"
    (count interleaved);
  Printf.printf
    "paper: interleaving moves paired gathers into shared transactions\n"

let fig11a () =
  header "Figure 11a" "bytes per matrix entry at transaction granularities \
                       32/16/4 B (QCD-like matrix)";
  let m = qcd () in
  Printf.printf "%-10s %22s %22s %22s\n" "" "granularity 32"
    "granularity 16" "granularity 4";
  Printf.printf "%-10s %7s %7s %6s %8s %7s %6s %8s %7s %6s\n" "format"
    "matrix" "index" "vec" "matrix" "index" "vec" "matrix" "index" "vec";
  List.iter
    (fun fmt ->
      Printf.printf "%-10s" (Spmv.format_name fmt);
      List.iter
        (fun g ->
          let t = Spmv.bytes_per_entry ~granularity:g m fmt in
          Printf.printf " %7.2f %7.2f %6.2f" t.Spmv.matrix_bytes
            t.Spmv.index_bytes t.Spmv.vector_bytes)
        [ 32; 16; 4 ];
      print_newline ())
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ];
  Printf.printf
    "paper vector bytes: ELL 6.69/4.55/2.33, BELL+IM 4.55/3.63/2.01, \
     BELL+IMIV 4.00/1.33/1.33 (our interleaving coalesces fully already \
     at 32 B)\n"

let spmv_reports =
  Memo.once (fun () ->
      let m = qcd () in
      List.map
        (fun fmt -> (fmt, Workflow.analyze ~measure:true (Spmv.input m fmt)))
        [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ])

let fig11b () =
  header "Figure 11b" "SpMV: model components, measured time, and the \
                       16-byte-granularity what-if";
  let m = qcd () in
  let seg16 = Spec.with_min_segment 16 spec in
  List.iter
    (fun (fmt, (r : Workflow.report)) ->
      let a = r.Workflow.analysis in
      let meas = Option.get r.Workflow.measured in
      let r16 = Workflow.analyze ~spec:seg16 (Spmv.input m fmt) in
      Printf.printf
        "%-10s instr %6.4f  shared %6.4f  global %6.4f ms | pred %6.4f  \
         meas %6.4f ms (%s-bound) | 16B txns: pred %6.4f ms\n"
        (Spmv.format_name fmt)
        (1e3 *. a.Model.totals.Component.instruction)
        (1e3 *. a.Model.totals.Component.shared)
        (1e3 *. a.Model.totals.Component.global)
        (1e3 *. a.Model.predicted_seconds)
        (1e3 *. meas.Gpu_timing.Engine.seconds)
        (Component.short_name a.Model.bottleneck)
        (1e3 *. r16.Workflow.analysis.Model.predicted_seconds))
    (spmv_reports ());
  Printf.printf
    "paper: all three formats global-memory bound within 5%%; a 16-byte \
     transaction granularity would improve each\n"

let fig12 () =
  header "Figure 12" "SpMV GFLOPS, with and without the texture cache \
                      model";
  let m = qcd () in
  List.iter
    (fun (fmt, (r : Workflow.report)) ->
      let p = r.Workflow.analysis.Model.predicted_seconds in
      let pc = Spmv.cached_prediction r m fmt in
      Printf.printf "%-10s %6.1f GFLOPS   +cache %6.1f GFLOPS (vector hit \
                     rate %.2f)\n"
        (Spmv.format_name fmt) (Spmv.gflops m p) (Spmv.gflops m pc)
        (Spmv.vector_cache_hit_rate m fmt))
    (spmv_reports ());
  Printf.printf
    "paper: 15.9 / 23.4 / 33.7 GFLOPS uncached; 23.4 / 32.0 / 37.7 \
     cached; BELL+IMIV+Cache is 18%% over the prior best BELL+IM+Cache; \
     BELL+IMIV beats BELL+IM+Cache even uncached\n"

(* --- Architectural what-ifs (Sections 5.1-5.3) ---------------------------- *)

let whatif () =
  header "What-if" "architectural improvements the paper argues for";
  (* the baseline against one variant, both on the same input *)
  let compare title input variant =
    Printf.printf "%s\n%s\n" title
      (Fmt.str "%a" Whatif.pp
         (Whatif.run
            (fun spec -> Workflow.analyze ~spec input)
            [ ("baseline", spec); ("variant", variant) ]))
  in
  (* the matmul rows sample two blocks, not the workload's four *)
  let matmul tile =
    { (Matmul.input ~n:1024 ~tile) with Workflow.sample = Some 2 }
  in
  compare "matmul 8x8, 16 resident blocks (5.1):" (matmul 8)
    (Spec.with_max_blocks 16 spec);
  compare "matmul 32x32, doubled registers+smem (5.1):" (matmul 32)
    (Spec.with_smem 32768 (Spec.with_registers 32768 spec));
  compare "cyclic reduction, 17 banks (5.2):"
    (Tridiag.input ~nsys:512 ~n:512 ~padded:false)
    (Spec.with_banks 17 spec);
  compare "SpMV ELL, 16-byte transactions (5.3):"
    (Spmv.input (qcd ()) Spmv.Ell)
    (Spec.with_min_segment 16 spec)

(* --- Extras: the model applied to further data-parallel primitives -------- *)

let extras () =
  header "Extras" "reduction, scan and transpose under the model (not in \
                   the paper; the library as a downstream user would use \
                   it)";
  let show name input =
    let r = Workflow.analyze ~measure:true input in
    let a = r.Workflow.analysis in
    let meas =
      match r.Workflow.measured with
      | Some m -> Printf.sprintf "%8.4f" (1e3 *. m.Gpu_timing.Engine.seconds)
      | None -> "       -"
    in
    Printf.printf
      "%-22s pred %8.4f ms  meas %s ms  %-18s conflicts %5.2fx coalescing \
       %4.0f%%\n"
      name
      (1e3 *. a.Model.predicted_seconds)
      meas
      (Component.short_name a.Model.bottleneck ^ "-bound")
      a.Model.bank_conflict_penalty
      (100.0 *. a.Model.coalescing_efficiency)
  in
  show "reduce/interleaved"
    (Gpu_workloads.Reduce.input ~blocks:4096 Gpu_workloads.Reduce.Interleaved);
  show "reduce/sequential"
    (Gpu_workloads.Reduce.input ~blocks:4096 Gpu_workloads.Reduce.Sequential);
  show "scan (1M elements)" (Gpu_workloads.Scan.input ~blocks:8192 ());
  show "transpose/naive"
    (Gpu_workloads.Transpose.input ~n:1024 Gpu_workloads.Transpose.Naive);
  show "transpose/tiled"
    (Gpu_workloads.Transpose.input ~n:1024 Gpu_workloads.Transpose.Tiled);
  show "transpose/padded"
    (Gpu_workloads.Transpose.input ~n:1024
       Gpu_workloads.Transpose.Tiled_padded);
  show "nbody (15360 bodies)" (Gpu_workloads.Nbody.input ~n:15360 ())

(* --- Ablation: sensitivity to the timing calibration ----------------------- *)

let ablation () =
  header "Ablation" "how the matmul-16 prediction and measurement move \
                     with the timing-simulator calibration constants";
  let variants =
    [
      ("baseline", spec);
      ("alu latency 16", Spec.with_name "abl alu16" { spec with Spec.alu_latency = 16 });
      ("alu latency 32", Spec.with_name "abl alu32" { spec with Spec.alu_latency = 32 });
      ("smem latency 80", Spec.with_name "abl smem80" { spec with Spec.smem_latency = 80 });
      ("no smem replay hold",
       Spec.with_name "abl norep" { spec with Spec.smem_replay_cycles = 0.0 });
      ("gmem latency 1100",
       Spec.with_name "abl gmem1100" { spec with Spec.gmem_latency = 1100 });
    ]
  in
  let input = Matmul.input ~n:1024 ~tile:16 in
  List.iter
    (fun (name, dev) ->
      let r = Workflow.analyze ~spec:dev ~measure:true input in
      let m = Option.get r.Workflow.measured in
      Printf.printf "%-22s pred %6.2f ms  meas %6.2f ms  (%s-bound)\n" name
        (1e3 *. r.Workflow.analysis.Model.predicted_seconds)
        (1e3 *. m.Gpu_timing.Engine.seconds)
        (Component.short_name r.Workflow.analysis.Model.bottleneck))
    variants;
  Printf.printf
    "the prediction is stable (matmul's 16 warps saturate every pipeline \
     variant, and the model re-fits its tables per device), while the \
     measurement moves with effects the model deliberately abstracts — \
     e.g. a doubled DRAM latency stretches the A-operand stalls the model \
     assumes hidden\n"

(* --- Atomic contention (DESIGN §15) ---------------------------------------- *)

(* The fourth cost class on its three atomic-bound workloads: sweep the
   contention knob of each (histogram skew, degree hub, reduce variant)
   and print the measured contention penalty, the atomic component's
   share of the predicted time, and the model-vs-engine agreement. *)
let atomic () =
  header "Atomic" "atomic contention: penalty, component share, model vs \
                   engine (DESIGN §15)";
  let module H = Gpu_workloads.Histogram in
  let module D = Gpu_workloads.Degree in
  let module R = Gpu_workloads.Reduce in
  let row name input =
    let r = Workflow.analyze ~measure:true input in
    let a = r.Workflow.analysis in
    let t = a.Model.totals in
    let pen =
      Stats.atomic_contention_penalty (Stats.total r.Workflow.stats)
    in
    let total =
      t.Component.instruction +. t.Component.shared +. t.Component.atomic
      +. t.Component.global
    in
    let err =
      match Workflow.measured_seconds r with
      | Some m -> 100.0 *. (a.Model.predicted_seconds -. m) /. m
      | None -> nan
    in
    Printf.printf
      "%-20s penalty %6.2fx   atomic %7.4f ms (%3.0f%% of components)   \
       pred %7.4f ms   err %+6.1f%%   %s\n"
      name pen
      (1e3 *. t.Component.atomic)
      (100.0 *. t.Component.atomic /. total)
      (1e3 *. a.Model.predicted_seconds)
      err
      (Component.short_name a.Model.bottleneck)
  in
  List.iter
    (fun skew ->
      row
        (Printf.sprintf "histogram skew=%.1f" skew)
        (H.input ~skew ~blocks:256 ()))
    [ 0.0; 0.5; 0.8; 1.0 ];
  List.iter
    (fun hub ->
      row (Printf.sprintf "degree hub=%.1f" hub) (D.input ~hub ~blocks:256 ()))
    [ 0.0; 0.3; 1.0 ];
  row "reduce tree" (R.input ~blocks:512 R.Sequential);
  row "reduce atomic" (R.input ~blocks:512 R.Atomic);
  Printf.printf
    "committed reference numbers: EXPERIMENTS.md, Atomic contention\n"

(* --- Device fleet sweep (DESIGN §16) --------------------------------------- *)

(* One workload across every built-in device profile: per-device
   predicted time, speedup over the GT200 baseline, and the bottleneck
   classification — the numbers behind [gpuperf sweep-devices].  The
   interesting output is where the bottleneck SHIFTS: matmul 16x16 is
   instruction-pipeline-bound on GT200 but global-memory-bound on the
   volta/ampere-like profiles (compute grew ~20x, bandwidth ~6-10x). *)
let devices () =
  header "Devices" "one workload across the device fleet: predicted time, \
                    speedup, bottleneck shifts (DESIGN §16)";
  let sweep title input =
    Printf.printf "%s\n" title;
    List.iter
      (fun (o : Whatif.outcome) ->
        let a = o.report.Workflow.analysis in
        Printf.printf
          "  %-14s pred %9.4f ms   speedup %6.2fx   %-22s %s\n" o.device
          (1e3 *. a.Model.predicted_seconds)
          o.speedup
          (Component.name a.Model.bottleneck)
          (if o.shifted then "<- shift" else ""))
      (Whatif.run (fun spec -> Workflow.analyze ~spec input) Spec.fleet)
  in
  sweep "matmul 16x16, n=1024:" (Matmul.input ~n:1024 ~tile:16);
  sweep "histogram skew=0.8, 256 blocks:"
    (Gpu_workloads.Histogram.input ~skew:0.8 ~blocks:256 ());
  Printf.printf
    "committed reference numbers: EXPERIMENTS.md, Device fleet\n"

(* --- Validation summary ----------------------------------------------------- *)

let validation () =
  header "Validation" "model vs timing simulator across every workload \
                       (the paper claims 5-15% on its three case studies)";
  let row name (r : Workflow.report) =
    let a = r.Workflow.analysis in
    let m = Option.get r.Workflow.measured in
    Printf.printf
      "%-24s pred %8.4f ms   bound %8.4f ms   meas %8.4f ms   err %+6.1f%%\n"
      name
      (1e3 *. a.Model.predicted_seconds)
      (1e3 *. a.Model.no_overlap_seconds)
      (1e3 *. m.Gpu_timing.Engine.seconds)
      (100.0 *. Option.get (Workflow.prediction_error r))
  in
  let measured input = Workflow.analyze ~measure:true input in
  List.iter
    (fun tile ->
      row
        (Printf.sprintf "matmul %dx%d" tile tile)
        (measured (Matmul.input ~n:1024 ~tile)))
    [ 8; 16; 32 ];
  let cr, nbc = cr_reports () in
  row "cyclic reduction" cr;
  row "cyclic reduction NBC" nbc;
  List.iter
    (fun (fmt, r) -> row ("spmv " ^ Spmv.format_name fmt) r)
    (spmv_reports ());
  row "reduce interleaved"
    (measured
       (Gpu_workloads.Reduce.input ~blocks:4096
          Gpu_workloads.Reduce.Interleaved));
  row "reduce sequential"
    (measured
       (Gpu_workloads.Reduce.input ~blocks:4096
          Gpu_workloads.Reduce.Sequential));
  row "scan" (measured (Gpu_workloads.Scan.input ~blocks:8192 ()));
  List.iter
    (fun v ->
      row
        ("transpose " ^ Gpu_workloads.Transpose.variant_name v)
        (measured (Gpu_workloads.Transpose.input ~n:1024 v)))
    Gpu_workloads.Transpose.[ Naive; Tiled; Tiled_padded ];
  Printf.printf
    "err = (pred - meas) / meas; pred assumes perfect overlap (the paper's \
     model), bound assumes none — measured should fall between them when \
     the component accounting is right\n"

(* --- Driver ---------------------------------------------------------------- *)

let experiments =
  [
    ("table1", table1);
    ("fig2_left", fig2_left);
    ("fig2_right", fig2_right);
    ("fig3", fig3);
    ("table2", table2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11a", fig11a);
    ("fig11b", fig11b);
    ("fig12", fig12);
    ("whatif", whatif);
    ("extras", extras);
    ("ablation", ablation);
    ("atomic", atomic);
    ("devices", devices);
    ("validation", validation);
  ]

(* Fan the chosen experiments out over the domain pool, one per task.
   Each task writes into a domain-local buffer; buffers are replayed in
   experiment order afterwards, so parallel output is byte-identical to a
   serial run.  Exceptions are carried in the result so that every
   experiment's captured output still prints before the failure aborts. *)
let run_experiments chosen =
  let captured (name, f) =
    let buf = Buffer.create 4096 in
    Domain.DLS.set capture_buf (Some buf);
    let outcome =
      try
        f ();
        Ok ()
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        Error (e, bt)
    in
    Domain.DLS.set capture_buf None;
    (name, Buffer.contents buf, outcome)
  in
  let results = Pool.parallel_map captured chosen in
  List.iter
    (fun (_, out, _) ->
      Stdlib.print_string out;
      flush stdout)
    results;
  List.iter
    (fun (name, _, outcome) ->
      match outcome with
      | Ok () -> ()
      | Error (e, bt) ->
        Stdlib.Printf.eprintf "bench: experiment %s failed: %s\n%!" name
          (Printexc.to_string e);
        Printexc.raise_with_backtrace e bt)
    results

let usage () =
  Stdlib.print_string
    "usage: bench/main.exe [--list] [--jobs N] [--no-cache] [EXPERIMENT...]\n"

let () =
  Tables.set_on_diag (fun d ->
      Stdlib.Printf.eprintf "%s\n%!" (Gpu_diag.Diag.render ~prefix:"bench" d));
  let picks = ref [] in
  let list_only = ref false in
  let rec parse = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ ->
      usage ();
      exit 0
    | "--list" :: rest ->
      list_only := true;
      parse rest
    | "--no-cache" :: rest ->
      Tables.set_disk_cache false;
      parse rest
    | "--jobs" :: n :: rest | "-j" :: n :: rest ->
      (match Pool.parse_jobs n with
      | Ok j -> Pool.set_jobs j
      | Error m ->
        Stdlib.Printf.eprintf "bench: --jobs: %s\n" m;
        exit 2);
      parse rest
    | name :: rest ->
      picks := name :: !picks;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then
    List.iter (fun (name, _) -> Stdlib.print_endline name) experiments
  else
    let chosen =
      match List.rev !picks with
      | [] ->
        Stdlib.Printf.printf
          "Reproducing every table and figure of 'A Quantitative \
           Performance Analysis Model for GPU Architectures' (HPCA 2011).\n";
        Stdlib.Printf.printf "%s\n%!" (Fmt.str "%a" Spec.pp spec);
        experiments
      | picks ->
        List.map
          (fun name ->
            match List.assoc_opt name experiments with
            | Some f -> (name, f)
            | None ->
              Stdlib.Printf.eprintf
                "unknown experiment %s (try --list)\n" name;
              exit 1)
          picks
    in
    run_experiments chosen
