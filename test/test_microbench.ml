(* Tests for the microbenchmark layer: the fitted throughput tables must
   reproduce the shapes of Figure 2 (instruction throughput and shared
   bandwidth vs warps) and Figure 3 (global bandwidth vs blocks, with the
   cluster sawtooth), and one simulated warp must time exactly as the full
   block it stands for. *)

module Tables = Gpu_microbench.Tables
module Runner = Gpu_microbench.Runner
module Codegen = Gpu_microbench.Codegen
module Spec = Gpu_hw.Spec
module I = Gpu_isa.Instr

let spec = Spec.gtx285

(* Calibrated in process, never read from or written to the disk cache,
   so every case checks this build's tables and the global-memory
   counters start from nothing. *)
let tables =
  Tables.set_disk_cache false;
  Tables.for_spec spec

let test_peaks_bounded () =
  List.iter
    (fun cls ->
      let peak = Spec.peak_instruction_throughput spec cls in
      for w = 1 to 32 do
        let thr = Tables.instr_throughput tables cls ~warps:w in
        if thr > peak *. 1.02 then
          Alcotest.failf "%s at %d warps: %.2f exceeds peak %.2f"
            (I.cost_class_name cls) w thr peak
      done)
    Tables.arithmetic_classes;
  let smem_peak = Spec.peak_smem_bandwidth spec in
  for w = 1 to 32 do
    if Tables.smem_bandwidth tables ~warps:w > smem_peak *. 1.02 then
      Alcotest.failf "shared bandwidth at %d warps exceeds peak" w
  done

let test_monotone_in_warps () =
  List.iter
    (fun cls ->
      for w = 1 to 31 do
        let a = Tables.instr_throughput tables cls ~warps:w in
        let b = Tables.instr_throughput tables cls ~warps:(w + 1) in
        if b < a *. 0.98 then
          Alcotest.failf "%s throughput drops from %d to %d warps"
            (I.cost_class_name cls) w (w + 1)
      done)
    Tables.arithmetic_classes

(* Figure 2, left: class II saturates around 6 warps (pipeline depth ~24 /
   issue 4); class I needs more warps (more functional units) but reaches a
   higher peak; class IV is flat at its single-unit rate. *)
let test_figure2_left_shape () =
  let thr cls w = Tables.instr_throughput tables cls ~warps:w in
  Alcotest.(check bool) "class II saturated at 6 warps" true
    (thr I.Class_ii 6 > 0.95 *. thr I.Class_ii 32);
  Alcotest.(check bool) "class II far from peak at 2 warps" true
    (thr I.Class_ii 2 < 0.5 *. thr I.Class_ii 32);
  Alcotest.(check bool) "class I beats class II once saturated" true
    (thr I.Class_i 8 > 1.15 *. thr I.Class_ii 8);
  Alcotest.(check bool) "class I not yet saturated at 6 warps" true
    (thr I.Class_i 6 < 0.9 *. thr I.Class_i 32);
  Alcotest.(check bool) "class IV flat from one warp" true
    (thr I.Class_iv 1 > 0.9 *. thr I.Class_iv 32);
  Alcotest.(check bool) "class III tops out at half of class II" true
    (let r = thr I.Class_iii 32 /. thr I.Class_ii 32 in
     r > 0.4 && r < 0.6)

(* Figure 2, right: the shared-memory pipeline is longer than the
   arithmetic pipeline, so it needs more warps to saturate. *)
let test_figure2_right_shape () =
  let bw w = Tables.smem_bandwidth tables ~warps:w in
  Alcotest.(check bool) "rising at 6 warps" true (bw 6 < 0.85 *. bw 32);
  Alcotest.(check bool) "near saturation by 16 warps" true
    (bw 16 > 0.9 *. bw 32);
  Alcotest.(check bool) "sustained below theoretical peak" true
    (bw 32 < Spec.peak_smem_bandwidth spec);
  Alcotest.(check bool) "sustained above 70% of peak" true
    (bw 32 > 0.7 *. Spec.peak_smem_bandwidth spec)

(* Figure 3: bandwidth grows with blocks, dips when the block count stops
   being a multiple of the 10 clusters, and low transaction counts cannot
   cover the latency. *)
let test_figure3_shape () =
  let bw b = Tables.gmem_bandwidth tables ~blocks:b ~threads:256
      ~txns_per_thread:64
  in
  Alcotest.(check bool) "more blocks help initially" true (bw 10 > 3.0 *. bw 1);
  Alcotest.(check bool) "sawtooth: 31 blocks worse than 30" true
    (bw 31 < 0.85 *. bw 30);
  Alcotest.(check bool) "recovered by 40 blocks" true (bw 40 > bw 31);
  Alcotest.(check bool) "bounded by peak" true
    (bw 60 < Spec.peak_gmem_bandwidth spec);
  let low = Tables.gmem_bandwidth tables ~blocks:30 ~threads:512
      ~txns_per_thread:2
  in
  let high = Tables.gmem_bandwidth tables ~blocks:30 ~threads:512
      ~txns_per_thread:64
  in
  Alcotest.(check bool) "few transactions cannot cover latency" true
    (low < 0.8 *. high)

(* (20, 128, 32) is a configuration no other case queries. *)
let test_gmem_memoized () =
  let lookup () =
    let before = (Tables.counters ()).Tables.gmem_measurements in
    let bw =
      Tables.gmem_bandwidth tables ~blocks:20 ~threads:128 ~txns_per_thread:32
    in
    (bw, (Tables.counters ()).Tables.gmem_measurements - before)
  in
  let a, first = lookup () in
  let b, second = lookup () in
  Alcotest.(check (float 1e-9)) "same answer" a b;
  Alcotest.(check int) "first lookup measures" 1 first;
  Alcotest.(check int) "second lookup is cached" 0 second

let test_table_class_mapping () =
  (* memory and control instructions are priced at class II issue rates *)
  Alcotest.(check (float 1e-9)) "mem as class II"
    (Tables.instr_throughput tables I.Class_ii ~warps:8)
    (Tables.instr_throughput tables I.Class_mem ~warps:8);
  Alcotest.(check (float 1e-9)) "ctrl as class II"
    (Tables.instr_throughput tables I.Class_ii ~warps:8)
    (Tables.instr_throughput tables I.Class_ctrl ~warps:8)

let test_warp_clamping () =
  Alcotest.(check (float 1e-9)) "0 warps clamps to 1"
    (Tables.instr_throughput tables I.Class_ii ~warps:1)
    (Tables.instr_throughput tables I.Class_ii ~warps:0);
  Alcotest.(check (float 1e-9)) "40 warps clamps to 32"
    (Tables.instr_throughput tables I.Class_ii ~warps:32)
    (Tables.instr_throughput tables I.Class_ii ~warps:40)

(* --- one warp stands for the block ---------------------------------------- *)

(* The calibration programs at Tables' chain length and copy pair count
   and at twice them: the marginal pair of every table point. *)
type bench = Chain of I.cost_class * int | Copy of int

let chain_length = 384
let copy_pairs = 256

let benches =
  List.concat_map
    (fun cls -> [ Chain (cls, chain_length); Chain (cls, 2 * chain_length) ])
    Tables.arithmetic_classes
  @ [ Copy copy_pairs; Copy (2 * copy_pairs) ]

let bench_name = function
  | Chain (cls, n) -> Printf.sprintf "%s chain of %d" (I.cost_class_name cls) n
  | Copy n -> Printf.sprintf "shared copy of %d pairs" n

let kernel ~warps = function
  | Chain (cls, n) ->
    Runner.wrap ~param_regs:[] ~smem_bytes:0 (Codegen.instruction_chain ~cls ~n)
  | Copy n ->
    let program, smem_bytes = Codegen.shared_copy ~threads:(32 * warps) ~n in
    Runner.wrap ~param_regs:[] ~smem_bytes program

(* For each warp count: the full block's cycles (every warp simulated) and
   the one-warp path's.  As in [Tables.build], the one-warp block's trace
   serves every warp count, the copy's included. *)
let full_and_one_warp spec bench warps =
  let cooked =
    Gpu_timing.Engine.cook_warp ~spec
      (Runner.warp_trace ~spec (kernel ~warps:1 bench))
  in
  List.map
    (fun w ->
      let full =
        Runner.measure_cycles ~spec ~grid:1 ~block:(32 * w) ~args:[]
          (kernel ~warps:w bench)
      in
      (w, full, Runner.replay_warp ~warps:w cooked))
    warps

(* The copy's program changes with the warp count (its destination
   offset), but warp 0's trace does not, on any fleet profile and at
   either length: [Tables.build] simulates it once per length. *)
let test_copy_trace_shared () =
  let cases =
    List.concat_map
      (fun (name, s) ->
        List.map (fun n -> (name, s, n)) [ copy_pairs; 2 * copy_pairs ])
      Spec.fleet
  in
  let differing =
    Gpu_parallel.Pool.parallel_map
      (fun (name, s, n) ->
        let trace w = Runner.warp_trace ~spec:s (kernel ~warps:w (Copy n)) in
        let shared = trace 1 in
        List.filter_map
          (fun w ->
            if trace w = shared then None
            else
              Some
                (Printf.sprintf "%s, copy of %d pairs at %d warps" name n w))
          (List.init (Tables.max_warps - 1) (fun i -> i + 2)))
      cases
  in
  match List.concat differing with
  | [] -> ()
  | first :: _ as all ->
    Alcotest.failf "%d warp-0 traces differ from the shared one, first: %s"
      (List.length all) first

(* Every warp count on the GTX 285; on the rest of the fleet both ends,
   small counts, powers of two and an odd one.  banks17 changes bank
   conflicts and earlyrelease the engine's warp slots. *)
let test_one_warp_stands_for_block () =
  let every = List.init Tables.max_warps (fun i -> i + 1) in
  let cases =
    List.concat_map
      (fun (name, s) ->
        let warps =
          if name = "baseline" then every else [ 1; 2; 3; 8; 16; 31; 32 ]
        in
        List.map (fun b -> (name, s, b, warps)) benches)
      Spec.fleet
  in
  let runs =
    Gpu_parallel.Pool.parallel_map
      (fun (name, s, b, warps) -> ((name, b), full_and_one_warp s b warps))
      cases
  in
  List.iter
    (fun ((name, b), rows) ->
      List.iter
        (fun (w, full, one) ->
          if full <> one then
            Alcotest.failf "%s, %s at %d warps: full block %d cycles, one \
                            warp %d"
              name (bench_name b) w full one)
        rows)
    runs;
  (* The GTX 285 table, rebuilt from the full blocks' cycles by the
     marginal formula, equals the calibrated one at every point. *)
  let full b =
    Array.of_list
      (List.map (fun (_, c, _) -> c) (List.assoc ("baseline", b) runs))
  in
  let check what ~work ~short ~long w got =
    let want =
      float_of_int (work * w)
      *. spec.Spec.core_clock_ghz
      *. float_of_int spec.Spec.num_sms
      /. float_of_int (long.(w - 1) - short.(w - 1))
    in
    if got <> want then
      Alcotest.failf "%s at %d warps: table %h, full blocks %h" what w got want
  in
  List.iter
    (fun cls ->
      let short = full (Chain (cls, chain_length))
      and long = full (Chain (cls, 2 * chain_length)) in
      for w = 1 to Tables.max_warps do
        check (I.cost_class_name cls) ~work:chain_length ~short ~long w
          (Tables.instr_throughput tables cls ~warps:w)
      done)
    Tables.arithmetic_classes;
  let short = full (Copy copy_pairs) and long = full (Copy (2 * copy_pairs)) in
  for w = 1 to Tables.max_warps do
    (* each pair moves a warp's 128 read + 128 written bytes *)
    check "shared copy" ~work:(copy_pairs * 256) ~short ~long w
      (Tables.smem_bandwidth tables ~warps:w)
  done

let () =
  Alcotest.run "microbench"
    [
      ( "tables",
        [
          Alcotest.test_case "peaks bounded" `Quick test_peaks_bounded;
          Alcotest.test_case "monotone in warps" `Quick
            test_monotone_in_warps;
          Alcotest.test_case "figure 2 left shape" `Quick
            test_figure2_left_shape;
          Alcotest.test_case "figure 2 right shape" `Quick
            test_figure2_right_shape;
          Alcotest.test_case "figure 3 shape" `Quick test_figure3_shape;
          Alcotest.test_case "memoization" `Quick test_gmem_memoized;
          Alcotest.test_case "class mapping" `Quick test_table_class_mapping;
          Alcotest.test_case "warp clamping" `Quick test_warp_clamping;
        ] );
      ( "runner",
        [
          Alcotest.test_case "one warp stands for the block" `Slow
            test_one_warp_stands_for_block;
          Alcotest.test_case "one copy trace for every warp count" `Quick
            test_copy_trace_shared;
        ] );
    ]
