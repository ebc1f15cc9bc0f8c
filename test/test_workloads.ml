(* Tests for the three case-study workloads (paper Section 5): functional
   correctness against CPU references, the paper's dynamic-statistics
   shapes, and the per-study bottleneck stories. *)

module Matmul = Gpu_workloads.Matmul
module Tridiag = Gpu_workloads.Tridiag
module Spmv = Gpu_workloads.Spmv
module Model = Gpu_model.Model
module Component = Gpu_model.Component
module Workflow = Gpu_model.Workflow
module Stats = Gpu_sim.Stats

let (_ : string) = Private_cache.use "workloads"

let analysis input = (Workflow.analyze input).Workflow.analysis

let rng = Random.State.make [| 2024 |]

let rand () = Gpu_sim.Value.round_f32 (Random.State.float rng 2.0 -. 1.0)

(* --- Dense matrix multiply (Section 5.1) -------------------------------- *)

let test_matmul_correct () =
  let n = 64 in
  let a = Array.init (n * n) (fun _ -> rand ()) in
  let b = Array.init (n * n) (fun _ -> rand ()) in
  let expect = Matmul.reference ~n a b in
  List.iter
    (fun tile ->
      let got = Matmul.run_simulated ~n ~tile a b in
      Array.iteri
        (fun i v ->
          if abs_float (v -. expect.(i)) > 1e-3 then
            Alcotest.failf "tile %d: c.(%d) = %g, expected %g" tile i v
              expect.(i))
        got)
    [ 8; 16; 32 ]

let test_matmul_counts () =
  (* Figure 4a at n = 1024: MADs are n^3/32 warp instructions for every
     tile size; global accesses fall 4.75M -> 2.65M -> 1.61M *)
  List.iter
    (fun (tile, gmem_millions) ->
      let r = Workflow.analyze (Matmul.input ~n:1024 ~tile) in
      let total = Stats.total r.Workflow.stats in
      let scaled x = float_of_int x *. r.Workflow.scale /. 1e6 in
      Alcotest.(check (float 0.01)) "MAD count is n^3/32" 33.554
        (scaled total.Stats.mads);
      Alcotest.(check (float 0.05))
        (Printf.sprintf "global accesses for tile %d" tile)
        gmem_millions
        (scaled total.Stats.gmem_accesses);
      (* shared accesses track MADs: the fused operand reads *)
      Alcotest.(check bool) "shared accesses near MAD count" true
        (let s = scaled total.Stats.smem_accesses in
         s > 33.0 && s < 36.0))
    [ (8, 4.75); (16, 2.65); (32, 1.61) ]

let test_matmul_occupancy () =
  (* Table 2: resident blocks 8 / 8 / 3 *)
  List.iter
    (fun (tile, blocks, warps) ->
      let r = Workflow.analyze (Matmul.input ~n:1024 ~tile) in
      let o = r.Workflow.analysis.Model.occupancy in
      Alcotest.(check int)
        (Printf.sprintf "tile %d resident blocks" tile)
        blocks o.Gpu_hw.Occupancy.blocks;
      Alcotest.(check int)
        (Printf.sprintf "tile %d active warps" tile)
        warps o.Gpu_hw.Occupancy.active_warps)
    [ (8, 8, 16); (16, 8, 16); (32, 3, 6) ]

let test_matmul_bottlenecks () =
  (* Figure 4b: 8 and 16 instruction-bound; 32 shifts to shared memory *)
  let bottleneck tile =
    Component.name
      (analysis (Matmul.input ~n:1024 ~tile)).Model.bottleneck
  in
  Alcotest.(check string) "8x8" "instruction pipeline" (bottleneck 8);
  Alcotest.(check string) "16x16" "instruction pipeline" (bottleneck 16);
  Alcotest.(check string) "32x32" "shared memory" (bottleneck 32)

let test_matmul_16_fastest () =
  let time tile =
    (analysis (Matmul.input ~n:1024 ~tile)).Model
      .predicted_seconds
  in
  let t8 = time 8 and t16 = time 16 and t32 = time 32 in
  Alcotest.(check bool) "16x16 beats 8x8" true (t16 < t8);
  Alcotest.(check bool) "16x16 beats 32x32" true (t16 < t32)

(* --- Tridiagonal solver (Section 5.2) ------------------------------------ *)

let test_cr_correct () =
  let n = 128 in
  let systems = List.init 6 (fun _ -> Tridiag.random_system ~n rng) in
  List.iter
    (fun padded ->
      let xs = Tridiag.run_simulated ~n ~padded systems in
      List.iteri
        (fun si (a, b, c, d) ->
          let expect = Tridiag.reference_thomas ~n a b c d in
          Array.iteri
            (fun i xe ->
              let got = xs.((si * n) + i) in
              if abs_float (got -. xe) /. (abs_float xe +. 1.0) > 1e-3 then
                Alcotest.failf "padded=%b system %d eq %d: %g vs %g" padded
                  si i got xe)
            expect)
        systems)
    [ false; true ]

let prop_cr_matches_thomas =
  QCheck.Test.make ~count:12 ~name:"cyclic reduction solves random systems"
    (QCheck.make
       QCheck.Gen.(int_bound 10_000 >|= fun seed -> seed))
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let n = 32 in
      let sys = Tridiag.random_system ~n rng in
      let xs = Tridiag.run_simulated ~n ~padded:(seed land 1 = 1) [ sys ] in
      let a, b, c, d = sys in
      let expect = Tridiag.reference_thomas ~n a b c d in
      Array.for_all Fun.id
        (Array.mapi
           (fun i xe ->
             abs_float (xs.(i) -. xe) /. (abs_float xe +. 1.0) < 1e-3)
           expect))

let test_cr_conflicts () =
  (* CR suffers doubling conflicts; padding removes them (Figure 7) *)
  let penalty padded =
    (analysis (Tridiag.input ~nsys:512 ~n:512 ~padded)).Model
      .bank_conflict_penalty
  in
  Alcotest.(check bool) "CR conflicts severe" true (penalty false > 3.0);
  Alcotest.(check bool) "padding removes conflicts" true (penalty true < 1.5)

let test_cr_stage_story () =
  (* Figure 6a: stage 0 global-bound; later forward steps shared-bound;
     warps drop 8 -> 4 -> 2 -> 1 *)
  let r = Workflow.analyze (Tridiag.input ~nsys:512 ~n:512 ~padded:false) in
  let stages = Array.of_list r.Workflow.analysis.Model.stages in
  Alcotest.(check string) "stage 0 global" "global memory"
    (Component.name stages.(0).Model.bottleneck);
  Alcotest.(check string) "stage 3 shared" "shared memory"
    (Component.name stages.(3).Model.bottleneck);
  Alcotest.(check int) "stage 1: 8 warps" 8 stages.(1).Model.active_warps;
  Alcotest.(check int) "stage 2: 4 warps" 4 stages.(2).Model.active_warps;
  Alcotest.(check int) "stage 4: 1 warp" 1 stages.(4).Model.active_warps;
  Alcotest.(check bool) "stages serialized (one resident block)" true
    r.Workflow.analysis.Model.serialized

let test_cr_nbc_shifts_bottleneck () =
  (* Figure 6b: with no conflicts every solve step is instruction-bound *)
  let r = Workflow.analyze (Tridiag.input ~nsys:512 ~n:512 ~padded:true) in
  let stages = Array.of_list r.Workflow.analysis.Model.stages in
  List.iter
    (fun idx ->
      Alcotest.(check string)
        (Printf.sprintf "stage %d instruction-bound" idx)
        "instruction pipeline"
        (Component.name stages.(idx).Model.bottleneck))
    [ 1; 2; 3; 4; 5 ]

let test_cr_nbc_faster () =
  let time padded =
    (analysis (Tridiag.input ~nsys:512 ~n:512 ~padded)).Model
      .predicted_seconds
  in
  let speedup = time false /. time true in
  Alcotest.(check bool)
    (Printf.sprintf "padding speeds CR up (%.2fx)" speedup)
    true (speedup > 1.15)

(* --- Sparse matrix-vector multiply (Section 5.3) ------------------------- *)

let small_matrix =
  Spmv.generate ~block_rows:128 ~offsets:[ 0; 1; -1; 8; -8 ] ()

let test_spmv_correct () =
  let n = Spmv.rows small_matrix in
  let x = Array.init n (fun _ -> rand ()) in
  let expect = Spmv.reference small_matrix x in
  List.iter
    (fun fmt ->
      let y = Spmv.run_simulated small_matrix fmt x in
      Array.iteri
        (fun i v ->
          if abs_float (v -. expect.(i)) /. (abs_float expect.(i) +. 1.0)
             > 1e-4
          then
            Alcotest.failf "%s: y.(%d) = %g, expected %g"
              (Spmv.format_name fmt) i v expect.(i))
        y)
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ]

let test_interleave_inverse () =
  let n = Spmv.rows small_matrix in
  let x = Array.init n float_of_int in
  let back =
    Spmv.deinterleave_vector small_matrix
      (Spmv.interleave_vector small_matrix x)
  in
  Alcotest.(check bool) "deinterleave inverts interleave" true (back = x)

(* The storage layouts by their definitions, built in matrix order (the
   library writes them in storage order): ELL entry e of row r at
   [e * n + r]; BELL block-column of block b of thread t at [b * T + t],
   entry u of that block at [(b * 9 + u) * T + t]. *)
let reference_layouts m =
  let k = Spmv.k_blocks m and n = Spmv.rows m and t_count = m.Spmv.block_rows in
  let bits = Int32.bits_of_float in
  let data = Array.make (k * 3 * n) 0l and cols = Array.make (k * 3 * n) 0l in
  let bdata = Array.make (k * 9 * t_count) 0l in
  let bcol = Array.make (k * t_count) 0l in
  for r = 0 to t_count - 1 do
    for ki = 0 to k - 1 do
      let c = m.Spmv.block_cols.((r * k) + ki) in
      bcol.((ki * t_count) + r) <- Int32.of_int c;
      for u = 0 to 8 do
        let v = bits m.Spmv.blocks.((((r * k) + ki) * 9) + u) in
        let i = u / 3 and j = u mod 3 in
        let e = (ki * 3) + j and row = (3 * r) + i in
        data.((e * n) + row) <- v;
        cols.((e * n) + row) <- Int32.of_int ((3 * c) + j);
        bdata.((((ki * 9) + u) * t_count) + r) <- v
      done
    done
  done;
  (data, cols, bdata, bcol)

let test_spmv_layouts () =
  let m = small_matrix in
  let n = Spmv.rows m in
  let x = Array.init n (fun _ -> rand ()) in
  let data, cols, bdata, bcol = reference_layouts m in
  let xw = Array.map Int32.bits_of_float x in
  let xi = Array.map Int32.bits_of_float (Spmv.interleave_vector m x) in
  let zero = Array.make n 0l in
  List.iter
    (fun (fmt, expected) ->
      let got =
        List.map
          (fun (name, b) -> (name, Gpu_sim.Memory.to_int32s b))
          (Spmv.buffers m fmt x)
      in
      let name = Spmv.format_name fmt in
      Alcotest.(check (list (pair string (array int32)))) name expected got;
      Alcotest.(check (list (pair string (array int32))))
        (name ^ ", int32 face") expected (Spmv.args m fmt x))
    [
      (Spmv.Ell, [ ("data", data); ("cols", cols); ("x", xw); ("y", zero) ]);
      ( Spmv.Bell_im,
        [ ("bdata", bdata); ("bcol", bcol); ("x", xw); ("y", zero) ] );
      ( Spmv.Bell_imiv,
        [ ("bdata", bdata); ("bcol", bcol); ("x", xi); ("y", zero) ] );
    ];
  Alcotest.(check (array int)) "ELL gathers read the ELL columns"
    (Array.map (fun c -> 4 * Int32.to_int c) cols)
    (Spmv.vector_gather_addresses m Spmv.Ell);
  (* BELL: block [b]'s component [j] is gathered for every block-row [t]
     in turn, at its block column [c = bcol.(b * T + t)]: word [3c + j] of
     the plain vector, word [j * T + c] of the interleaved one *)
  let t_count = m.Spmv.block_rows in
  let bell word =
    Array.init
      (Array.length bcol * 3)
      (fun i ->
        let b = i / (3 * t_count) and j = i / t_count mod 3 in
        let t = i mod t_count in
        4 * word j (Int32.to_int bcol.((b * t_count) + t)))
  in
  Alcotest.(check (array int)) "BELL+IM gathers read the block columns"
    (bell (fun j c -> (3 * c) + j))
    (Spmv.vector_gather_addresses m Spmv.Bell_im);
  Alcotest.(check (array int))
    "BELL+IMIV gathers read the interleaved vector"
    (bell (fun j c -> (j * t_count) + c))
    (Spmv.vector_gather_addresses m Spmv.Bell_imiv);
  (* Figure 11a's vector bytes: distinct segments per 16 consecutive
     gathers, counted here by sorting each half-warp *)
  List.iter
    (fun fmt ->
      let addrs = Spmv.vector_gather_addresses m fmt in
      let n = Array.length addrs in
      List.iter
        (fun g ->
          let segments = ref 0 in
          for h = 0 to (n - 1) / 16 do
            let half_warp = Array.sub addrs (16 * h) (min 16 (n - (16 * h))) in
            segments :=
              !segments
              + List.length
                  (List.sort_uniq compare
                     (Array.to_list (Array.map (fun a -> a / g) half_warp)))
          done;
          Alcotest.(check (float 0.))
            (Printf.sprintf "%s vector bytes at %d B" (Spmv.format_name fmt) g)
            (float_of_int (!segments * g) /. float_of_int (Spmv.nnz m))
            (Spmv.bytes_per_entry ~granularity:g m fmt).Spmv.vector_bytes)
        [ 32; 16; 4 ])
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ]

(* Words allocated on this domain: minor + major - promoted, as in
   test_timing's replay budget (buffers skip the minor heap). *)
let words_allocated f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. w0

(* Building a format's arguments and materializing their words (a host
   read runs each recipe once) allocates the buffers and nothing per
   entry: measured 1.03 / 0.58 / 0.58 words per stored entry (a buffer
   word is half an OCaml word).  Float and int layouts converted to boxed
   [int32] words cost 12.33 / 7.89 / 7.97. *)
let test_spmv_buffer_allocation () =
  let m = Spmv.generate ~block_rows:1024 ~offsets:Spmv.qcd_offsets () in
  let x = Array.make (Spmv.rows m) 1.0 in
  let materialized fmt () =
    let args = Spmv.buffers m fmt x in
    List.iter (fun (_, b) -> ignore (Gpu_sim.Memory.get_int b 0)) args;
    args
  in
  List.iter
    (fun fmt ->
      let words = words_allocated (materialized fmt) in
      let per_entry = words /. float_of_int (Spmv.nnz m) in
      if per_entry > 1.5 then
        Alcotest.failf "%s arguments allocate %.2f words per entry (budget 1.5)"
          (Spmv.format_name fmt) per_entry)
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ]

let qcd = Spmv.qcd_like ()

let test_spmv_traffic () =
  (* Figure 11a: BELL cuts indices to 1/9; interleaving the vector cuts
     gather traffic; finer granularity always helps *)
  let ell = Spmv.bytes_per_entry ~granularity:32 qcd Spmv.Ell in
  let im = Spmv.bytes_per_entry ~granularity:32 qcd Spmv.Bell_im in
  let imiv = Spmv.bytes_per_entry ~granularity:32 qcd Spmv.Bell_imiv in
  Alcotest.(check (float 1e-6)) "ELL index bytes" 4.0 ell.Spmv.index_bytes;
  Alcotest.(check (float 1e-3)) "BELL index bytes = 4/9" (4.0 /. 9.0)
    im.Spmv.index_bytes;
  Alcotest.(check bool) "ELL gather is the worst" true
    (ell.Spmv.vector_bytes > im.Spmv.vector_bytes);
  Alcotest.(check bool) "interleaved vector is the best" true
    (imiv.Spmv.vector_bytes < im.Spmv.vector_bytes);
  List.iter
    (fun fmt ->
      let g32 = Spmv.bytes_per_entry ~granularity:32 qcd fmt in
      let g16 = Spmv.bytes_per_entry ~granularity:16 qcd fmt in
      let g4 = Spmv.bytes_per_entry ~granularity:4 qcd fmt in
      Alcotest.(check bool)
        (Spmv.format_name fmt ^ ": finer granularity helps")
        true
        (g4.Spmv.vector_bytes <= g16.Spmv.vector_bytes +. 1e-9
         && g16.Spmv.vector_bytes <= g32.Spmv.vector_bytes +. 1e-9))
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ]

let test_spmv_bottleneck_and_ranking () =
  (* Figure 11b/12: all formats global-memory bound; ELL < BELL+IM <
     BELL+IMIV in performance *)
  let time fmt =
    let r = Workflow.analyze (Spmv.input qcd fmt) in
    Alcotest.(check string)
      (Spmv.format_name fmt ^ " is global-bound")
      "global memory"
      (Component.name r.Workflow.analysis.Model.bottleneck);
    r.Workflow.analysis.Model.predicted_seconds
  in
  let t_ell = time Spmv.Ell in
  let t_im = time Spmv.Bell_im in
  let t_imiv = time Spmv.Bell_imiv in
  Alcotest.(check bool) "BELL+IM beats ELL" true (t_im < t_ell);
  Alcotest.(check bool) "BELL+IMIV beats BELL+IM" true (t_imiv < t_im)

let test_spmv_cache_helps () =
  let hit = Spmv.vector_cache_hit_rate qcd Spmv.Ell in
  Alcotest.(check bool) "gathers have reuse" true (hit > 0.3);
  let r = Workflow.analyze (Spmv.input qcd Spmv.Ell) in
  let cached = Spmv.cached_prediction r qcd Spmv.Ell in
  Alcotest.(check bool) "cache prediction is faster" true
    (cached < r.Workflow.analysis.Model.predicted_seconds)

(* --- Additional data-parallel primitives -------------------------------- *)

module Reduce = Gpu_workloads.Reduce
module Scan = Gpu_workloads.Scan
module Transpose = Gpu_workloads.Transpose

let test_reduce_correct () =
  let xs = Array.init 4096 (fun _ -> Random.State.float rng 1.0) in
  let expect = Reduce.reference xs in
  List.iter
    (fun variant ->
      let got = Reduce.run_simulated ~threads:64 variant xs in
      let err = abs_float (got -. expect) /. expect in
      if err > 1e-4 then
        Alcotest.failf "%s: got %g, expected %g"
          (Reduce.variant_name variant) got expect)
    [ Reduce.Interleaved; Reduce.Sequential ]

let test_reduce_variants_differ () =
  (* the naive tree suffers conflicts; the sequential tree does not *)
  let penalty variant =
    (analysis (Reduce.input ~blocks:120 variant)).Model
      .bank_conflict_penalty
  in
  Alcotest.(check bool) "interleaved suffers conflicts" true
    (penalty Reduce.Interleaved > 1.5);
  Alcotest.(check bool) "sequential is conflict-free" true
    (penalty Reduce.Sequential < 1.1);
  let time variant =
    (analysis (Reduce.input ~blocks:120 variant)).Model
      .predicted_seconds
  in
  Alcotest.(check bool) "sequential predicted faster" true
    (time Reduce.Sequential < time Reduce.Interleaved)

let test_scan_correct () =
  let xs = Array.init 1024 (fun _ -> Random.State.float rng 1.0) in
  let expect = Scan.reference xs in
  let got = Scan.run_simulated ~threads:128 xs in
  Array.iteri
    (fun idx e ->
      let err = abs_float (got.(idx) -. e) /. (abs_float e +. 1.0) in
      if err > 1e-4 then
        Alcotest.failf "scan.(%d): got %g, expected %g" idx got.(idx) e)
    expect

let test_scan_single_block () =
  let xs = Array.init 128 float_of_int in
  let got = Scan.run_simulated ~threads:128 xs in
  Alcotest.(check (float 1e-3)) "last prefix" (127.0 *. 128.0 /. 2.0)
    got.(127)

let test_transpose_correct () =
  let n = 64 in
  let xs = Array.init (n * n) (fun _ -> rand ()) in
  let expect = Transpose.reference ~n xs in
  List.iter
    (fun variant ->
      let got = Transpose.run_simulated ~n variant xs in
      if got <> expect then
        Alcotest.failf "%s: wrong transpose" (Transpose.variant_name variant))
    [ Transpose.Naive; Transpose.Tiled; Transpose.Tiled_padded ]

let test_transpose_bottleneck_progression () =
  let n = 1024 in
  let report variant = analysis (Transpose.input ~n variant) in
  let naive = report Transpose.Naive in
  Alcotest.(check string) "naive is global-bound" "global memory"
    (Component.name naive.Model.bottleneck);
  Alcotest.(check bool) "naive coalescing is poor" true
    (naive.Model.coalescing_efficiency < 0.6);
  let tiled = report Transpose.Tiled in
  Alcotest.(check bool) "tiled coalesces fully" true
    (tiled.Model.coalescing_efficiency > 0.99);
  Alcotest.(check bool) "tiled suffers bank conflicts" true
    (tiled.Model.bank_conflict_penalty > 4.0);
  let padded = report Transpose.Tiled_padded in
  Alcotest.(check bool) "padding removes them" true
    (padded.Model.bank_conflict_penalty < 1.1);
  Alcotest.(check bool) "tiling beats naive by far" true
    (tiled.Model.predicted_seconds < 0.5 *. naive.Model.predicted_seconds);
  Alcotest.(check bool) "padding cuts the shared component" true
    (padded.Model.totals.Component.shared
     < 0.5 *. tiled.Model.totals.Component.shared);
  (* the model's verdict: even with 8.5x conflict inflation, the shared
     time hides under the global transfers, so padding is NOT worth it
     here — exactly the kind of call the paper built the model to make *)
  Alcotest.(check bool) "padding does not change the bottleneck" true
    (Component.name padded.Model.bottleneck = "global memory"
     && padded.Model.predicted_seconds
        <= tiled.Model.predicted_seconds +. 1e-9)

(* --- Atomic-bound workloads (DESIGN section 15) -------------------------- *)

module Histogram = Gpu_workloads.Histogram
module Degree = Gpu_workloads.Degree

let test_histogram_correct () =
  (* 4 blocks x 512 elements, skewed toward low bins to force contention *)
  let n = 4 * Histogram.elements_per_block ~threads:128 ~items:4 in
  let xs =
    Array.init n (fun i -> if i mod 3 = 0 then 0 else (i * 31) + (i / 7))
  in
  let expect = Histogram.reference ~bins:64 xs in
  let got = Histogram.run_simulated xs in
  Alcotest.(check (array int)) "counts match the reference" expect got

let contention_penalty (r : Workflow.report) =
  Stats.atomic_contention_penalty (Stats.total r.Workflow.stats)

let test_histogram_atomic_bound () =
  let r = Workflow.analyze (Histogram.input ~blocks:256 ()) in
  Alcotest.(check string) "contended histogram is atomic-bound"
    "atomic serialization"
    (Component.name r.Workflow.analysis.Model.bottleneck);
  (* the atomic contention penalty reflects the 50% skew toward bin 0 *)
  Alcotest.(check bool) "contention penalty well above 1" true
    (contention_penalty r > 2.0)

let test_histogram_skew_costs () =
  let time skew =
    (analysis (Histogram.input ~skew ~blocks:256 ())).Model
      .predicted_seconds
  in
  let uniform = time 0.0 and hot = time 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "full skew slower than uniform (%.2e vs %.2e)" hot
       uniform)
    true (hot > uniform)

let test_degree_correct () =
  let e = 4 * Degree.edges_per_block ~threads:128 ~items:4 in
  let src = Array.init e (fun i -> if i mod 4 = 0 then 0 else i * 13) in
  let dst = Array.init e (fun i -> (i * 29) + 3) in
  let expect = Degree.reference ~nodes:64 src dst in
  let got = Degree.run_simulated src dst in
  Alcotest.(check (array int)) "degrees match the reference" expect got

let test_degree_hub_contention () =
  let penalty hub =
    contention_penalty (Workflow.analyze (Degree.input ~hub ~blocks:256 ()))
  in
  let ring = penalty 0.0 and star = penalty 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "star graph serializes harder (%.2f vs %.2f)" star ring)
    true
    (star > 2.0 *. ring);
  Alcotest.(check string) "star graph is atomic-bound" "atomic serialization"
    (Component.name
       (analysis (Degree.input ~hub:1.0 ~blocks:256 ())).Model
         .bottleneck)

let test_reduce_atomic_correct () =
  (* integer-valued floats keep the i32 atomic accumulator exact *)
  let xs =
    Array.init 4096 (fun _ -> float_of_int (Random.State.int rng 100))
  in
  let expect = Reduce.reference xs in
  let got = Reduce.run_simulated ~threads:64 Reduce.Atomic xs in
  Alcotest.(check (float 1e-9)) "atomic accumulator sums exactly" expect got

let test_reduce_atomic_charged () =
  (* the single shared accumulator is full contention: the atomic variant
     must pick up an atomic charge the tree variants never see *)
  let atomic_total variant =
    (analysis (Reduce.input ~blocks:120 variant)).Model.totals
      .Component.atomic
  in
  Alcotest.(check (float 1e-12)) "tree reduce has no atomic time" 0.0
    (atomic_total Reduce.Sequential);
  Alcotest.(check bool) "atomic reduce is charged" true
    (atomic_total Reduce.Atomic > 0.0)

let test_nbody_correct () =
  let n = 256 in
  let xs = Array.init n (fun idx -> Gpu_sim.Value.round_f32 (sin (float_of_int idx))) in
  let expect = Gpu_workloads.Nbody.reference ~n xs in
  let got = Gpu_workloads.Nbody.run_simulated ~threads:64 ~n xs in
  Array.iteri
    (fun idx e ->
      let err = abs_float (got.(idx) -. e) /. (abs_float e +. 1.0) in
      if err > 2e-3 then
        Alcotest.failf "a.(%d): got %g, expected %g" idx got.(idx) e)
    expect

let test_nbody_class_iii () =
  let r = Workflow.analyze (Gpu_workloads.Nbody.input ~n:(128 * 120) ()) in
  let total = Stats.total r.Workflow.stats in
  let iii = Stats.issued_of total Gpu_isa.Instr.Class_iii in
  Alcotest.(check bool) "rsqrt-heavy inner loop" true
    (float_of_int iii /. float_of_int (Stats.total_issued total) > 0.05);
  Alcotest.(check string) "instruction-bound" "instruction pipeline"
    (Component.name r.Workflow.analysis.Model.bottleneck)

(* --- The served-workload registry ----------------------------------------- *)

module R = Gpu_workloads.Registry

(* The wire defaults the CLI, the daemon and the budget used before the
   registry existed, spelled out. *)
let wire_defaults =
  [
    ("matmul", R.Matmul { n = 1024; tile = 16 });
    ("tridiag", R.Tridiag { nsys = 512; n = 512; padded = false });
    ("spmv", R.Spmv { spmv_format = Spmv.Ell });
    ("reduce", R.Reduce { r_blocks = 512; r_atomic = false });
    ("histogram", R.Histogram { h_blocks = 256; bins = 64; skew = 0.8 });
    ("degree", R.Degree { d_blocks = 256; nodes = 64; hub = 0.3 });
  ]

let non_defaults =
  [
    R.Matmul { n = 256; tile = 8 };
    R.Tridiag { nsys = 64; n = 256; padded = true };
    R.Spmv { spmv_format = Spmv.Bell_imiv };
    R.Reduce { r_blocks = 32; r_atomic = true };
    R.Histogram { h_blocks = 16; bins = 256; skew = 0.25 };
    R.Degree { d_blocks = 8; nodes = 65536; hub = 1.0 };
  ]

let test_registry_defaults () =
  Alcotest.(check (list string)) "wire order" (List.map fst wire_defaults)
    R.names;
  List.iter
    (fun (w, expect) ->
      Alcotest.(check bool) (w ^ " defaults") true
        (R.of_fields ~workload:w [] = Ok expect))
    wire_defaults

let test_registry_roundtrip () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (R.label p ^ " survives to_fields/of_fields")
        true
        (R.of_fields ~workload:(R.name p) (R.to_fields p) = Ok p))
    (List.map snd wire_defaults @ non_defaults)

let test_registry_reduce_names () =
  let tree = R.Reduce { r_blocks = 512; r_atomic = false } in
  let atomic = R.Reduce { r_blocks = 512; r_atomic = true } in
  Alcotest.(check (list string)) "one wire name" [ "reduce"; "reduce" ]
    [ R.name tree; R.name atomic ];
  Alcotest.(check (list string)) "one ledger label per kernel"
    [ "reduce"; "reduce-atomic" ]
    [ R.label tree; R.label atomic ]

(* [labels] is stated by hand next to [label]; every parameter set's label
   must be one of them, each once. *)
let test_registry_labels () =
  Alcotest.(check (list string)) "wire order, atomic reduce after reduce"
    [ "matmul"; "tridiag"; "spmv"; "reduce"; "reduce-atomic"; "histogram";
      "degree" ]
    R.labels;
  List.iter
    (fun p ->
      Alcotest.(check bool) (R.label p ^ " is a ledger label") true
        (List.mem (R.label p) R.labels))
    (List.map snd wire_defaults @ non_defaults)

(* --- Replay schedules of the paper kernels -------------------------------- *)

(* The timing replay of each paper kernel at a reduced size, through
   [Workflow.analyze ~measure:true] on the workload's [input]: cycles and
   the four busy counters, pinned.  Matmul and CR take the homogeneous
   single-cluster replay, SpMV the heterogeneous per-cluster one, so
   together they cover both replay paths on real kernel traces; any
   change to the event queue's tie order or to a simulated transaction
   count moves them. *)
let test_paper_schedule_goldens () =
  let m = Spmv.generate ~block_rows:2048 ~offsets:Spmv.qcd_offsets () in
  List.iter
    (fun (name, input, (cycles, alu, smem, atomic, gmem)) ->
      let r = Workflow.analyze ~measure:true (input ()) in
      match r.Workflow.measured with
      | None -> Alcotest.failf "%s: no replay" name
      | Some e ->
        let module E = Gpu_timing.Engine in
        let check what want got =
          Alcotest.(check int) (name ^ " " ^ what) want got
        in
        check "cycles" cycles e.E.cycles;
        check "alu busy" alu e.E.alu_busy_cycles;
        check "smem busy" smem e.E.smem_busy_cycles;
        check "atomic busy" atomic e.E.atomic_busy_cycles;
        check "gmem busy" gmem e.E.gmem_busy_cycles)
    [
      ( "matmul-8",
        (fun () -> Matmul.input ~n:256 ~tile:8),
        (201373, 315224, 270400, 0, 109408) );
      ( "matmul-16",
        (fun () -> Matmul.input ~n:256 ~tile:16),
        (207263, 299208, 291200, 0, 65856) );
      ( "matmul-32",
        (fun () -> Matmul.input ~n:256 ~tile:32),
        (281778, 322016, 332800, 0, 46592) );
      ( "cr",
        (fun () -> Tridiag.input ~nsys:64 ~n:256 ~padded:false),
        (29449, 26410, 32795, 0, 3920) );
      ( "cr-nbc",
        (fun () -> Tridiag.input ~nsys:64 ~n:256 ~padded:true),
        (39744, 31478, 10028, 0, 3920) );
      ( "spmv-ell",
        (fun () -> Spmv.input m Spmv.Ell),
        (66319, 277248, 0, 0, 373824) );
      ( "spmv-bell+im",
        (fun () -> Spmv.input m Spmv.Bell_im),
        (91652, 67584, 0, 0, 230682) );
      ( "spmv-bell+imiv",
        (fun () -> Spmv.input m Spmv.Bell_imiv),
        (81686, 64256, 0, 0, 161716) );
    ]

(* --- Statistics face ----------------------------------------------------- *)

module Memory = Gpu_sim.Memory
module Sim = Gpu_sim.Sim
module Nbody = Gpu_workloads.Nbody

(* Every workload's [input] at a reduced size, but with distinct nonzero
   words where [input] passes zeros, so a write would show. *)
let face_inputs () =
  let words n = Memory.init n (fun i -> (i * 37) land 1023) in
  let floats n = Memory.of_floats (Array.init n (fun i -> float (i mod 7))) in
  let m = small_matrix in
  let spmv fmt = ("spmv " ^ Spmv.format_name fmt, Spmv.input m fmt) in
  let with_args (input : Workflow.input) args = { input with args } in
  let tridiag padded =
    with_args
      (Tridiag.input ~nsys:4 ~n:64 ~padded)
      [
        ("a", floats 256);
        ("b", Memory.const_float 256 1.0);
        ("c", floats 256);
        ("d", floats 256);
        ("x", words 256);
      ]
  in
  let reduce variant =
    with_args
      (Reduce.input ~blocks:4 variant)
      [
        ("input", floats (4 * Reduce.elements_per_block ~threads:128));
        ("partials", words 4);
      ]
  in
  [
    ( "matmul 16",
      with_args
        (Matmul.input ~n:64 ~tile:16)
        [ ("a", floats 4096); ("b", floats 4096); ("c", words 4096) ] );
    ("tridiag 64", tridiag false);
    ("tridiag 64 padded", tridiag true);
    spmv Spmv.Ell;
    spmv Spmv.Bell_im;
    spmv Spmv.Bell_imiv;
    ("reduce", reduce Reduce.Sequential);
    ("reduce atomic", reduce Reduce.Atomic);
    ( "histogram",
      with_args
        (Histogram.input ~blocks:4 ())
        [
          ( "input",
            Memory.init
              (4 * Histogram.elements_per_block ~threads:128 ~items:4)
              (fun i -> if i mod 5 = 0 then 0 else i * 7) );
          ("counts", words (4 * 64));
        ] );
    ( "degree",
      let e = 4 * Degree.edges_per_block ~threads:128 ~items:4 in
      with_args
        (Degree.input ~blocks:4 ())
        [
          ("src", Memory.init e (fun i -> i * 13));
          ("dst", Memory.init e (fun i -> (i * 13) + 37));
          ("counts", words (4 * 64));
        ] );
    ( "nbody",
      with_args (Nbody.input ~n:256 ()) [ ("x", floats 256); ("a", words 256) ]
    );
    ( "scan",
      with_args
        (Scan.input ~blocks:4 ())
        [ ("input", floats 512); ("output", words 512); ("sums", words 4) ] );
    ( "transpose tiled",
      with_args
        (Transpose.input ~n:64 Transpose.Tiled)
        [ ("input", floats 4096); ("output", words 4096) ] );
  ]

(* Words allocated straight into the major heap on this domain: blocks
   too large for the minor heap, such as argument buffers. *)
let major_words_allocated f =
  let direct () =
    let _, promoted, major = Gc.counters () in
    major -. promoted
  in
  let w0 = direct () in
  ignore (Sys.opaque_identity (f ()));
  direct () -. w0

(* A reduce's analysis loads no global word, so its launch gets
   layout-only memory and never runs its argument recipes: it builds none
   of its input's 131 072 words, 65 536 heap words as [Bytes].  Measured:
   about 500 direct major words in all, against 66 309 when the builders
   wrote every word up front; the bound is a quarter of the input. *)
let test_reduce_builds_no_argument () =
  let analyze () =
    Workflow.analyze (Reduce.input ~blocks:512 Reduce.Sequential)
  in
  ignore (analyze ());
  let words = major_words_allocated analyze in
  if words >= 16384. then
    Alcotest.failf "a reduce analysis allocates %.0f major words (bound \
                    16 384; its input takes 65 536)" words

let counted_only = Gpu_obs.Metrics.counter "sim.counted_only"

(* [Workflow.analyze] runs the statistics face: its statistics equal a
   values launch's on the same inputs, its traces equal that launch's
   (through [Sim.launch_result], the face the workflow calls), it adds the
   skipped warp-instructions to [sim.counted_only], and it leaves every
   argument buffer holding its input. *)
let test_statistics_face () =
  List.iter
    (fun (name, (input : Workflow.input)) ->
      let { Workflow.grid; block; args; sample; _ } = input in
      let inputs = List.map (fun (n, b) -> (n, Memory.copy b)) args in
      let copies () = List.map (fun (n, b) -> (n, Memory.copy b)) inputs in
      let before = Gpu_obs.Metrics.value counted_only in
      let report = Workflow.analyze input in
      let added = Gpu_obs.Metrics.value counted_only - before in
      List.iter2
        (fun (arg, b) (_, b0) ->
          Alcotest.(check (array int32))
            (Printf.sprintf "%s: %s untouched" name arg)
            (Memory.to_int32s b0) (Memory.to_int32s b))
        args inputs;
      let block_ids =
        Option.map (fun n -> List.init (min n grid) Fun.id) sample
      in
      let k = report.Workflow.compiled in
      let values =
        Sim.launch ~collect_trace:true ?block_ids ~grid ~block
          ~args:(copies ()) k
      in
      Alcotest.(check bool)
        (name ^ ": workflow statistics") true
        (Stats.stages report.Workflow.stats = Stats.stages values.Sim.stats);
      match
        Sim.launch_result ~collect_trace:true ?block_ids ~grid ~block
          ~args:(copies ()) k
      with
      | Error f ->
        Alcotest.fail (name ^ ": " ^ f.Sim.diag.Gpu_diag.Diag.message)
      | Ok r ->
        Alcotest.(check bool)
          (name ^ ": traces") true (r.traces = values.traces);
        Alcotest.(check bool)
          (name ^ ": statistics") true
          (Stats.stages r.stats = Stats.stages values.stats);
        Alcotest.(check int) (name ^ ": blocks") values.blocks_run r.blocks_run;
        Alcotest.(check int) (name ^ ": values face skips nothing") 0
          values.counted_only;
        Alcotest.(check int) (name ^ ": counter") r.counted_only added)
    (face_inputs ());
  (* matmul's shared-operand MADs feed only the stored results *)
  let before = Gpu_obs.Metrics.value counted_only in
  let report =
    Workflow.analyze
      { (Matmul.input ~n:64 ~tile:16) with Workflow.sample = Some 1 }
  in
  let skipped = Gpu_obs.Metrics.value counted_only - before in
  let issued = Stats.total_issued (Stats.total report.Workflow.stats) in
  Alcotest.(check bool)
    (Printf.sprintf "matmul skips most values (%d of %d)" skipped issued)
    true
    (2 * skipped > issued)

let () =
  Alcotest.run "workloads"
    [
      ( "matmul (5.1)",
        [
          Alcotest.test_case "correct" `Quick test_matmul_correct;
          Alcotest.test_case "figure 4a counts" `Quick test_matmul_counts;
          Alcotest.test_case "table 2 occupancy" `Quick
            test_matmul_occupancy;
          Alcotest.test_case "figure 4b bottlenecks" `Quick
            test_matmul_bottlenecks;
          Alcotest.test_case "16x16 fastest" `Quick test_matmul_16_fastest;
        ] );
      ( "tridiagonal (5.2)",
        [
          Alcotest.test_case "correct" `Quick test_cr_correct;
          QCheck_alcotest.to_alcotest prop_cr_matches_thomas;
          Alcotest.test_case "conflict penalty" `Quick test_cr_conflicts;
          Alcotest.test_case "figure 6a stages" `Quick test_cr_stage_story;
          Alcotest.test_case "figure 6b NBC" `Quick
            test_cr_nbc_shifts_bottleneck;
          Alcotest.test_case "NBC faster" `Quick test_cr_nbc_faster;
        ] );
      ( "primitives",
        [
          Alcotest.test_case "reduce correct" `Quick test_reduce_correct;
          Alcotest.test_case "reduce variants" `Quick
            test_reduce_variants_differ;
          Alcotest.test_case "scan correct" `Quick test_scan_correct;
          Alcotest.test_case "scan single block" `Quick
            test_scan_single_block;
          Alcotest.test_case "transpose correct" `Quick
            test_transpose_correct;
          Alcotest.test_case "transpose bottlenecks" `Quick
            test_transpose_bottleneck_progression;
          Alcotest.test_case "nbody correct" `Quick test_nbody_correct;
          Alcotest.test_case "nbody class III" `Quick test_nbody_class_iii;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "histogram correct" `Quick
            test_histogram_correct;
          Alcotest.test_case "histogram atomic-bound" `Quick
            test_histogram_atomic_bound;
          Alcotest.test_case "histogram skew costs" `Quick
            test_histogram_skew_costs;
          Alcotest.test_case "degree correct" `Quick test_degree_correct;
          Alcotest.test_case "degree hub contention" `Quick
            test_degree_hub_contention;
          Alcotest.test_case "atomic reduce correct" `Quick
            test_reduce_atomic_correct;
          Alcotest.test_case "atomic reduce charged" `Quick
            test_reduce_atomic_charged;
        ] );
      ( "spmv (5.3)",
        [
          Alcotest.test_case "correct" `Quick test_spmv_correct;
          Alcotest.test_case "interleave inverse" `Quick
            test_interleave_inverse;
          Alcotest.test_case "storage layouts" `Quick test_spmv_layouts;
          Alcotest.test_case "argument allocation budget" `Quick
            test_spmv_buffer_allocation;
          Alcotest.test_case "figure 11a traffic" `Quick test_spmv_traffic;
          Alcotest.test_case "figure 11b/12 ranking" `Quick
            test_spmv_bottleneck_and_ranking;
          Alcotest.test_case "texture cache" `Quick test_spmv_cache_helps;
        ] );
      ( "statistics face",
        [
          Alcotest.test_case "workflow equals a values launch" `Quick
            test_statistics_face;
          Alcotest.test_case "an analysis builds no unread argument" `Quick
            test_reduce_builds_no_argument;
        ] );
      ( "replay schedules",
        [
          Alcotest.test_case "paper-kernel schedule goldens" `Quick
            test_paper_schedule_goldens;
        ] );
      ( "registry",
        [
          Alcotest.test_case "wire defaults" `Quick test_registry_defaults;
          Alcotest.test_case "codec round trip" `Quick
            test_registry_roundtrip;
          Alcotest.test_case "reduce name and label" `Quick
            test_registry_reduce_names;
          Alcotest.test_case "ledger labels" `Quick test_registry_labels;
        ] );
    ]
