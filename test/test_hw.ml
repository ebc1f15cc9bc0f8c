(* Tests for the device model: peak-rate formulas (Section 4) and the
   occupancy calculator (Table 2). *)

module Spec = Gpu_hw.Spec
module Occ = Gpu_hw.Occupancy

let spec = Spec.gtx285

let close ?(tol = 0.01) name expected actual =
  if abs_float (expected -. actual) > tol *. abs_float expected then
    Alcotest.failf "%s: expected %g, got %g" name expected actual

(* --- Peak rates --------------------------------------------------------- *)

let test_peak_mad_throughput () =
  (* 8 * 1.48 GHz * 30 / 32 = 11.1 Giga instructions/s (Section 4.1); our
     core clock is the precise 1.476 GHz. *)
  close "peak MAD throughput" 11.07
    (Spec.peak_instruction_throughput spec Gpu_isa.Instr.Class_ii)

let test_peak_gflops () =
  (* 11.1 * 32 * 2 = 710.4 GFLOPS in the paper *)
  close "peak GFLOPS" 708.5 (Spec.peak_gflops spec)

let test_peak_smem_bandwidth () =
  (* 1.48 GHz * 8 * 30 * 4 B = 1420 GB/s (Section 4.2) *)
  close "peak shared bandwidth" 1417.0 (Spec.peak_smem_bandwidth spec)

let test_peak_gmem_bandwidth () =
  (* 2.484 GHz * 512 bit / 8 = 159 GB/s (Section 4.3) *)
  close "peak global bandwidth" 158.98 (Spec.peak_gmem_bandwidth spec)

let test_clusters () =
  Alcotest.(check int) "10 clusters of 3 SMs" 10 (Spec.num_clusters spec)

(* --- Occupancy: the paper's Table 2 ------------------------------------- *)

let demand ~regs ~smem =
  { Occ.threads_per_block = 64; registers_per_thread = regs;
    smem_per_block = smem }

let test_table2_8x8 () =
  let o = Occ.compute ~spec (demand ~regs:16 ~smem:348) in
  Alcotest.(check int) "register limit" 16 o.Occ.blocks_by_registers;
  Alcotest.(check int) "smem limit" 47 o.Occ.blocks_by_smem;
  Alcotest.(check int) "resident blocks" 8 o.Occ.blocks;
  Alcotest.(check int) "active warps" 16 o.Occ.active_warps;
  Alcotest.(check string) "limited by hw max" "max resident blocks"
    o.Occ.limiter

let test_table2_16x16 () =
  let o = Occ.compute ~spec (demand ~regs:30 ~smem:1088) in
  Alcotest.(check int) "register limit" 8 o.Occ.blocks_by_registers;
  Alcotest.(check int) "smem limit" 15 o.Occ.blocks_by_smem;
  Alcotest.(check int) "resident blocks" 8 o.Occ.blocks;
  Alcotest.(check int) "active warps" 16 o.Occ.active_warps

let test_table2_32x32 () =
  (* The paper prints 3 for the register limit of the 58-register kernel;
     straightforward division gives 16384 / (58 * 64) = 4.  The binding
     limit is shared memory either way, and the final occupancy matches the
     paper exactly: 3 blocks, 6 warps. *)
  let o = Occ.compute ~spec (demand ~regs:58 ~smem:4284) in
  Alcotest.(check int) "smem limit" 3 o.Occ.blocks_by_smem;
  Alcotest.(check int) "resident blocks" 3 o.Occ.blocks;
  Alcotest.(check int) "active warps" 6 o.Occ.active_warps;
  Alcotest.(check string) "limited by smem" "shared memory" o.Occ.limiter

let test_warp_limit () =
  let o =
    Occ.compute ~spec
      { Occ.threads_per_block = 256; registers_per_thread = 4;
        smem_per_block = 0 }
  in
  Alcotest.(check int) "resident blocks" 4 o.Occ.blocks;
  Alcotest.(check int) "active warps" 32 o.Occ.active_warps

let test_invalid_launches () =
  let expect_invalid name d =
    Alcotest.(check bool)
      name true
      (try
         ignore (Occ.compute ~spec d);
         false
       with Occ.Invalid_launch _ -> true)
  in
  expect_invalid "zero threads"
    { Occ.threads_per_block = 0; registers_per_thread = 1;
      smem_per_block = 0 };
  expect_invalid "block too large"
    { Occ.threads_per_block = 1024; registers_per_thread = 1;
      smem_per_block = 0 };
  expect_invalid "smem too large" (demand ~regs:1 ~smem:20000);
  expect_invalid "registers too large" (demand ~regs:300 ~smem:0)

let test_grid_limits_warps () =
  let o = Occ.compute ~spec (demand ~regs:16 ~smem:348) in
  Alcotest.(check int) "tiny grid caps active warps" 2
    (Occ.active_warps_for_grid ~spec ~grid_blocks:20 o);
  Alcotest.(check int) "large grid reaches occupancy" 16
    (Occ.active_warps_for_grid ~spec ~grid_blocks:10_000 o)

(* --- Architectural variants --------------------------------------------- *)

let test_variants () =
  let v = Spec.with_max_blocks 16 spec in
  Alcotest.(check int) "max blocks variant" 16 v.Spec.max_blocks_per_sm;
  let o = Occ.compute ~spec:v (demand ~regs:16 ~smem:348) in
  Alcotest.(check int) "16 resident blocks now possible" 16 o.Occ.blocks;
  let b = Spec.with_banks 17 spec in
  Alcotest.(check int) "prime banks" 17 b.Spec.smem_banks;
  Alcotest.(check bool) "variant names differ" true (v.Spec.name <> spec.name);
  let e = Spec.with_early_release spec in
  Alcotest.(check bool) "early release flag" true e.Spec.early_release;
  let s = Spec.with_min_segment 16 spec in
  Alcotest.(check int) "segment variant" 16 s.Spec.min_segment_bytes

(* --- Device fleet -------------------------------------------------------- *)

let test_fleet_canonical_unique () =
  (* Calibration caches are keyed by name (process-wide) and by
     [Spec.canonical] fingerprint (on disk): every fleet entry must be
     pairwise distinct in both, or two devices would share tables. *)
  let devices = Spec.fleet in
  Alcotest.(check int) "fleet size" 10 (List.length devices);
  let rec pairs = function
    | [] -> ()
    | (n1, s1) :: rest ->
      List.iter
        (fun (n2, s2) ->
          if String.equal n1 n2 then
            Alcotest.failf "duplicate device name %s" n1;
          if String.equal s1.Spec.name s2.Spec.name then
            Alcotest.failf "duplicate spec name %s" s1.Spec.name;
          if String.equal (Spec.canonical s1) (Spec.canonical s2) then
            Alcotest.failf "%s and %s share a canonical fingerprint" n1 n2)
        rest;
      pairs rest
  in
  pairs devices

let test_volta_like_peaks () =
  let v = Spec.volta_like in
  (* 64 FP32 lanes * 1.38 GHz * 80 SMs * 2 flops/MAD = 14131 GFLOPS;
     HBM2: 1.76 GHz * 4096 bit / 8 = 901 GB/s (arXiv:1804.06826) *)
  close "volta peak GFLOPS" 14131.2 (Spec.peak_gflops v);
  close "volta peak global bandwidth" 901.12 (Spec.peak_gmem_bandwidth v);
  close "volta peak shared bandwidth" 14131.2 (Spec.peak_smem_bandwidth v);
  Alcotest.(check int) "volta clusters" 40 (Spec.num_clusters v);
  Alcotest.(check int) "full-warp coalescing: 128 B gmem transactions" 128
    (Spec.gmem_transaction_bytes v);
  Alcotest.(check int) "32 banks: 128 B shared transactions" 128
    (Spec.smem_transaction_bytes v)

let test_ampere_like_peaks () =
  let a = Spec.ampere_like in
  (* 64 FP32 lanes * 1.41 GHz * 108 SMs * 2 = 19492 GFLOPS;
     2.43 GHz * 5120 bit / 8 = 1555 GB/s (arXiv:2208.11174) *)
  close "ampere peak GFLOPS" 19491.8 (Spec.peak_gflops a);
  close "ampere peak global bandwidth" 1555.2 (Spec.peak_gmem_bandwidth a);
  Alcotest.(check int) "ampere clusters" 54 (Spec.num_clusters a);
  Alcotest.(check int) "ampere 128 B shared transactions" 128
    (Spec.smem_transaction_bytes a)

let test_gt200_transaction_bytes () =
  (* the GT200 coincidence the bugfix preserved: 16 banks * 4 B =
     16 coalescing threads * 4 B = the old hard-coded 64 *)
  Alcotest.(check int) "gt200 64 B shared transactions" 64
    (Spec.smem_transaction_bytes spec);
  Alcotest.(check int) "gt200 64 B gmem transactions" 64
    (Spec.gmem_transaction_bytes spec)

(* --- Properties ---------------------------------------------------------- *)

let prop_blocks_monotone_in_registers =
  QCheck.Test.make ~count:200
    ~name:"more registers per thread never increases occupancy"
    QCheck.(pair (int_range 1 100) (int_range 1 100))
    (fun (r1, r2) ->
      let lo = min r1 r2 and hi = max r1 r2 in
      let b r = (Occ.compute ~spec (demand ~regs:r ~smem:0)).Occ.blocks in
      b hi <= b lo)

let prop_blocks_bounded =
  QCheck.Test.make ~count:200 ~name:"occupancy respects every ceiling"
    QCheck.(
      triple (int_range 1 128) (int_range 1 128) (int_range 0 16384))
    (fun (threads, regs, smem) ->
      let threads = min threads spec.Spec.max_threads_per_block in
      QCheck.assume (regs * threads <= spec.Spec.registers_per_sm);
      QCheck.assume (smem <= spec.Spec.smem_per_sm);
      let d =
        { Occ.threads_per_block = threads; registers_per_thread = regs;
          smem_per_block = smem }
      in
      let o = Occ.compute ~spec d in
      o.Occ.blocks >= 1
      && o.Occ.blocks <= spec.Spec.max_blocks_per_sm
      && o.Occ.blocks * threads <= spec.Spec.max_threads_per_sm
      && o.Occ.active_warps <= spec.Spec.max_warps_per_sm
      && (smem = 0 || o.Occ.blocks * smem <= spec.Spec.smem_per_sm)
      && o.Occ.blocks * regs * threads <= spec.Spec.registers_per_sm)

let () =
  Alcotest.run "hw"
    [
      ( "peaks",
        [
          Alcotest.test_case "MAD throughput" `Quick test_peak_mad_throughput;
          Alcotest.test_case "GFLOPS" `Quick test_peak_gflops;
          Alcotest.test_case "shared bandwidth" `Quick
            test_peak_smem_bandwidth;
          Alcotest.test_case "global bandwidth" `Quick
            test_peak_gmem_bandwidth;
          Alcotest.test_case "clusters" `Quick test_clusters;
        ] );
      ( "occupancy (Table 2)",
        [
          Alcotest.test_case "8x8 tile" `Quick test_table2_8x8;
          Alcotest.test_case "16x16 tile" `Quick test_table2_16x16;
          Alcotest.test_case "32x32 tile" `Quick test_table2_32x32;
          Alcotest.test_case "warp ceiling" `Quick test_warp_limit;
          Alcotest.test_case "invalid launches" `Quick test_invalid_launches;
          Alcotest.test_case "small grids" `Quick test_grid_limits_warps;
        ] );
      ( "variants",
        [ Alcotest.test_case "what-if constructors" `Quick test_variants ] );
      ( "fleet",
        [
          Alcotest.test_case "canonical fingerprints unique" `Quick
            test_fleet_canonical_unique;
          Alcotest.test_case "volta-like peak rates" `Quick
            test_volta_like_peaks;
          Alcotest.test_case "ampere-like peak rates" `Quick
            test_ampere_like_peaks;
          Alcotest.test_case "gt200 transaction bytes" `Quick
            test_gt200_transaction_bytes;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_blocks_monotone_in_registers; prop_blocks_bounded ] );
    ]
