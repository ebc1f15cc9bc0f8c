(* Tests for the performance model itself: component time accounting,
   bottleneck identification, stage serialization, cause diagnosis, and the
   end-to-end workflow of Figure 1. *)

module Ir = Gpu_kernel.Ir
module Model = Gpu_model.Model
module Component = Gpu_model.Component
module Workflow = Gpu_model.Workflow
module Stats = Gpu_sim.Stats

let (_ : string) = Private_cache.use "model"

let spec = Gpu_hw.Spec.gtx285

(* --- Component arithmetic ----------------------------------------------- *)

let times i s g =
  { Component.instruction = i; shared = s; atomic = 0.0; global = g }

let test_bottleneck_selection () =
  Alcotest.(check string) "instruction wins" "instruction pipeline"
    (Component.name (Component.bottleneck (times 3.0 1.0 2.0)));
  Alcotest.(check string) "shared wins" "shared memory"
    (Component.name (Component.bottleneck (times 1.0 3.0 2.0)));
  Alcotest.(check string) "global wins" "global memory"
    (Component.name (Component.bottleneck (times 1.0 2.0 3.0)));
  Alcotest.(check (float 1e-9)) "stage time is the bottleneck's" 3.0
    (Component.max_time (times 1.0 2.0 3.0))

(* --- Synthetic kernels driving each bottleneck -------------------------- *)

let analyze ?(grid = 120) ?(block = 256) kernel args =
  Workflow.analyze ~spec ~sample:2 ~grid ~block ~args kernel

let test_compute_bound_kernel () =
  (* a long dependent MAD chain with almost no memory traffic *)
  let k =
    {
      Ir.name = "burn";
      params = [ "y" ];
      shared = [];
      body =
        Ir.Local ("a", Ir.Float 1.5)
        :: List.init 256 (fun _ ->
               Ir.Assign ("a", Ir.(fmad (v "a") (f 0.999) (v "a"))))
        @ [ Ir.St_global ("y", Ir.Tid, Ir.v "a") ];
    }
  in
  let y = ("y", Gpu_sim.Memory.zeros (120 * 256)) in
  let r = analyze k [ y ] in
  Alcotest.(check string) "instruction bound" "instruction pipeline"
    (Component.name r.Workflow.analysis.Model.bottleneck);
  Alcotest.(check bool) "high density" true
    (r.Workflow.analysis.Model.computational_density > 0.8)

let test_smem_bound_kernel () =
  (* 16-way conflicted shared traffic dominates *)
  let k =
    {
      Ir.name = "conflicts";
      params = [ "y" ];
      shared = [ ("buf", 1024) ];
      body =
        [
          Ir.Let ("p", Ir.(Tid * i 16));
          Ir.Local ("a", Ir.Float 0.0);
        ]
        @ List.concat
            (List.init 64 (fun _ ->
                 [
                   Ir.Assign ("a", Ir.(v "a" +. Ld_shared ("buf", v "p")));
                   Ir.St_shared ("buf", Ir.v "p", Ir.v "a");
                 ]))
        @ [ Ir.St_global ("y", Ir.Tid, Ir.v "a") ];
    }
  in
  let y = ("y", Gpu_sim.Memory.zeros (120 * 64)) in
  let r = analyze ~block:64 k [ y ] in
  let a = r.Workflow.analysis in
  Alcotest.(check string) "shared bound" "shared memory"
    (Component.name a.Model.bottleneck);
  Alcotest.(check bool) "conflicts detected" true
    (a.Model.bank_conflict_penalty > 8.0);
  let causes = List.concat_map (fun s -> s.Model.causes) a.Model.stages in
  Alcotest.(check bool) "bank-conflict cause reported" true
    (List.exists
       (function Model.Bank_conflicts _ -> true | _ -> false)
       causes)

let test_gmem_bound_kernel () =
  (* strided (uncoalesced) streaming *)
  let k =
    {
      Ir.name = "stride";
      params = [ "x"; "y" ];
      shared = [];
      body =
        [
          Ir.Let ("gid", Ir.(imad Ctaid Ntid Tid));
          Ir.Local ("a", Ir.Float 0.0);
          Ir.For
            ( "e",
              Ir.Int 0,
              Ir.Int 16,
              [
                Ir.Assign
                  ( "a",
                    Ir.(
                      v "a"
                      +. Ld_global
                           ("x", imad (imad (v "e") Ntid (v "gid")) (i 16)
                                   (i 0))) );
              ] );
          Ir.St_global ("y", Ir.v "gid", Ir.v "a");
        ];
    }
  in
  let words = 120 * 256 * 16 * 16 in
  let x = ("x", Gpu_sim.Memory.zeros words) in
  let y = ("y", Gpu_sim.Memory.zeros (120 * 256)) in
  let r = analyze k [ x; y ] in
  let a = r.Workflow.analysis in
  Alcotest.(check string) "global bound" "global memory"
    (Component.name a.Model.bottleneck);
  Alcotest.(check bool) "poor coalescing measured" true
    (a.Model.coalescing_efficiency < 0.5);
  let causes = List.concat_map (fun s -> s.Model.causes) a.Model.stages in
  Alcotest.(check bool) "uncoalesced cause reported" true
    (List.exists
       (function Model.Uncoalesced_accesses _ -> true | _ -> false)
       causes)

(* --- Stage handling ------------------------------------------------------ *)

let barrier_kernel =
  {
    Ir.name = "stages";
    params = [ "y" ];
    shared = [ ("s", 512) ];
    body =
      [
        Ir.St_shared ("s", Ir.Tid, Ir.I2f Ir.Tid);
        Ir.Sync;
        Ir.St_shared ("s", Ir.Tid, Ir.Ld_shared ("s", Ir.Tid));
        Ir.Sync;
        Ir.St_global ("y", Ir.Tid, Ir.Ld_shared ("s", Ir.Tid));
      ];
  }

let test_stage_split () =
  let y = ("y", Gpu_sim.Memory.zeros (8 * 512)) in
  (* large shared demand: one resident block -> serialized stages *)
  let k = { barrier_kernel with Ir.shared = [ ("s", 3000) ] } in
  let r = Workflow.analyze ~spec ~grid:8 ~block:512 ~args:[ y ] k in
  let a = r.Workflow.analysis in
  Alcotest.(check int) "three stages" 3 (List.length a.Model.stages);
  Alcotest.(check bool) "serialized with one resident block" true
    a.Model.serialized;
  let sum =
    List.fold_left
      (fun acc s -> acc +. Component.max_time s.Model.times)
      0.0 a.Model.stages
  in
  Alcotest.(check (float 1e-12)) "total is the sum of stage bottlenecks" sum
    a.Model.predicted_seconds

let test_overlapped_total () =
  let y = ("y", Gpu_sim.Memory.zeros (120 * 512)) in
  let r = Workflow.analyze ~spec ~grid:120 ~block:512 ~args:[ y ]
      barrier_kernel
  in
  let a = r.Workflow.analysis in
  Alcotest.(check bool) "multiple resident blocks overlap stages" false
    a.Model.serialized;
  Alcotest.(check (float 1e-12)) "total is the max component sum"
    (Component.max_time a.Model.totals)
    a.Model.predicted_seconds

let test_measured_comparison () =
  let y = ("y", Gpu_sim.Memory.zeros (120 * 512)) in
  let r =
    Workflow.analyze ~spec ~measure:true ~sample:2 ~grid:120 ~block:512
      ~args:[ y ] barrier_kernel
  in
  match (Workflow.measured_seconds r, Workflow.prediction_error r) with
  | Some m, Some e ->
    Alcotest.(check bool) "measured time positive" true (m > 0.0);
    Alcotest.(check bool) "error is finite" true (Float.is_finite e)
  | _ -> Alcotest.fail "expected a measurement"

(* --- Degenerate model inputs (regression) -------------------------------- *)

(* NaN compares false against everything, so before the input validation a
   non-finite scale flowed through every stage time and silently
   classified the whole program as instruction-pipeline bound.  Now it is
   rejected up front. *)
let test_nonfinite_inputs_rejected () =
  let k =
    {
      Ir.name = "tiny";
      params = [ "y" ];
      shared = [];
      body = [ Ir.St_global ("y", Ir.Tid, Ir.I2f Ir.Tid) ];
    }
  in
  let compiled = Gpu_kernel.Compile.compile k in
  let occ = Workflow.occupancy_of ~spec ~block:64 compiled in
  let r =
    Gpu_sim.Sim.launch ~spec ~grid:8 ~block:64
      ~args:[ ("y", Gpu_sim.Memory.zeros (8 * 64)) ]
      compiled
  in
  let tables = Gpu_microbench.Tables.for_spec spec in
  let inputs scale =
    {
      Model.in_spec = spec;
      tables;
      stats = r.Gpu_sim.Sim.stats;
      scale;
      in_grid = 8;
      in_block = 64;
      in_occupancy = occ;
      blocks_run = r.Gpu_sim.Sim.blocks_run;
    }
  in
  (match Model.analyze_result (inputs 1.0) with
  | Ok _ -> ()
  | Error d ->
    Alcotest.failf "finite scale rejected: %s" d.Gpu_diag.Diag.message);
  List.iter
    (fun (label, scale) ->
      match Model.analyze_result (inputs scale) with
      | Error _ -> ()
      | Ok t ->
        Alcotest.failf "%s scale accepted (classified %s-bound)" label
          (Component.name t.Model.bottleneck))
    [
      ("NaN", Float.nan);
      ("infinite", Float.infinity);
      ("negative", -1.0);
    ];
  match Model.analyze (inputs Float.nan) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "analyze must raise on a NaN scale"

(* --- Spec-derived transaction bytes (regression) -------------------------- *)

(* The model used to charge shared/atomic/global traffic at a hard-coded
   64 bytes per transaction — the GT200 coincidence where both
   [smem_banks * 4] and [coalesce_threads * 4] equal 64.  The charge is
   now derived from the spec, so a 32-bank device pays 128-byte shared
   transactions: analyzing identical statistics with the same tables but
   a 32-bank [in_spec] must exactly double the shared and atomic stage
   times, and leave the instruction time untouched. *)
let test_spec_derived_transaction_bytes () =
  Alcotest.(check int)
    "GT200 shared transactions are 64 bytes" 64
    (Gpu_hw.Spec.smem_transaction_bytes spec);
  Alcotest.(check int)
    "GT200 coalesced transactions are 64 bytes" 64
    (Gpu_hw.Spec.gmem_transaction_bytes spec);
  Alcotest.(check int)
    "32-bank shared transactions are 128 bytes" 128
    (Gpu_hw.Spec.smem_transaction_bytes Gpu_hw.Spec.volta_like);
  let k =
    {
      Ir.name = "smem_traffic";
      params = [ "y" ];
      shared = [ ("buf", 1024) ];
      body =
        [
          Ir.Let ("p", Ir.(Tid * i 16));
          Ir.Local ("a", Ir.Float 0.0);
        ]
        @ List.concat
            (List.init 16 (fun _ ->
                 [
                   Ir.Assign ("a", Ir.(v "a" +. Ld_shared ("buf", v "p")));
                   Ir.St_shared ("buf", Ir.v "p", Ir.v "a");
                 ]))
        @ [ Ir.St_global ("y", Ir.Tid, Ir.v "a") ];
    }
  in
  let compiled = Gpu_kernel.Compile.compile k in
  let occ = Workflow.occupancy_of ~spec ~block:64 compiled in
  let r =
    Gpu_sim.Sim.launch ~spec ~grid:8 ~block:64
      ~args:[ ("y", Gpu_sim.Memory.zeros (8 * 64)) ]
      compiled
  in
  let tables = Gpu_microbench.Tables.for_spec spec in
  let analyze_with in_spec =
    Model.analyze
      {
        Model.in_spec;
        tables;
        stats = r.Gpu_sim.Sim.stats;
        scale = 1.0;
        in_grid = 8;
        in_block = 64;
        in_occupancy = occ;
        blocks_run = r.Gpu_sim.Sim.blocks_run;
      }
  in
  let base = analyze_with spec in
  let wide = analyze_with (Gpu_hw.Spec.with_banks 32 spec) in
  List.iter2
    (fun (b : Model.stage_analysis) (w : Model.stage_analysis) ->
      Alcotest.(check (float 1e-12))
        "32 banks charge exactly twice the shared seconds"
        (2.0 *. b.Model.times.Component.shared)
        w.Model.times.Component.shared;
      Alcotest.(check (float 1e-12))
        "32 banks charge exactly twice the atomic seconds"
        (2.0 *. b.Model.times.Component.atomic)
        w.Model.times.Component.atomic;
      Alcotest.(check (float 1e-12))
        "instruction time does not depend on the bank count"
        b.Model.times.Component.instruction
        w.Model.times.Component.instruction)
    base.Model.stages wide.Model.stages;
  Alcotest.(check bool) "the shared traffic is non-trivial" true
    (List.exists
       (fun (st : Model.stage_analysis) ->
         st.Model.times.Component.shared > 0.0)
       base.Model.stages)

(* The 32.0 literals in txns-per-thread and GFLOPS are [spec.warp_size]
   now; on the 32-wide baseline nothing may move. *)
let test_warp_size_factors_baseline_identical () =
  let k =
    {
      Ir.name = "flops";
      params = [ "y" ];
      shared = [];
      body =
        Ir.Local ("a", Ir.Float 1.5)
        :: List.init 32 (fun _ ->
               Ir.Assign ("a", Ir.(fmad (v "a") (f 0.999) (v "a"))))
        @ [ Ir.St_global ("y", Ir.Tid, Ir.v "a") ];
    }
  in
  let y = ("y", Gpu_sim.Memory.zeros (120 * 256)) in
  let r = analyze k [ y ] in
  let a = r.Workflow.analysis in
  Alcotest.(check int) "baseline warp size is 32" 32
    spec.Gpu_hw.Spec.warp_size;
  (* flops = issued MADs x warp_size x 2 / predicted: recompute from the
     analysis itself and require exact agreement *)
  let mads = (Gpu_sim.Stats.total r.Workflow.stats).Gpu_sim.Stats.mads in
  let expected =
    float_of_int mads *. r.Workflow.scale *. 32.0 *. 2.0
    /. a.Model.predicted_seconds /. 1e9
  in
  Alcotest.(check (float 1e-9)) "GFLOPS uses the spec's warp size"
    expected a.Model.predicted_gflops

(* --- Trace replication and heterogeneous replay (regression) ------------- *)

module Engine = Gpu_timing.Engine
module Trace = Gpu_sim.Trace

(* Block 0 runs a long MAD chain, every other block a single add: the
   sampled traces are heterogeneous. *)
let hetero_kernel =
  {
    Ir.name = "hetero";
    params = [ "y" ];
    shared = [];
    body =
      [
        Ir.Local ("a", Ir.Float 1.0);
        Ir.If
          ( Ir.(Ctaid < i 1),
            List.init 64 (fun _ ->
                Ir.Assign ("a", Ir.(fmad (v "a") (f 0.5) (v "a")))),
            [ Ir.Assign ("a", Ir.(v "a" +. f 1.0)) ] );
        Ir.St_global ("y", Ir.(imad Ctaid Ntid Tid), Ir.v "a");
      ];
  }

let hetero_args () = [ ("y", Gpu_sim.Memory.zeros (10 * 64)) ]

let test_replicate_traces_even () =
  let sim =
    Gpu_sim.Sim.launch ~collect_trace:true ~block_ids:[ 0; 1; 2 ] ~spec
      ~grid:10 ~block:64 ~args:(hetero_args ())
      (Gpu_kernel.Compile.compile hetero_kernel)
  in
  let sampled = Array.of_list sim.Gpu_sim.Sim.traces in
  Alcotest.(check int) "three sampled traces" 3 (Array.length sampled);
  (* grid 10 from 3 samples: block b replays sample b mod 3, so each
     sample appears 3 or 4 times and ids cover the grid *)
  let replicated = Workflow.replicate_traces ~grid:10 sim.Gpu_sim.Sim.traces in
  Alcotest.(check int) "one trace per block" 10 (Array.length replicated);
  Array.iteri
    (fun b t ->
      Alcotest.(check int) "block id rewritten" b t.Trace.block;
      Alcotest.(check bool) "cyclic assignment" true
        (t.Trace.warps == sampled.(b mod 3).Trace.warps))
    replicated;
  let count i =
    Array.fold_left
      (fun acc t ->
        if t.Trace.warps == sampled.(i).Trace.warps then acc + 1 else acc)
      0 replicated
  in
  Alcotest.(check (list int)) "maximally even replication" [ 4; 3; 3 ]
    [ count 0; count 1; count 2 ]

let test_traces_homogeneous () =
  let run k block_ids =
    (Gpu_sim.Sim.launch ~collect_trace:true ~block_ids ~spec ~grid:10 ~block:64
       ~args:(hetero_args ())
       (Gpu_kernel.Compile.compile k))
      .Gpu_sim.Sim.traces
  in
  Alcotest.(check bool) "identical blocks are homogeneous" true
    (Workflow.traces_homogeneous (run hetero_kernel [ 1; 2; 3 ]));
  Alcotest.(check bool) "block 0 differs" false
    (Workflow.traces_homogeneous (run hetero_kernel [ 0; 1; 2 ]))

(* Regression: with sampled blocks < grid the replay used the
   single-cluster homogeneous fast path even for heterogeneous samples,
   simulating one block's work instead of ten and skewing both the
   measured time and the conservation counters. *)
let test_heterogeneous_replay_simulates_grid () =
  let r =
    Workflow.analyze ~spec ~measure:true ~sample:3 ~grid:10 ~block:64
      ~args:(hetero_args ()) hetero_kernel
  in
  let m = Option.get r.Workflow.measured in
  (* 10 blocks of 2 warps each; pre-fix this was one block's 2 warps *)
  Alcotest.(check int) "all blocks' warps simulated" 20 m.Engine.warps_launched;
  Alcotest.(check int) "all blocks retired" 10 m.Engine.blocks_retired;
  (* and the busy totals match the analytic summation over the whole
     replicated grid *)
  let sim =
    Gpu_sim.Sim.launch ~collect_trace:true ~block_ids:[ 0; 1; 2 ] ~spec
      ~grid:10 ~block:64 ~args:(hetero_args ())
      (Gpu_kernel.Compile.compile hetero_kernel)
  in
  let expected =
    Engine.expected_busy ~spec
      (Workflow.replicate_traces ~grid:10 sim.Gpu_sim.Sim.traces)
  in
  Alcotest.(check int) "alu busy matches summation" expected.Engine.alu_cycles
    m.Engine.alu_busy_cycles;
  Alcotest.(check int) "smem busy matches summation"
    expected.Engine.smem_cycles m.Engine.smem_busy_cycles;
  Alcotest.(check int) "gmem busy matches summation"
    expected.Engine.gmem_cycles m.Engine.gmem_busy_cycles

(* --- Workflow observability ---------------------------------------------- *)

let test_workflow_spans_and_timeline () =
  Gpu_obs.Span.clear ();
  Gpu_obs.Span.set_enabled true;
  let tl = Gpu_obs.Timeline.create ~capacity:(1 lsl 16) () in
  let y = ("y", Gpu_sim.Memory.zeros (120 * 512)) in
  let r =
    Fun.protect
      ~finally:(fun () -> Gpu_obs.Span.set_enabled false)
      (fun () ->
        Workflow.analyze ~spec ~measure:true ~sample:2 ~timeline:tl
          ~grid:120 ~block:512 ~args:[ y ] barrier_kernel)
  in
  let names =
    List.map (fun s -> s.Gpu_obs.Span.name) (Gpu_obs.Span.completed ())
  in
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " span recorded") true
        (List.mem stage names))
    [ "compile"; "extract"; "functional-sim"; "calibrate"; "model";
      "timing-replay" ];
  let m = Option.get r.Workflow.measured in
  Alcotest.(check int) "nothing dropped" 0 (Gpu_obs.Timeline.dropped tl);
  let tile cat busy =
    let ticks = Gpu_obs.Timeline.sum_dur tl ~cat in
    Alcotest.(check int)
      (cat ^ " slices tile into the busy counter")
      busy
      ((ticks + Engine.ticks_per_cycle - 1) / Engine.ticks_per_cycle)
  in
  tile "alu" m.Engine.alu_busy_cycles;
  tile "smem" m.Engine.smem_busy_cycles;
  tile "gmem" m.Engine.gmem_busy_cycles;
  Alcotest.(check bool) "per-stage attribution populated" true
    (Array.length m.Engine.stages_busy > 0);
  (* without a timeline the same run records no attribution *)
  let r' =
    Workflow.analyze ~spec ~measure:true ~sample:2 ~grid:120 ~block:512
      ~args:[ y ] barrier_kernel
  in
  Alcotest.(check int) "no timeline, no attribution" 0
    (Array.length (Option.get r'.Workflow.measured).Engine.stages_busy)

(* --- What-if engine ------------------------------------------------------ *)

let test_whatif_prime_banks () =
  (* stride-16 conflicts vanish with 17 banks *)
  let k =
    {
      Ir.name = "stride16";
      params = [ "y" ];
      shared = [ ("buf", 2048) ];
      body =
        [
          Ir.Let ("p", Ir.(Tid * i 16));
          Ir.Local ("a", Ir.Float 0.0);
        ]
        @ List.init 32 (fun _ ->
              Ir.Assign ("a", Ir.(v "a" +. Ld_shared ("buf", v "p"))))
        @ [ Ir.St_global ("y", Ir.Tid, Ir.v "a") ];
    }
  in
  let args () = [ ("y", Gpu_sim.Memory.zeros (120 * 128)) ] in
  let baseline, outcomes =
    Gpu_model.Whatif.run ~base:spec
      ~variants:[ Gpu_hw.Spec.with_banks 17 spec ]
      ~sample:2 ~grid:120 ~block:128 ~args:(args ()) k
  in
  let prime = List.hd outcomes in
  Alcotest.(check bool) "baseline suffers conflicts" true
    (baseline.Workflow.analysis.Model.bank_conflict_penalty > 4.0);
  Alcotest.(check (float 0.01)) "prime banks remove conflicts" 1.0
    prime.Gpu_model.Whatif.report.Workflow.analysis.Model
      .bank_conflict_penalty;
  Alcotest.(check bool) "and the prediction improves" true
    (prime.Gpu_model.Whatif.speedup > 1.5)

let () =
  Alcotest.run "model"
    [
      ( "components",
        [ Alcotest.test_case "bottleneck" `Quick test_bottleneck_selection ]
      );
      ( "bottlenecks",
        [
          Alcotest.test_case "compute bound" `Quick test_compute_bound_kernel;
          Alcotest.test_case "shared bound" `Quick test_smem_bound_kernel;
          Alcotest.test_case "global bound" `Quick test_gmem_bound_kernel;
        ] );
      ( "stages",
        [
          Alcotest.test_case "serialized split" `Quick test_stage_split;
          Alcotest.test_case "overlapped total" `Quick test_overlapped_total;
          Alcotest.test_case "measured comparison" `Quick
            test_measured_comparison;
        ] );
      ( "degenerate inputs",
        [
          Alcotest.test_case "non-finite scale rejected" `Quick
            test_nonfinite_inputs_rejected;
        ] );
      ( "transaction bytes",
        [
          Alcotest.test_case "spec-derived shared/atomic charge" `Quick
            test_spec_derived_transaction_bytes;
          Alcotest.test_case "warp-size factors on the baseline" `Quick
            test_warp_size_factors_baseline_identical;
        ] );
      ( "trace replication",
        [
          Alcotest.test_case "cyclic and maximally even" `Quick
            test_replicate_traces_even;
          Alcotest.test_case "homogeneity predicate" `Quick
            test_traces_homogeneous;
          Alcotest.test_case "heterogeneous replay covers the grid" `Quick
            test_heterogeneous_replay_simulates_grid;
        ] );
      ( "observability",
        [
          Alcotest.test_case "spans and timeline tiling" `Quick
            test_workflow_spans_and_timeline;
        ] );
      ( "what-if",
        [ Alcotest.test_case "prime banks" `Quick test_whatif_prime_banks ]
      );
    ]
