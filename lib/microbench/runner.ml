(* Runs a microbenchmark program: functional simulation for its trace, then
   timing simulation.  Two shapes:
   - [warp_trace] + [replay_warp], for programs whose warps all execute
     the same trace ([Codegen] says which): one warp is simulated and
     cooked once ([Engine.cook_warp]), and the block replays that one
     cooked trace, shared by all its warps, at every warp count;
   - [measure_cycles], for multi-block programs: one block is simulated
     and replicated across the grid (microbenchmarks are
     block-homogeneous by construction). *)

let wrap ~param_regs ~smem_bytes program : Gpu_kernel.Compile.compiled =
  {
    Gpu_kernel.Compile.program;
    param_regs;
    shared_offsets = [];
    smem_bytes;
    reg_demand = Gpu_isa.Program.register_demand program;
    srcmap = [||];
  }

(* Microbenchmarks control warps-per-SM directly, so they may run blocks of
   up to 32 warps; the launch-validation limit is relaxed for them (the
   timing model is unaffected: it has no per-block thread ceiling). *)
let relaxed (spec : Gpu_hw.Spec.t) =
  { spec with max_threads_per_block = 32 * spec.warp_size }

(* Only the trace is read, so the statistics face simulates it. *)
let block_trace ~spec ~grid ~block ~args k =
  match
    Gpu_sim.Sim.launch_result ~collect_trace:true ~block_ids:[ 0 ]
      ~spec:(relaxed spec) ~grid ~block ~args k
  with
  | Error f -> Gpu_diag.Diag.fail f.Gpu_sim.Sim.diag
  | Ok { traces = [ t ]; _ } -> t
  (* invariant, not input-reachable: [launch_result ~block_ids:[0]] with
     [collect_trace] yields exactly one trace *)
  | Ok _ -> failwith "Runner: expected one block trace"

let warp_trace ~(spec : Gpu_hw.Spec.t) k =
  let bt = block_trace ~spec ~grid:1 ~block:spec.warp_size ~args:[] k in
  match bt.Gpu_sim.Trace.warps with
  | [| t |] -> t
  (* invariant: a one-warp block has one warp trace *)
  | _ -> failwith "Runner.warp_trace: expected one warp trace"

let replay_warp ~warps cooked =
  (Gpu_timing.Engine.replay_shared ~warps cooked).Gpu_timing.Engine.cycles

let measure_cycles ~spec ~grid ~block ~args ?(max_resident = 1) k =
  let proto = block_trace ~spec ~grid ~block ~args k in
  let blocks =
    Array.init grid (fun b -> { proto with Gpu_sim.Trace.block = b })
  in
  let res =
    Gpu_timing.Engine.run ~homogeneous:true ~spec
      ~max_resident_blocks:max_resident blocks
  in
  res.Gpu_timing.Engine.cycles
