(* One analysis walked through the calls [Workflow.analyze] makes —
   Compile.compile -> Workflow.occupancy_of -> Sim.run -> Tables.for_spec
   -> Model.analyze -> Workflow.replicate_traces + Engine.run — each in
   its own span when a trace is given.  Its report must equal, to the
   bit, the one the workload's public [analyze] returns for the same
   inputs. *)

module Wf = Gpu_model.Workflow

(* The inputs a workload's [analyze] builds for [Workflow.analyze]. *)
type input = {
  ir : Gpu_kernel.Ir.t;
  grid : int;
  block : int;
  args : (string * int32 array) list;
  sample : int option;
}

type walked = {
  report : Wf.report;
  expected_busy : int array option;
      (** analytic busy cycles, when every block was replayed *)
}

let run ?trace ?parent ~op ~spec ~measure (inp : input) =
  let sp name f = Spans.maybe trace ?parent ~op name (fun _ -> f ()) in
  let k = sp "kernel.compile" (fun () -> Gpu_kernel.Compile.compile inp.ir) in
  let occupancy =
    sp "model.occupancy_of" (fun () -> Wf.occupancy_of ~spec ~block:inp.block k)
  in
  let block_ids =
    match inp.sample with
    | Some n when n < inp.grid -> Some (List.init n Fun.id)
    | Some _ | None -> None
  in
  let r =
    sp "sim.run" (fun () ->
        Gpu_sim.Sim.run ~collect_trace:measure ?block_ids ~spec ~grid:inp.grid
          ~block:inp.block ~args:inp.args k)
  in
  let scale = Gpu_sim.Sim.scale_factor r in
  let tables =
    sp "microbench.for_spec" (fun () -> Gpu_microbench.Tables.for_spec spec)
  in
  let analysis =
    sp "model.analyze" (fun () ->
        Gpu_model.Model.analyze
          {
            Gpu_model.Model.in_spec = spec;
            tables;
            stats = r.Gpu_sim.Sim.stats;
            scale;
            in_grid = inp.grid;
            in_block = inp.block;
            in_occupancy = occupancy;
            blocks_run = r.Gpu_sim.Sim.blocks_run;
          })
  in
  let measured, traces =
    if not measure then (None, None)
    else
      sp "timing.replay" (fun () ->
          let traces = Wf.replicate_traces ~grid:inp.grid r.Gpu_sim.Sim.traces in
          let homogeneous =
            r.Gpu_sim.Sim.blocks_run < inp.grid
            && Wf.traces_homogeneous r.Gpu_sim.Sim.traces
          in
          let m =
            Gpu_timing.Engine.run ~homogeneous ~spec
              ~max_resident_blocks:occupancy.Gpu_hw.Occupancy.blocks traces
          in
          (Some m, if homogeneous then None else Some traces))
  in
  let expected_busy =
    Option.map
      (fun traces ->
        let b = Gpu_timing.Engine.expected_busy ~spec traces in
        Gpu_timing.Engine.[| b.alu_cycles; b.smem_cycles; b.atomic_cycles; b.gmem_cycles |])
      traces
  in
  {
    report =
      {
        Wf.kernel_name = Gpu_isa.Program.name k.Gpu_kernel.Compile.program;
        compiled = k;
        launch = { Wf.grid = inp.grid; block = inp.block };
        stats = r.Gpu_sim.Sim.stats;
        scale;
        analysis;
        measured;
      };
    expected_busy;
  }
