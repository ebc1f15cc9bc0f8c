(* Architectural what-if engine: re-run the full analysis workflow against
   device variants (more resident blocks, a prime bank count, a larger
   register file, finer transaction granularity, early resource release) and
   compare predicted times — the way the paper argues its architectural
   improvements in Sections 5.1-5.3.

   Variants are re-simulated, not merely re-priced: changing the bank count
   changes the measured conflict statistics, changing the segment size
   changes the coalesced transactions, and the microbenchmark tables are
   re-fit to the variant device.

   Evaluation fans out over the domain pool, one variant per task: table
   re-fits dominate the cost and are independent per spec.  Each task gets
   a private copy of the argument buffers (the simulator copies results
   back into them), so variants are isolated from each other and from the
   baseline — every spec is analyzed against identical inputs regardless
   of evaluation order. *)

type outcome = {
  spec : Gpu_hw.Spec.t;
  report : Workflow.report;
  speedup : float; (* baseline predicted time / variant predicted time *)
}

let run ?(base = Gpu_hw.Spec.gtx285) ?jobs ~variants ?sample ~grid ~block
    ~args kernel =
  let analyze spec =
    let args =
      List.map (fun (name, buf) -> (name, Gpu_sim.Memory.copy buf)) args
    in
    Workflow.analyze ~spec ?sample ~grid ~block ~args kernel
  in
  match Gpu_parallel.Pool.parallel_map ?jobs analyze (base :: variants) with
  | [] -> assert false (* parallel_map preserves length *)
  | baseline :: reports ->
    let t0 = baseline.Workflow.analysis.Model.predicted_seconds in
    let outcomes =
      List.map2
        (fun spec report ->
          let t = report.Workflow.analysis.Model.predicted_seconds in
          { spec; report; speedup = (if t > 0.0 then t0 /. t else 0.0) })
        variants reports
    in
    (baseline, outcomes)

let pp_outcome ppf o =
  Fmt.pf ppf "%-40s %8.4g ms  %5.2fx  bottleneck: %a"
    o.spec.Gpu_hw.Spec.name
    (1e3 *. o.report.Workflow.analysis.Model.predicted_seconds)
    o.speedup Component.pp o.report.Workflow.analysis.Model.bottleneck

let pp ppf (baseline, outcomes) =
  Fmt.pf ppf "@[<v>%-40s %8.4g ms  %5s  bottleneck: %a"
    baseline.Workflow.analysis.Model.spec.Gpu_hw.Spec.name
    (1e3 *. baseline.Workflow.analysis.Model.predicted_seconds)
    "base" Component.pp baseline.Workflow.analysis.Model.bottleneck;
  List.iter (fun o -> Fmt.pf ppf "@,%a" pp_outcome o) outcomes;
  Fmt.pf ppf "@]"
