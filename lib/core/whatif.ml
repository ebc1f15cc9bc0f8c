(* The device comparison: analyse one workload on a list of devices and
   compare each prediction with a baseline's — the way the paper argues
   its architectural improvements in Sections 5.1-5.3 (more resident
   blocks, a prime bank count, finer transaction granularity, early
   resource release), and the way [gpuperf sweep-devices] compares GPU
   generations.  Every surface that compares devices (the [whatif],
   [report] and [sweep-devices] commands, the bench) takes its outcomes
   from [run] and only prints them.

   Devices are re-analysed, not merely re-priced: changing the bank count
   changes the measured conflict statistics, changing the segment size
   changes the coalesced transactions, and the microbenchmark tables are
   re-fit to each device.

   Evaluation fans out over the domain pool, one device per task: table
   re-fits dominate the cost and are independent per spec.  The caller's
   [analyze] may share one workflow input across devices: the workflow's
   functional simulation never writes its arguments. *)

type outcome = {
  device : string;
  report : Workflow.report;
  speedup : float;
  shifted : bool;
}

let run ?baseline analyze devices =
  let reports =
    Gpu_parallel.Pool.parallel_map (fun (_, spec) -> analyze spec) devices
  in
  match (baseline, reports) with
  | None, [] -> []
  | Some (b : Workflow.report), _ | None, b :: _ ->
    let b = b.Workflow.analysis in
    List.map2
      (fun (device, _) (report : Workflow.report) ->
        let a = report.Workflow.analysis in
        {
          device;
          report;
          (* a zero prediction is unboundedly faster than any other *)
          speedup =
            (if a.Model.predicted_seconds > 0.0 then
               b.Model.predicted_seconds /. a.Model.predicted_seconds
             else Float.infinity);
          shifted = a.Model.bottleneck <> b.Model.bottleneck;
        })
      devices reports

let pp ppf outcomes =
  let line i o =
    let a = o.report.Workflow.analysis in
    if i > 0 then Fmt.cut ppf ();
    (* the baseline's "base" right-aligns under the speedups' digits *)
    Fmt.pf ppf "%-40s %8.4g ms  %s  bottleneck: %a"
      a.Model.spec.Gpu_hw.Spec.name
      (1e3 *. a.Model.predicted_seconds)
      (if i = 0 then " base" else Printf.sprintf "%5.2fx" o.speedup)
      Component.pp a.Model.bottleneck
  in
  Fmt.pf ppf "@[<v>";
  List.iteri line outcomes;
  Fmt.pf ppf "@]"
