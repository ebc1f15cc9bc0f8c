(* The Section 5.2 study: a model-guided optimization.  Cyclic reduction is
   neither compute- nor memory-bound by the classic high-level analysis;
   the model shows the real culprit — shared-memory bank conflicts whose
   degree doubles every step — and predicts what removing them is worth
   BEFORE writing the padded kernel.  Then we write it and check.

     dune exec examples/tridiag_opt.exe *)

module Model = Gpu_model.Model
module Component = Gpu_model.Component
module Workflow = Gpu_model.Workflow
module Tridiag = Gpu_workloads.Tridiag

let () =
  let nsys = 512 and n = 512 in
  Printf.printf "Cyclic reduction: %d systems of %d equations, one block \
                 per system.\n\n" nsys n;

  (* 1. Diagnose the baseline. *)
  let cr =
    Workflow.analyze ~measure:true (Tridiag.input ~nsys ~n ~padded:false)
  in
  let a = cr.Workflow.analysis in
  Printf.printf "baseline CR: predicted %.3f ms, bottleneck %s, \
                 bank-conflict penalty %.2fx\n"
    (1e3 *. a.Model.predicted_seconds)
    (Component.name a.Model.bottleneck)
    a.Model.bank_conflict_penalty;
  List.iteri
    (fun idx (st : Model.stage_analysis) ->
      if idx >= 1 && idx <= 4 then
        Printf.printf
          "  step %d: %d warps, shared %.4f ms vs instr %.4f ms -> %s\n" idx
          st.Model.active_warps
          (1e3 *. st.Model.times.Component.shared)
          (1e3 *. st.Model.times.Component.instruction)
          (Component.short_name st.Model.bottleneck))
    a.Model.stages;

  (* 2. Predict the benefit of removing conflicts without writing code:
     re-price the shared traffic at its conflict-free transaction count. *)
  let conflict_free_estimate =
    List.fold_left
      (fun acc (st : Model.stage_analysis) ->
        let t = st.Model.times in
        let shared' = t.Component.shared /. a.Model.bank_conflict_penalty in
        acc +. Component.max_time { t with Component.shared = shared' })
      0.0 a.Model.stages
  in
  Printf.printf
    "\nmodel forecast: with conflicts gone, the bottleneck shifts to the \
     instruction pipeline and total time drops to roughly %.3f ms (%.2fx)\n"
    (1e3 *. conflict_free_estimate)
    (a.Model.predicted_seconds /. conflict_free_estimate);

  (* 3. Implement the padding (one word per 16) and re-analyze. *)
  let nbc =
    Workflow.analyze ~measure:true (Tridiag.input ~nsys ~n ~padded:true)
  in
  let b = nbc.Workflow.analysis in
  Printf.printf
    "\nCR-NBC (padded): predicted %.3f ms, bottleneck %s, penalty %.2fx\n"
    (1e3 *. b.Model.predicted_seconds)
    (Component.name b.Model.bottleneck)
    b.Model.bank_conflict_penalty;
  let meas (r : Workflow.report) =
    (Option.get r.Workflow.measured).Gpu_timing.Engine.seconds
  in
  Printf.printf
    "timing simulator: %.3f ms -> %.3f ms, a %.2fx speedup (paper \
     measured 1.6x on the GTX 285)\n"
    (1e3 *. meas cr) (1e3 *. meas nbc)
    (meas cr /. meas nbc);

  (* 4. The architectural alternative: prime bank count. *)
  let prime = Gpu_hw.Spec.with_banks 17 Gpu_hw.Spec.gtx285 in
  let cr17 =
    Workflow.analyze ~spec:prime (Tridiag.input ~nsys ~n ~padded:false)
  in
  Printf.printf
    "\nwhat-if, 17 banks (no software change): penalty %.2fx, predicted \
     %.3f ms\n"
    cr17.Workflow.analysis.Model.bank_conflict_penalty
    (1e3 *. cr17.Workflow.analysis.Model.predicted_seconds)
