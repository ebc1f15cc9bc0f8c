(* The end-to-end analysis workflow of the paper's Figure 1: compile the
   kernel (nvcc analog), run the functional simulator (Barra analog) for
   dynamic statistics, extract the model inputs, query the microbenchmark
   tables, and produce the quantitative per-component analysis.  Optionally
   the same traces replay on the cycle timing simulator, which plays the
   role of the measured GPU time.

   Every stage runs inside a [Gpu_obs.Span] (compile / functional-sim /
   extract / calibrate / model / timing-replay) — free when span tracing
   is off — and the timing replay accepts an optional [Gpu_obs.Timeline]
   that the engine fills with per-pipeline busy intervals. *)

module Spec = Gpu_hw.Spec
module Span = Gpu_obs.Span
module Trace_ctx = Gpu_obs.Trace_ctx

(* Stage wrapper: always the global span tracer (one atomic load when
   tracing is off); when a request-scoped [Trace_ctx] is threaded in —
   the serve daemon passes one per request — the same extent also
   records into that request's span tree, so per-request latency
   attribution works without enabling process-wide tracing. *)
let stage_span ?ctx ~attrs name f =
  let body () = Span.with_ ~attrs name f in
  match ctx with
  | None -> body ()
  | Some c -> Trace_ctx.span c ~attrs name body

type launch = { grid : int; block : int }

(* Warp-instructions the functional-sim stage ran without computing their
   lane values ([Sim.launch_result] is the statistics face), and the
   count-only shared accesses among them that reused a broadcast's
   staging. *)
let m_counted_only = Gpu_obs.Metrics.counter "sim.counted_only"
let m_staging_reused = Gpu_obs.Metrics.counter "sim.staging_reused"

type report = {
  kernel_name : string;
  compiled : Gpu_kernel.Compile.compiled;
  launch : launch;
  stats : Gpu_sim.Stats.t;
  scale : float; (* grid / blocks functionally simulated *)
  analysis : Model.t;
  measured : Gpu_timing.Engine.result option;
}

let demand_of ~spec ~block (k : Gpu_kernel.Compile.compiled) =
  {
    Gpu_hw.Occupancy.threads_per_block = block;
    registers_per_thread = max 1 k.reg_demand;
    (* the driver reserves launch metadata in shared memory, which is
       what pushes e.g. a 4096-byte tile to the 3-block occupancy of
       Table 2 *)
    smem_per_block =
      (if k.smem_bytes = 0 then 0
       else k.smem_bytes + spec.Spec.smem_launch_overhead);
  }

let occupancy_of ~spec ~block (k : Gpu_kernel.Compile.compiled) =
  Gpu_hw.Occupancy.compute ~spec (demand_of ~spec ~block k)

(* Replay traces of the sampled blocks onto the whole grid (cyclically) for
   the timing simulator.  Exact when the sample covers the grid; otherwise
   it relies on block homogeneity, like the statistics scaling.  The
   cyclic assignment keeps the replication maximally even: with grid g
   from n samples each sample appears floor(g/n) or ceil(g/n) times, so
   the replicated trace volume never drifts from the g/n statistics
   scale by as much as one sample. *)
let replicate_traces ~grid (traces : Gpu_sim.Trace.block_trace list) =
  let sampled = Array.of_list traces in
  let n = Array.length sampled in
  if n = 0 then invalid_arg "Workflow: no traces collected";
  Array.init grid (fun b ->
      { sampled.(b mod n) with Gpu_sim.Trace.block = b })

(* Whether the sampled traces all describe the same per-block work
   (ignoring the block id).  Only then may the timing replay simulate a
   single most-loaded cluster: replicated *heterogeneous* samples load
   clusters differently, and collapsing to one cluster both mis-times the
   grid and under-counts the busy/conservation totals. *)
(* Timing-relevant equality of two trace events.  The timing engine never
   reads global-memory transaction base addresses — only their count and
   size — so bases are masked out; comparing them raw would make every
   kernel that touches block-dependent addresses look heterogeneous. *)
let event_cost_equal (a : Gpu_sim.Trace.event) (b : Gpu_sim.Trace.event) =
  let mem_equal m m' =
    match (m, m') with
    | Gpu_sim.Trace.No_mem, Gpu_sim.Trace.No_mem -> true
    | Gpu_sim.Trace.Smem n, Gpu_sim.Trace.Smem n' -> n = n'
    | Gpu_sim.Trace.Smem_atomic n, Gpu_sim.Trace.Smem_atomic n' -> n = n'
    | Gpu_sim.Trace.Gmem_load t, Gpu_sim.Trace.Gmem_load t'
    | Gpu_sim.Trace.Gmem_store t, Gpu_sim.Trace.Gmem_store t' ->
      Array.length t = Array.length t'
      && Array.for_all2 (fun (_, s) (_, s') -> s = s') t t'
    | _, _ -> false
  in
  a.cls = b.cls && a.dst = b.dst && a.srcs = b.srcs && a.bar = b.bar
  && mem_equal a.mem b.mem

let warp_cost_equal (a : Gpu_sim.Trace.warp_trace) b =
  Array.length a = Array.length b && Array.for_all2 event_cost_equal a b

let traces_homogeneous (traces : Gpu_sim.Trace.block_trace list) =
  match traces with
  | [] | [ _ ] -> true
  | t :: rest ->
    List.for_all
      (fun (u : Gpu_sim.Trace.block_trace) ->
        Array.length u.warps = Array.length t.warps
        && Array.for_all2 warp_cost_equal u.warps t.warps)
      rest

let replay_homogeneous ~grid (r : Gpu_sim.Sim.result) =
  r.blocks_run < grid && traces_homogeneous r.traces

let span_attrs ~grid ~block (k : Gpu_kernel.Compile.compiled) =
  [
    ("kernel", Gpu_isa.Program.name k.program);
    ("grid", string_of_int grid);
    ("block", string_of_int block);
  ]

(* The diagnostic surfaced alongside a sampled timing replay: the result
   stands with degraded confidence, bracketed by the engine's bounds. *)
let replay_sample_warning (m : Gpu_timing.Engine.result) =
  match m.Gpu_timing.Engine.sampled with
  | None -> []
  | Some s ->
    [
      Gpu_diag.Diag.warning Gpu_diag.Diag.Timing
        ~hint:"rerun without replay sampling for an exact measurement"
        "timing replay sampled %d of %d clusters (%d blocks): measured \
         time is an extrapolation in [%d, %d] cycles"
        s.Gpu_timing.Engine.clusters_sampled
        s.Gpu_timing.Engine.clusters_total
        s.Gpu_timing.Engine.blocks_sampled s.Gpu_timing.Engine.cycles_low
        s.Gpu_timing.Engine.cycles_high;
    ]

(* The one pipeline.  Each stage runs its total [_result] face inside the
   stage's span; a failing stage raises its diagnostic inside the span
   (which then closes tagged with diag.severity/diag.stage) and the
   handler at the bottom turns it back into [Error].  Out-of-range
   warnings from the occupancy calculator, the model and a sampled
   replay are pooled into one list alongside the report. *)
let analyze_result ?(spec = Spec.gtx285) ?sample ?replay_sample
    ?(measure = false) ?timeline ?ctx ~grid ~block ~args kernel =
  let module D = Gpu_diag.Diag in
  let run_stage ~attrs name f =
    stage_span ?ctx ~attrs name (fun () ->
        match f () with Ok v -> v | Error d -> D.fail d)
  in
  match
    let k =
      run_stage
        ~attrs:[ ("kernel", kernel.Gpu_kernel.Ir.name) ]
        "compile"
        (fun () -> Gpu_kernel.Compile.compile_result kernel)
    in
    let attrs = span_attrs ~grid ~block k in
    let occupancy, occ_warnings =
      run_stage ~attrs "extract" (fun () ->
          Gpu_hw.Occupancy.compute_result ~spec (demand_of ~spec ~block k))
    in
    let block_ids =
      match sample with
      | Some n when n < grid -> Some (List.init (max n 0) Fun.id)
      | Some _ | None -> None
    in
    let r =
      run_stage ~attrs "functional-sim" (fun () ->
          Gpu_sim.Sim.launch_result ~collect_trace:measure ?block_ids ~spec
            ~grid ~block ~args k
          |> Result.map_error (fun (f : Gpu_sim.Sim.failure) -> f.diag))
    in
    Gpu_obs.Metrics.add m_counted_only r.counted_only;
    Gpu_obs.Metrics.add m_staging_reused r.staging_reused;
    let scale = Gpu_sim.Sim.scale_factor r in
    let tables =
      stage_span ?ctx ~attrs "calibrate" (fun () ->
          Gpu_microbench.Tables.for_spec spec)
    in
    let analysis =
      run_stage ~attrs "model" (fun () ->
          Model.analyze_result
            {
              Model.in_spec = spec;
              tables;
              stats = r.stats;
              scale;
              in_grid = grid;
              in_block = block;
              in_occupancy = occupancy;
              blocks_run = r.blocks_run;
            })
    in
    let measured =
      if measure then
        run_stage ~attrs "timing-replay" (fun () ->
            D.protect ~stage:D.Timing (fun () ->
                let traces = replicate_traces ~grid r.traces in
                Some
                  (Gpu_timing.Engine.run
                     ~homogeneous:(replay_homogeneous ~grid r)
                     ?timeline ?sample:replay_sample ~spec
                     ~max_resident_blocks:occupancy.Gpu_hw.Occupancy.blocks
                     traces)))
      else None
    in
    let replay_warnings =
      match measured with
      | Some m -> replay_sample_warning m
      | None -> []
    in
    ( {
        kernel_name = Gpu_isa.Program.name k.program;
        compiled = k;
        launch = { grid; block };
        stats = r.stats;
        scale;
        analysis;
        measured;
      },
      occ_warnings @ analysis.Model.warnings @ replay_warnings )
  with
  | v -> Ok v
  | exception D.Diag_error d -> Error d

let analyze ?spec ?sample ?replay_sample ?measure ?timeline ?ctx ~grid
    ~block ~args kernel =
  match
    analyze_result ?spec ?sample ?replay_sample ?measure ?timeline ?ctx ~grid
      ~block ~args kernel
  with
  | Ok (report, _warnings) -> report
  | Error d -> Gpu_diag.Diag.fail d

let measured_seconds report =
  Option.map (fun (r : Gpu_timing.Engine.result) -> r.seconds)
    report.measured

let prediction_error report =
  match measured_seconds report with
  | Some m when m > 0.0 ->
    Some ((report.analysis.Model.predicted_seconds -. m) /. m)
  | Some _ | None -> None

let pp ppf r =
  Fmt.pf ppf "@[<v>kernel %s@,%a@]" r.kernel_name Model.pp r.analysis;
  match r.measured with
  | None -> ()
  | Some m ->
    Fmt.pf ppf "@.measured (timing simulator): %.4g ms" (1e3 *. m.seconds);
    (match prediction_error r with
    | Some e -> Fmt.pf ppf " | model error %+.1f%%" (100.0 *. e)
    | None -> ())
