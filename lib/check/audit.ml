(* Engine invariant auditor: run a case through the full timing engine
   (every cluster simulated) and check everything that must hold for
   *any* valid input:

     - liveness/conservation: every warp launched and retired, every
       block retired, nothing left in a pending queue — a deadlocked
       barrier or leaked block slot surfaces here instead of as a
       silently-short simulation;
     - busy accounting: per-pipeline busy cycles equal the analytic
       summation [Engine.expected_busy] exactly, and never exceed the
       elapsed time times the unit count (the pipeline cannot be more
       than fully busy);
     - internal structural checks (scoreboard monotonicity, no warp
       scheduled past its trace) are asserted by the engine itself and
       arrive as exceptions;
     - strategy determinism: the same case rerun without a timeline —
       which lets the engine fan clusters out over the domain pool —
       must reproduce every counter of the serial run bit-identically;
     - cluster reuse: the case replicated cyclically over more blocks
       than the device has clusters, sharing warp arrays the way
       [Workflow.replicate_traces] does, replays each distinct cluster
       once without a timeline and every cluster with one, and the two
       must agree on every counter.

   The only slack is on the arithmetic pipeline's upper bound: the last
   issue may hold the pipe past the completion horizon by up to its own
   occupancy (at most warp_size cycles when a class has one unit), plus
   one cycle of tick rounding per counter.

   Every audit runs with a timeline recorder attached and additionally
   checks the observability contract: per pipeline category the recorded
   slice durations (ticks, rounded up to cycles) tile exactly into the
   engine's busy counters, and the per-stage attribution ticks sum to the
   same totals.  The timeline is sized so nothing can drop — a dropped
   slice would make tiling vacuous. *)

module Engine = Gpu_timing.Engine
module Timeline = Gpu_obs.Timeline

(* Ticks of recorded busy time, rounded up to cycles the way the engine's
   counters round each slice-free accumulation: the counters accumulate
   raw ticks and convert once at the end, so a single global round-up
   matches. *)
let cycles_of_ticks t = (t + Engine.ticks_per_cycle - 1) / Engine.ticks_per_cycle

(* A timeline no replay of [blocks] can overflow: a fused smem event emits
   at most 3 slices, barrier slices are bounded by the bar-flagged events,
   and each warp adds one retire marker — 4x the events plus one per warp
   covers it all. *)
let timeline_for (blocks : Gpu_sim.Trace.block_trace array) =
  let events =
    Array.fold_left (fun acc b -> acc + Gpu_sim.Trace.event_count b) 0 blocks
  in
  let warps =
    Array.fold_left
      (fun acc (b : Gpu_sim.Trace.block_trace) ->
        acc + Array.length b.Gpu_sim.Trace.warps)
      0 blocks
  in
  Timeline.create ~capacity:((4 * events) + warps + 64) ()

(* The counters two replays of one grid must agree on. *)
let counters (r : Engine.result) =
  [
    ("cycles", r.cycles);
    ("alu busy", r.alu_busy_cycles);
    ("smem busy", r.smem_busy_cycles);
    ("atomic busy", r.atomic_busy_cycles);
    ("gmem busy", r.gmem_busy_cycles);
    ("warps launched", r.warps_launched);
    ("warps retired", r.warps_retired);
    ("blocks retired", r.blocks_retired);
    ("blocks unlaunched", r.blocks_unlaunched);
  ]

let check ~(spec : Gpu_hw.Spec.t) (c : Case.t) : (unit, string) result =
  match Case.validate c with
  | Error m -> Error ("invalid case: " ^ m)
  | Ok () -> (
    let traces = Case.traces c in
    let tl = timeline_for traces in
    match
      Engine.run ~homogeneous:false ~timeline:tl ~spec
        ~max_resident_blocks:c.max_resident traces
    with
    | exception e ->
      Error
        (Fmt.str "@[<v>engine raised %s@,on %a@]" (Printexc.to_string e)
           Case.pp c)
    | r ->
      let expected = Engine.expected_busy ~spec traces in
      let problems = ref [] in
      let ensure cond fmt =
        Format.kasprintf
          (fun m -> if not cond then problems := m :: !problems)
          fmt
      in
      (* Another replay [p] of the grid [r] replayed must reproduce
         [r]'s counters exactly and carry no sampled estimate. *)
      let agree ~what ~against (r : Engine.result) (p : Engine.result) =
        List.iter2
          (fun (name, v) (_, v') ->
            ensure (v = v') "%s %s = %d, %s says %d" what name v' against v)
          (counters r) (counters p);
        ensure (p.sampled = None) "%s reported a sampled estimate" what
      in
      let total_warps = Case.num_warps c in
      let total_blocks = Case.num_blocks c in
      ensure
        (r.warps_launched = total_warps)
        "launched %d of %d warps" r.warps_launched total_warps;
      ensure
        (r.warps_retired = r.warps_launched)
        "retired %d of %d launched warps" r.warps_retired r.warps_launched;
      ensure
        (r.blocks_retired = total_blocks)
        "retired %d of %d blocks" r.blocks_retired total_blocks;
      ensure (r.blocks_unlaunched = 0) "%d blocks never left a pending queue"
        r.blocks_unlaunched;
      ensure
        (r.alu_busy_cycles = expected.alu_cycles)
        "alu busy %d cycles, summation says %d" r.alu_busy_cycles
        expected.alu_cycles;
      ensure
        (r.smem_busy_cycles = expected.smem_cycles)
        "smem busy %d cycles, summation says %d" r.smem_busy_cycles
        expected.smem_cycles;
      ensure
        (r.atomic_busy_cycles = expected.atomic_cycles)
        "atomic busy %d cycles, summation says %d" r.atomic_busy_cycles
        expected.atomic_cycles;
      ensure
        (r.gmem_busy_cycles = expected.gmem_cycles)
        "gmem busy %d cycles, summation says %d" r.gmem_busy_cycles
        expected.gmem_cycles;
      ensure (r.cycles >= 0) "negative elapsed time %d" r.cycles;
      let alu_slack = spec.warp_size + 1 in
      ensure
        (r.alu_busy_cycles <= (r.cycles + alu_slack) * r.sms_simulated)
        "alu busier (%d cycles) than %d SMs over %d cycles can be"
        r.alu_busy_cycles r.sms_simulated r.cycles;
      ensure
        (r.smem_busy_cycles <= (r.cycles + 1) * r.sms_simulated)
        "smem busier (%d cycles) than %d SMs over %d cycles can be"
        r.smem_busy_cycles r.sms_simulated r.cycles;
      (* atomics share the shared pipe's cursor, so smem + atomic together
         cannot exceed the pipe's capacity either; the combined bound is
         the stronger check but each counter must also fit alone *)
      ensure
        (r.smem_busy_cycles + r.atomic_busy_cycles
        <= (r.cycles + 2) * r.sms_simulated)
        "shared pipe (smem %d + atomic %d cycles) busier than %d SMs over \
         %d cycles can be"
        r.smem_busy_cycles r.atomic_busy_cycles r.sms_simulated r.cycles;
      ensure
        (r.gmem_busy_cycles <= (r.cycles + 1) * r.clusters_simulated)
        "gmem busier (%d cycles) than %d clusters over %d cycles can be"
        r.gmem_busy_cycles r.clusters_simulated r.cycles;
      (* Observability: the recorded timeline must tile exactly into the
         busy counters, per pipeline category and again per stage. *)
      ensure
        (Timeline.dropped tl = 0)
        "timeline dropped %d slices despite exact sizing"
        (Timeline.dropped tl);
      let tile cat busy =
        let ticks = Timeline.sum_dur tl ~cat in
        ensure
          (cycles_of_ticks ticks = busy)
          "%s timeline slices sum to %d ticks (%d cycles), busy counter \
           says %d"
          cat ticks (cycles_of_ticks ticks) busy
      in
      tile "alu" r.alu_busy_cycles;
      tile "smem" r.smem_busy_cycles;
      tile "atomic" r.atomic_busy_cycles;
      tile "gmem" r.gmem_busy_cycles;
      let stage_sum f =
        Array.fold_left (fun acc st -> acc + f st) 0 r.stages_busy
      in
      let per_stage name f cat =
        let s = stage_sum f in
        let ticks = Timeline.sum_dur tl ~cat in
        ensure (s = ticks)
          "per-stage %s attribution sums to %d ticks, timeline says %d"
          name s ticks
      in
      per_stage "alu" (fun st -> st.Engine.alu_ticks) "alu";
      per_stage "smem" (fun st -> st.Engine.smem_ticks) "smem";
      per_stage "atomic" (fun st -> st.Engine.atomic_ticks) "atomic";
      per_stage "gmem" (fun st -> st.Engine.gmem_ticks) "gmem";
      (* Determinism across execution strategies: the timeline run above
         forces the serial path; rerunning without a recorder takes the
         parallel per-cluster path whenever the pool has domains.  The
         engine promises bit-identical results either way, and every
         counter the serial run satisfied above must survive the swap. *)
      (match
         Engine.run ~homogeneous:false ~spec
           ~max_resident_blocks:c.max_resident traces
       with
      | exception e ->
        ensure false "parallel path raised %s" (Printexc.to_string e)
      | p -> agree ~what:"parallel path" ~against:"serial" r p);
      (* Cluster reuse: past one block per cluster the cyclic replicas
         make clusters recur, which only the run without a recorder may
         answer from an identical cluster. *)
      let replicated =
        let n = Array.length traces in
        Array.init
          (n + Gpu_hw.Spec.num_clusters spec + 1)
          (fun b -> { traces.(b mod n) with Gpu_sim.Trace.block = b })
      in
      (match
         let run ?timeline () =
           Engine.run ~homogeneous:false ?timeline ~spec
             ~max_resident_blocks:c.max_resident replicated
         in
         (run ~timeline:(timeline_for replicated) (), run ())
       with
      | exception e ->
        ensure false "replicated grid raised %s" (Printexc.to_string e)
      | full, reused ->
        agree ~what:"replicated grid, reused replay"
          ~against:"its timeline run" full reused);
      match !problems with
      | [] -> Ok ()
      | ps ->
        Error
          (Fmt.str "@[<v>%a@,on %a@]"
             Fmt.(list ~sep:cut string)
             (List.rev ps) Case.pp c))

let fails ~spec c = Result.is_error (check ~spec c)
