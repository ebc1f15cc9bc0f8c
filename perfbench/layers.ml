(* Per-layer metrics of the traced runs, read off the recorded spans.
   Each function returns the layers its workload uses; the traced run
   prints every declared per-layer metric, and one a workload leaves idle
   reads 0 there (METRICS.md says which apply where). *)

let named tr ~op name =
  List.filter (fun s -> s.Spans.op = op && s.Spans.name = name) (Spans.spans tr)

let sum_ms tr ~op name =
  List.fold_left (fun a s -> a +. (Spans.dur_us s /. 1e3)) 0. (named tr ~op name)

let sum_arg tr ~op name arg =
  List.fold_left (fun a s -> a +. Spans.arg_float s arg) 0. (named tr ~op name)

let count tr ~op name = List.length (named tr ~op name)

let ratio a b = if b = 0. then 0. else a /. b

(* CPU seconds over wall seconds times the pool size [jobs], across
   [spans]. *)
let par_eff ~jobs spans =
  let cpu = List.fold_left (fun a s -> a +. Spans.arg_float s "cpu_s") 0. spans in
  let wall = List.fold_left (fun a s -> a +. (Spans.dur_us s /. 1e6)) 0. spans in
  ratio cpu (wall *. float_of_int jobs)

let stolen_frac spans =
  let sum arg = List.fold_left (fun a s -> a +. Spans.arg_float s arg) 0. spans in
  ratio (sum "pool.chunks.stolen") (sum "pool.chunks.claimed")

(* Functional simulation and replay, from the spans of operation [op];
   [per] divides the totals (1 for a pass, the benchmark count for the
   microbenchmark walk). *)
let sim_and_timing tr ~op ~per ~warp_instrs =
  let ms = sum_ms tr ~op in
  let arg = sum_arg tr ~op in
  let sim_ms = ms "sim.run" and replay_ms = ms "timing.replay" in
  let events = arg "timing.replay" "engine.events_replayed" in
  [
    ("sim.run_ms", sim_ms /. per);
    ("sim.warp_instrs", warp_instrs /. per);
    ("sim.ns_per_warp_instr", ratio (sim_ms *. 1e6) warp_instrs);
    ("sim.minor_mwords", arg "sim.run" "gc.minor_words" /. 1e6 /. per);
    ("sim.promoted_mwords", arg "sim.run" "gc.promoted_words" /. 1e6 /. per);
    ("timing.replay_ms", replay_ms /. per);
    ("timing.ns_per_event", ratio (replay_ms *. 1e6) events);
    ("timing.events", events /. per);
    ("timing.minor_mwords", arg "timing.replay" "gc.minor_words" /. 1e6 /. per);
    ("timing.promoted_mwords", arg "timing.replay" "gc.promoted_words" /. 1e6 /. per);
  ]

(* paper-replay, per pass (operation 1); calibration from set-up. *)
let paper tr ~walked =
  let ms = sum_ms tr ~op:1 in
  let build = named tr ~op:0 "microbench.build" in
  let pass = named tr ~op:1 "paper.pass" in
  let pass_arg a = List.fold_left (fun acc s -> acc +. Spans.arg_float s a) 0. pass in
  sim_and_timing tr ~op:1 ~per:1.
    ~warp_instrs:(float_of_int (List.fold_left (fun a k -> a + k.Checks.warp_instrs) 0 walked))
  @ [
      ("workloads.inputs_ms", ms "workloads.inputs");
      ("kernel.compile_ms", ms "kernel.compile");
      ("model.analyze_ms", ms "model.analyze");
      ("microbench.build_s", List.fold_left (fun a s -> a +. (Spans.dur_us s /. 1e6)) 0. build);
      ("microbench.par_eff", par_eff ~jobs:(Gpu_parallel.Pool.current_jobs ()) build);
      ("microbench.benches", pass_arg "calib.measurements.instr_smem");
      ("microbench.gmem_points", pass_arg "calib.measurements.gmem");
      ("parallel.stolen_frac", stolen_frac pass);
    ]

(* fleet-cold: calibration per profile (operation 1), microbenchmark
   costs per walked microbenchmark (operation [walk_op]), and the pool's
   spread of one calibration on [probe_jobs] domains (operation
   [probe_op]). *)
let fleet tr ~walk_op ~instrs ~probe_op ~probe_jobs =
  let probe = named tr ~op:probe_op "parallel.probe" in
  let builds = named tr ~op:1 "microbench.build" in
  let profiles = float_of_int (List.length builds) in
  let per_profile name = sum_ms tr ~op:1 name /. profiles in
  let fleet_spans =
    List.filter (fun s -> String.starts_with ~prefix:"fleet." s.Spans.name && s.Spans.op = 1)
      (Spans.spans tr)
  in
  let fleet_arg a =
    List.fold_left (fun acc s -> acc +. Spans.arg_float s a) 0. fleet_spans /. profiles
  in
  let mean name = ratio (sum_ms tr ~op:walk_op name) (float_of_int (count tr ~op:walk_op name)) in
  let benches = float_of_int (count tr ~op:walk_op "microbench.walk") in
  sim_and_timing tr ~op:walk_op ~per:benches ~warp_instrs:(float_of_int instrs)
  @ [
      ("workloads.inputs_ms", per_profile "workloads.inputs");
      ("kernel.compile_ms", per_profile "kernel.compile");
      ("model.analyze_ms", per_profile "model.analyze");
      ("microbench.build_s", Quant.median (List.map (fun s -> Spans.dur_us s /. 1e6) builds));
      ("microbench.par_eff", par_eff ~jobs:probe_jobs probe);
      ("microbench.benches", fleet_arg "calib.measurements.instr_smem");
      ("microbench.gmem_points", fleet_arg "calib.measurements.gmem");
      ("microbench.instr_bench_ms", mean "microbench.instr_bench");
      ("microbench.smem_bench_ms", mean "microbench.smem_bench");
      ("microbench.gmem_point_ms", mean "microbench.gmem_point");
      ("parallel.stolen_frac", stolen_frac probe);
    ]
