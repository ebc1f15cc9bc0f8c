(* fleet-cold: from an empty calibration cache, a model-only matmul
   prediction (n = 1024, 16x16 tiles) on each of three device profiles —
   the shape of `gpuperf sweep-devices`.  Calibration does nearly all the
   work: 160 microbenchmarks (320 one-block homogeneous simulations) per
   profile, written to the disk cache.  No big-grid replay, no serving.
   The timed fleets run on one domain, like every in-process workload;
   the traced run adds one calibration on the default pool size, which
   measures the parallel layer. *)

open Common
module Tables = Gpu_microbench.Tables
module C = Gpu_model.Component

let profiles =
  List.map
    (fun (name, expect) ->
      match Gpu_serve.Protocol.device_of_name name with
      | Some spec -> (name, spec, expect)
      | None -> invalid_arg ("Fleet: unknown device " ^ name))
    [
      ("baseline", C.Instruction_pipeline);
      ("volta-like", C.Global_memory);
      ("ampere-like", C.Global_memory);
    ]

let n = Paper.mm_n
let tile = 16

(* The 160 calibrated points of a table: instruction throughput per
   arithmetic class and warp count, then shared bandwidth per warp
   count. *)
let points t =
  let warps = List.init Tables.max_warps (fun w -> w + 1) in
  Array.of_list
    (List.concat_map
       (fun cls -> List.map (fun w -> Tables.instr_throughput t cls ~warps:w) warps)
       Tables.arithmetic_classes
    @ List.map (fun w -> Tables.smem_bandwidth t ~warps:w) warps)

let points_digest t =
  Digest.to_hex
    (Digest.string (String.concat " " (Array.to_list (Array.map hex (points t)))))

(* Tables reloaded from disk after the in-process tables are dropped must
   equal the built ones at every point. *)
let check_reload t built =
  Tables.clear_process_cache ();
  let c0 = Tables_probe.read () in
  List.iter2
    (fun (name, spec, _) tables ->
      check t "reload"
        (Checks.tables_equal ~profile:name ~built:(points tables)
           ~loaded:(points (Tables.for_spec spec))))
    profiles built;
  let loads = (Tables_probe.delta c0 (Tables_probe.read ())).Tables_probe.disk_loads in
  if loads <> List.length profiles then
    check t "reload"
      [ Printf.sprintf "%d of %d tables came from the disk cache" loads (List.length profiles) ]

let check_verdicts t ks =
  check t "verdicts"
    (Checks.verdicts (List.map (fun (name, _, expect) -> (name, expect)) profiles) ks)

(* One operation: a fresh empty cache, then each profile calibrated and
   predicted in turn.  Returns the tables and the reduced reports. *)
let cold_fleet ?trace ~op ctx =
  Host.fresh_cache (Filename.concat ctx.run_dir (Printf.sprintf "cache-op%d" op));
  Tables.clear_process_cache ();
  List.split
    (List.map
       (fun (name, spec, _) ->
         Spans.maybe trace ~op ("fleet." ^ name) @@ fun parent ->
         let tables =
           Spans.maybe trace ?parent ~op "microbench.build" (fun _ -> Tables.for_spec spec)
         in
         let report =
           match trace with
           | None -> Gpu_workloads.Matmul.analyze ~spec ~n ~tile ()
           | Some _ ->
             let inp =
               Spans.maybe trace ?parent ~op "workloads.inputs" (fun _ ->
                   Paper.matmul_input ~tile)
             in
             (Walk.run ?trace ?parent ~op ~spec ~measure:false inp).Walk.report
         in
         (tables, Checks.of_report name report))
       profiles)

let digest_of built ks =
  digest
    (List.map2
       (fun (tables, (k : Checks.kernel)) (name, _, _) ->
         Printf.sprintf "%s tables=%s matmul16 bottleneck=%s predicted_s=%s warp_instrs=%d"
           name (points_digest tables) (C.short_name k.Checks.bottleneck)
           (hex k.Checks.predicted_s) k.Checks.warp_instrs)
       (List.combine built ks) profiles)

(* The calibration constants the serial walk mirrors: dependent-chain and
   copy-pair lengths (each microbenchmark runs n and 2n). *)
let constant key =
  let prefix = key ^ "=" in
  match
    List.find_map
      (fun w ->
        if String.starts_with ~prefix w then
          int_of_string_opt
            (String.sub w (String.length prefix) (String.length w - String.length prefix))
        else None)
      (String.split_on_char ' ' Tables.calibration_constants)
  with
  | Some v -> v
  | None -> failwith ("Fleet: no " ^ key ^ " in Tables.calibration_constants")

let walk_warps = [ 8; 24 ]
let walk_gmem = (30, 256, 8)

(* Serial walk of a fixed microbenchmark sample per profile: each through
   its [Tables.measure_*] entry point, then decomposed into Codegen ->
   Runner.wrap -> Sim.run -> Engine.run to split its cost between the
   functional simulator and the timing engine. *)
let serial_walk tr ~op =
  let module R = Gpu_microbench.Runner in
  let module G = Gpu_microbench.Codegen in
  let sp ?parent name f = Spans.span tr ?parent ~op name f in
  let decomposed ~parent ~spec ~grid ~block ~args ~max_resident program smem_bytes param_regs =
    let k = sp ~parent "microbench.wrap" (fun _ -> R.wrap ~param_regs ~smem_bytes program) in
    let r =
      sp ~parent "sim.run" (fun _ ->
          Gpu_sim.Sim.run ~collect_trace:true ~block_ids:[ 0 ] ~spec:(R.relaxed spec) ~grid
            ~block ~args k)
    in
    let proto = List.hd r.Gpu_sim.Sim.traces in
    sp ~parent "timing.replay" (fun _ ->
        ignore
          (Gpu_timing.Engine.run ~homogeneous:true ~spec ~max_resident_blocks:max_resident
             (Array.init grid (fun b -> { proto with Gpu_sim.Trace.block = b }))));
    Gpu_sim.Stats.total_issued (Gpu_sim.Stats.total r.Gpu_sim.Sim.stats)
  in
  let chain = constant "chain" and pairs = constant "pairs" in
  let instrs = ref 0 in
  List.iter
    (fun (name, spec, _) ->
      sp ("walk." ^ name) @@ fun parent ->
      List.iter
        (fun cls ->
          List.iter
            (fun warps ->
              ignore
                (sp ~parent "microbench.instr_bench" (fun _ ->
                     Tables.measure_instr_throughput ~spec ~cls ~warps));
              sp ~parent "microbench.walk" (fun parent ->
                  List.iter
                    (fun len ->
                      let p =
                        sp ~parent "microbench.codegen" (fun _ -> G.instruction_chain ~cls ~n:len)
                      in
                      instrs :=
                        !instrs
                        + decomposed ~parent ~spec ~grid:1 ~block:(32 * warps) ~args:[]
                            ~max_resident:1 p 0 [])
                    [ chain; 2 * chain ]))
            walk_warps)
        Tables.arithmetic_classes;
      List.iter
        (fun warps ->
          ignore
            (sp ~parent "microbench.smem_bench" (fun _ ->
                 Tables.measure_smem_bandwidth ~spec ~warps));
          sp ~parent "microbench.walk" (fun parent ->
              List.iter
                (fun len ->
                  let p, smem =
                    sp ~parent "microbench.codegen" (fun _ ->
                        G.shared_copy ~threads:(32 * warps) ~n:len)
                  in
                  instrs :=
                    !instrs
                    + decomposed ~parent ~spec ~grid:1 ~block:(32 * warps) ~args:[]
                        ~max_resident:1 p smem [])
                [ pairs; 2 * pairs ]))
        walk_warps;
      let blocks, threads, txns_per_thread = walk_gmem in
      ignore
        (sp ~parent "microbench.gmem_point" (fun _ ->
             Tables.measure_gmem_bandwidth ~spec ~blocks ~threads ~txns_per_thread));
      sp ~parent "microbench.walk" (fun parent ->
          let p, words =
            sp ~parent "microbench.codegen" (fun _ ->
                G.global_stream ~blocks ~threads ~txns_per_thread)
          in
          instrs :=
            !instrs
            + decomposed ~parent ~spec ~grid:blocks ~block:threads
                ~args:[ ("buf", Array.make words 0l) ]
                ~max_resident:spec.Gpu_hw.Spec.max_blocks_per_sm p 0 [ ("buf", 0) ]))
    profiles;
  !instrs

(* One more cold baseline calibration, on the default pool size: how
   well the pool spreads calibration (CPU ÷ wall × jobs, chunks stolen).
   Returns the pool size. *)
let parallel_probe tr ~op ctx =
  let jobs = Gpu_parallel.Pool.default_jobs () in
  Gpu_parallel.Pool.set_jobs jobs;
  Host.fresh_cache (Filename.concat ctx.run_dir "cache-probe");
  Tables.clear_process_cache ();
  let _, spec, _ = List.hd profiles in
  ignore (Spans.span tr ~op "parallel.probe" (fun _ -> Tables.for_spec spec));
  say "parallel probe: one cold %s calibration on %d domains" spec.Gpu_hw.Spec.name jobs;
  jobs

let run ctx t =
  say "workload fleet-cold: %s from an empty cache, then model-only matmul n=%d tile=%d"
    (String.concat ", " (List.map (fun (n, _, _) -> n) profiles)) n tile;
  say "seed %d: not used (fleet-cold has no random input)" ctx.seed;
  (* Set-up is process start. *)
  let setup = (ctx.started, Host.now ()) in
  let exact ~events ~calib ks =
    say "count microbench.benches=%d (per fleet)" calib.Tables_probe.benches;
    say "count microbench.gmem_points=%d (per fleet)" calib.Tables_probe.gmem_points;
    say "count timing.events=%d (per fleet)" events;
    say "count sim.warp_instrs=%d (matmul, per fleet)"
      (List.fold_left (fun a k -> a + k.Checks.warp_instrs) 0 ks)
  in
  match ctx.trace with
  | None ->
    let last = ref None in
    let intervals =
      timed_loop ~seconds:ctx.seconds (fun op ->
          let c0 = Tables_probe.read () and e0 = Host.counter "engine.events_replayed" in
          let iv, r = interval (fun () -> attempt t "fleet" (fun () -> cold_fleet ~op ctx)) in
          (match r with
          | None -> ()
          | Some (built, ks) ->
            let calib = Tables_probe.delta c0 (Tables_probe.read ()) in
            let events = Host.counter "engine.events_replayed" - e0 in
            check_verdicts t ks;
            check_reload t built;
            last := Some (built, ks, calib, events));
          iv)
    in
    let built, ks, calib, events =
      match !last with Some l -> l | None -> failwith "fleet-cold: every operation failed"
    in
    digest_of built ks;
    exact ~events ~calib ks;
    let ops = paced_ops ctx intervals in
    let setup_wall, setup_s = paced ctx setup in
    say "setup_s %.6f s at nominal pace (%.6f s wall)" setup_s setup_wall;
    let ms = List.map (fun (_, s) -> Host.ms_of_s s) ops in
    let total_s = List.fold_left (fun a (_, s) -> a +. s) 0. ops in
    let wall_s = List.fold_left (fun a (w, _) -> a +. w) 0. ops in
    let values =
      end_to_end ~setup_s ~op_ms:ms
        ~ops_per_s:(float_of_int (t.attempted - t.failed) /. total_s)
        ~peak_rss_mb:(Host.peak_rss_mb ())
    in
    let notes =
      [
        ("setup_s", "process start");
        ("op_p50_ms",
          Printf.sprintf "fleet_cold_s %.4f s: median of %d cold fleets (%.4f s wall, total)"
            (Quant.median ms /. 1e3) (List.length ms) wall_s);
        ("op_p99_ms", p99_note ~ops:"cold fleets" (List.length ms));
        ("ops_per_s",
          Printf.sprintf "cold fleets per second over %.2f s at nominal pace (%.2f s wall)"
            total_s wall_s);
        ("peak_rss_mb", "VmHWM of the benchmark process");
      ]
    in
    { values; timed = values; notes }
  | Some tr ->
    let c0 = Tables_probe.read () and e0 = Host.counter "engine.events_replayed" in
    let iv, (built, ks) =
      interval (fun () ->
          match attempt t "fleet" (fun () -> cold_fleet ~trace:tr ~op:1 ctx) with
          | Some r -> r
          | None -> failwith "fleet-cold: the traced operation failed")
    in
    let fleet_s = snd (List.hd (paced_ops ctx [ iv ])) in
    let setup_s = snd (paced ctx setup) in
    let calib = Tables_probe.delta c0 (Tables_probe.read ()) in
    let events = Host.counter "engine.events_replayed" - e0 in
    check_verdicts t ks;
    check_reload t built;
    digest_of built ks;
    exact ~events ~calib ks;
    let instrs = serial_walk tr ~op:2 in
    say "count sim.warp_instrs.walk=%d (serial microbenchmark walk)" instrs;
    let probe_jobs = parallel_probe tr ~op:3 ctx in
    {
      values = Layers.fleet tr ~walk_op:2 ~instrs ~probe_op:3 ~probe_jobs;
      timed =
        [
          ("setup_s", setup_s);
          ("op_p50_ms", Host.ms_of_s fleet_s);
          ("op_p99_ms", Host.ms_of_s fleet_s);
          ("ops_per_s", 1. /. fleet_s);
        ];
      notes = [];
    }
