(* paper-replay: the paper's eight case-study kernels on the GT200
   baseline, each analysed and replayed on the timing simulator.
   Functional simulation and replay do almost all the work; calibration
   (done once, in set-up) and serving do none.  Matmul and CR replay on
   the single-cluster homogeneous path, SpMV on the full heterogeneous
   per-cluster parallel one. *)

open Common
module W = Gpu_workloads
module C = Gpu_model.Component

let spec = Gpu_hw.Spec.gtx285
let mm_n = 1024
let cr_nsys = 512
let cr_n = 512

type case = {
  name : string;
  expect : C.t;  (** the EXPERIMENTS.md verdict *)
  public : W.Spmv.matrix -> Gpu_model.Workflow.report;
  input : W.Spmv.matrix -> Walk.input;
      (** what [public] builds internally, for the walk *)
}

let matmul_input ~tile =
  {
    Walk.ir = W.Matmul.kernel ~n:mm_n ~tile;
    grid = W.Matmul.grid ~n:mm_n ~tile;
    block = W.Matmul.threads_per_block;
    args = List.map (fun p -> (p, Array.make (mm_n * mm_n) 0l)) [ "a"; "b"; "c" ];
    sample = Some 4;
  }

let matmul tile expect =
  {
    name = Printf.sprintf "matmul-%d" tile;
    expect;
    public = (fun _ -> W.Matmul.analyze ~measure:true ~n:mm_n ~tile ());
    input = (fun _ -> matmul_input ~tile);
  }

let tridiag padded expect =
  {
    name = (if padded then "cr-nbc" else "cr");
    expect;
    public =
      (fun _ -> W.Tridiag.analyze ~measure:true ~nsys:cr_nsys ~n:cr_n ~padded ());
    input =
      (fun _ ->
        let words = cr_nsys * cr_n in
        let args =
          List.map (fun p -> (p, Array.make words 0l)) [ "a"; "b"; "c"; "d"; "x" ]
        in
        Array.fill (List.assoc "b" args) 0 words (Int32.bits_of_float 1.0);
        {
          Walk.ir = W.Tridiag.kernel ~n:cr_n ~padded;
          grid = cr_nsys;
          block = W.Tridiag.threads ~n:cr_n;
          args;
          sample = Some 2;
        });
  }

let spmv fmt =
  {
    name = "spmv-" ^ String.lowercase_ascii (W.Spmv.format_name fmt);
    expect = C.Global_memory;
    public = (fun m -> W.Spmv.analyze ~measure:true m fmt);
    input =
      (fun m ->
        let grid, block = W.Spmv.launch m fmt in
        {
          Walk.ir = W.Spmv.kernel m fmt;
          grid;
          block;
          args = W.Spmv.args m fmt (Array.make (W.Spmv.rows m) 1.0);
          sample = None;
        });
  }

let cases =
  [
    matmul 8 C.Instruction_pipeline;
    matmul 16 C.Instruction_pipeline;
    matmul 32 C.Shared_memory;
    tridiag false C.Shared_memory;
    tridiag true C.Instruction_pipeline;
    spmv W.Spmv.Ell;
    spmv W.Spmv.Bell_im;
    spmv W.Spmv.Bell_imiv;
  ]

(* Checks that hold for any complete pass. *)
let check_pass t (ks : Checks.kernel list) =
  if List.length ks = List.length cases then begin
    check t "verdicts"
      (Checks.verdicts (List.map (fun c -> (c.name, c.expect)) cases) ks);
    let find n = List.find (fun k -> k.Checks.kname = n) ks in
    check t "cr-nbc" (Checks.faster ~fast:(find "cr-nbc") ~slow:(find "cr"));
    List.iter (fun k -> check t "conservation" (Checks.conservation k)) ks
  end

let model_err_pct (ks : Checks.kernel list) =
  100.
  *. Quant.mean
       (List.map
          (fun k -> Float.abs (k.Checks.predicted_s -. k.Checks.seconds) /. k.Checks.seconds)
          ks)

(* Walk every case (traced or not); the SpMV replays must charge exactly
   the analytic busy cycles. *)
let walk_pass ?trace ?parent ~op t m =
  List.filter_map
    (fun c ->
      attempt t c.name (fun () ->
          Spans.maybe trace ?parent ~op ("paper." ^ c.name) @@ fun parent ->
          let inp =
            Spans.maybe trace ?parent ~op "workloads.inputs" (fun _ -> c.input m)
          in
          let w = Walk.run ?trace ?parent ~op ~spec ~measure:true inp in
          let k = Checks.of_report c.name w.Walk.report in
          Option.iter
            (fun expected -> check t "busy" (Checks.busy_matches ~expected k))
            w.Walk.expected_busy;
          k))
    cases

let public_pass t m =
  List.filter_map
    (fun c -> attempt t c.name (fun () -> Checks.of_report c.name (c.public m)))
    cases

let compare_routes t ~walked ~public =
  List.iter2
    (fun w p -> check t "walk = analyze" (Checks.identical ~what:"the walk" w p))
    walked public

let digest_lines (ks : Checks.kernel list) =
  List.map
    (fun k ->
      Printf.sprintf "%s bottleneck=%s predicted_s=%s cycles=%d warp_instrs=%d"
        k.Checks.kname (C.short_name k.Checks.bottleneck) (hex k.Checks.predicted_s)
        k.Checks.cycles k.Checks.warp_instrs)
    ks
  @ [ Printf.sprintf "model_err_pct=%s" (hex (model_err_pct ks)) ]

let exact_counts ~walked ~events (calib : Tables_probe.t) =
  say "count sim.warp_instrs=%d (per pass)"
    (List.fold_left (fun a k -> a + k.Checks.warp_instrs) 0 walked);
  say "count timing.events=%d (per pass)" events;
  say "count microbench.benches=%d (set-up)" calib.Tables_probe.benches;
  say "count microbench.gmem_points=%d (set-up)" calib.Tables_probe.gmem_points

(* Cold GT200 calibration, the seeded QCD-like matrix, and one untimed
   pass, which fills the on-demand global-memory table points. *)
let setup ctx t =
  let trace = ctx.trace in
  let c0 = Tables_probe.read () in
  let tables_s, _ =
    Host.timed (fun () ->
        Spans.maybe trace ~op:0 "microbench.build" (fun _ ->
            Gpu_microbench.Tables.for_spec spec))
  in
  let m =
    Spans.maybe trace ~op:0 "workloads.inputs" (fun _ -> W.Spmv.qcd_like ~seed:ctx.seed ())
  in
  let warm =
    match trace with
    | None -> walk_pass ~op:0 t m
    | Some _ -> public_pass t m
  in
  (tables_s, Tables_probe.delta c0 (Tables_probe.read ()), m, warm)

let run ctx t =
  say "workload paper-replay: 8 case-study kernels on %s, measure=true" spec.Gpu_hw.Spec.name;
  say "seed %d -> Spmv.qcd_like ~seed (7 reproduces EXPERIMENTS.md)" ctx.seed;
  let tables_s, calib, m, warm = setup ctx t in
  let setup = (ctx.started, Host.now ()) in
  check_pass t warm;
  say "set-up: cold calibration %.3f s wall (%d microbenchmarks, %d gmem points)" tables_s
    calib.Tables_probe.benches calib.Tables_probe.gmem_points;
  match ctx.trace with
  | None ->
    let passes = ref [] in
    let events = ref [] in
    let intervals =
      timed_loop ~seconds:ctx.seconds (fun _ ->
          let e0 = Host.counter "engine.events_replayed" in
          let iv, ks = interval (fun () -> public_pass t m) in
          events := (Host.counter "engine.events_replayed" - e0) :: !events;
          check_pass t ks;
          if List.length ks = List.length warm then compare_routes t ~walked:warm ~public:ks;
          passes := ks :: !passes;
          iv)
    in
    let ops = paced_ops ctx intervals in
    let setup_wall, setup_s = paced ctx setup in
    say "setup_s %.3f s at nominal pace (%.3f s wall)" setup_s setup_wall;
    let n = List.length ops in
    let pass_ms = List.map (fun (_, s) -> Host.ms_of_s s) ops in
    let total_s = List.fold_left (fun a (_, s) -> a +. s) 0. ops in
    let wall_s = List.fold_left (fun a (w, _) -> a +. w) 0. ops in
    let last = List.hd !passes in
    if List.length last = List.length cases then
      say "model_err_pct %.4f %% (simulated and deterministic: in the digest, not a timed metric)"
        (model_err_pct last);
    if List.exists (fun e -> e <> List.hd !events) !events then
      check t "events" [ "engine.events_replayed differs between passes" ];
    digest (digest_lines last);
    exact_counts ~walked:last ~events:(List.hd !events) calib;
    let ok = List.length (List.filter (fun ks -> List.length ks = List.length cases) !passes) in
    let values =
      end_to_end ~setup_s ~op_ms:pass_ms
        ~ops_per_s:(float_of_int ok /. total_s)
        ~peak_rss_mb:(Host.peak_rss_mb ())
    in
    let notes =
      [
        ("setup_s", "cold calibration, QCD-like matrix, one untimed pass; once per run");
        ("op_p50_ms",
          Printf.sprintf "paper_pass_s %.4f s: median of %d passes (%.4f s wall each, mean)"
            (Quant.median pass_ms /. 1e3) n (wall_s /. float_of_int n));
        ("op_p99_ms", p99_note ~ops:"passes" n);
        ("ops_per_s",
          Printf.sprintf "complete passes per second over %.2f s at nominal pace (%.2f s wall)"
            total_s wall_s);
        ("peak_rss_mb", "VmHWM of the benchmark process");
      ]
    in
    { values; timed = values; notes }
  | Some tr ->
    let iv, walked =
      interval (fun () ->
          Spans.span tr ~op:1 "paper.pass" (fun id -> walk_pass ~trace:tr ~parent:id ~op:1 t m))
    in
    let pass_s = snd (List.hd (paced_ops ctx [ iv ])) in
    let setup_s = snd (paced ctx setup) in
    check_pass t walked;
    if List.length walked = List.length warm then compare_routes t ~walked ~public:warm;
    digest (digest_lines walked);
    exact_counts ~walked
      ~events:(int_of_float (Layers.sum_arg tr ~op:1 "timing.replay" "engine.events_replayed"))
      calib;
    {
      values = Layers.paper tr ~walked;
      timed =
        [
          ("setup_s", setup_s);
          ("op_p50_ms", Host.ms_of_s pass_s);
          ("op_p99_ms", Host.ms_of_s pass_s);
          ("ops_per_s", 1. /. pass_s);
        ];
      notes = [];
    }
