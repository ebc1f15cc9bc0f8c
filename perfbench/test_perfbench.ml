(* Tests of the benchmark's own code: seeding, the percentile helper,
   the metric declarations it reads from BENCHMARK.json, and that every
   output check rejects a corrupted result. *)

open Perfbench
module C = Gpu_model.Component
module P = Gpu_serve.Protocol
module J = Gpu_report.Jsonx

(* --- seeds ------------------------------------------------------------ *)

let draws ~seed n =
  let next = Serve_mix.sequence ~seed in
  List.init n (fun _ -> next ())

let test_request_sequence () =
  let a = draws ~seed:3 200 and b = draws ~seed:3 200 in
  Alcotest.(check (list int)) "same seed, same sequence" a b;
  Alcotest.(check bool) "different seed, different sequence" false (a = draws ~seed:4 200);
  Alcotest.(check bool) "every kind is drawn" true
    (List.for_all
       (fun k -> List.mem k a)
       (List.init (Array.length Serve_mix.kinds) Fun.id))

let test_matrix () =
  let m s = (Gpu_workloads.Spmv.qcd_like ~seed:s ()).Gpu_workloads.Spmv.blocks in
  Alcotest.(check bool) "same seed, same matrix" true (m 7 = m 7);
  Alcotest.(check bool) "different seed, different matrix" false (m 7 = m 8)

(* --- percentiles ------------------------------------------------------ *)

let samples n = List.init n (fun i -> float_of_int (n - i))

let tail n =
  Option.map (fun t -> (t.Quant.bp, t.Quant.value, t.Quant.samples)) (Quant.tail (samples n))

let test_tail () =
  let t = Alcotest.(option (triple int (float 0.) int)) in
  Alcotest.check t "1000 samples support p99" (Some (9900, 990., 1000)) (tail 1000);
  Alcotest.check t "999 samples fall back to p95" (Some (9500, 950., 999)) (tail 999);
  Alcotest.check t "20 samples support only the median" (Some (5000, 10., 20)) (tail 20);
  Alcotest.check t "19 samples support none" None (tail 19);
  Alcotest.(check int) "p99 of 1000 leaves 10 beyond" 10 (Quant.beyond ~n:1000 ~bp:9900);
  Alcotest.(check (float 0.)) "median of an even count" 2.5 (Quant.median [ 4.; 1.; 3.; 2. ])

(* --- declarations ----------------------------------------------------- *)

let declared = lazy (Metrics_decl.load "../BENCHMARK.json")
let names decls = List.map (fun d -> d.Metrics_decl.name) decls
let sorted l = List.sort_uniq String.compare l

(* Every metric the workloads fill is declared in BENCHMARK.json, with a
   unit, a direction and a valid name (the loader refuses any other). *)
let test_declared () =
  let d = Lazy.force declared in
  Alcotest.(check (list string)) "end-to-end metrics are the ones every workload fills"
    (sorted (names d.Metrics_decl.end_to_end))
    (sorted
       (List.map fst
          (Common.end_to_end ~setup_s:1. ~op_ms:[ 1. ] ~ops_per_s:1. ~peak_rss_mb:1.)));
  let tr = Spans.create () in
  ignore (Spans.record tr ~op:1 ~start_us:0. ~end_us:1. "microbench.build");
  let first =
    { Serve_mix.kind = 0; start_us = 0.; end_us = 1.; line = None; resp = None }
  in
  let filled =
    Layers.paper tr ~walked:[]
    @ Layers.fleet tr ~walk_op:2 ~instrs:0 ~probe_op:3 ~probe_jobs:2
    @ Serve_mix.layer_values ~good:[] ~first ~first_cpu_s:0. ~before:[] ~after:[]
  in
  List.iter
    (fun (n, _) ->
      Alcotest.(check bool) ("declared per-layer metric " ^ n) true
        (List.mem n (names d.Metrics_decl.per_layer)))
    filled;
  Alcotest.(check int) "every per-layer metric is filled by some workload"
    (List.length d.Metrics_decl.per_layer)
    (List.length (sorted (List.map fst filled)))

let test_declaration_checks () =
  let metric ?(name = "a_ms") ?(unit_ = "ms") ?(better = "lower") () =
    Printf.sprintf "{\"name\": %S, \"unit\": %S, \"better\": %S}" name unit_ better
  in
  let file e2e =
    Printf.sprintf "{\"end_to_end\": [%s], \"per_layer\": [%s]}" e2e
      (metric ~name:"layer.b_ms" ())
  in
  let refused what text =
    Alcotest.(check bool) (what ^ " refused") true (Result.is_error (Metrics_decl.parse text))
  in
  Alcotest.(check bool) "a well-formed file loads" true
    (Result.is_ok (Metrics_decl.parse (file (metric ()))));
  refused "a bad name" (file (metric ~name:"a ms" ()));
  refused "a name that starts with _" (file (metric ~name:"_a" ()));
  refused "an empty unit" (file (metric ~unit_:"" ()));
  refused "a bad direction" (file (metric ~better:"up" ()));
  refused "a missing unit" (file "{\"name\": \"a\", \"better\": \"lower\"}");
  refused "a name declared twice" (file (metric () ^ ", " ^ metric ()))

(* The printed result carries exactly the declared metrics, each with its
   unit, and refuses anything else. *)
let test_result_line () =
  let decls = (Lazy.force declared).Metrics_decl.end_to_end in
  let values = List.mapi (fun i d -> (d.Metrics_decl.name, 1.5 +. float_of_int i)) decls in
  let line =
    Metrics_decl.result_line ~correct:true ~attempted:3 ~failed:0
      (Metrics_decl.select decls values)
  in
  let j = match J.parse line with Ok j -> j | Error m -> Alcotest.fail m in
  let metrics = Option.get (J.to_obj (Option.get (J.member "metrics" j))) in
  Alcotest.(check (list (pair string string))) "names and units"
    (List.map (fun d -> (d.Metrics_decl.name, d.Metrics_decl.unit_)) decls)
    (List.map (fun (n, m) -> (n, Option.get (J.to_string (Option.get (J.member "unit" m)))))
       metrics);
  Alcotest.(check (list string)) "top-level keys"
    [ "correct"; "attempted"; "failed"; "metrics" ]
    (List.map fst (Option.get (J.to_obj j)));
  let raises ?idle values =
    match Metrics_decl.select ?idle decls values with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "missing metric refused" true (raises (List.tl values));
  Alcotest.(check bool) "undeclared metric refused" true (raises (("bogus", 1.) :: values));
  Alcotest.(check bool) "idle metric filled" false (raises ~idle:0. (List.tl values));
  Alcotest.(check bool) "undeclared refused when filling" true
    (raises ~idle:0. [ ("bogus", 1.) ])

(* --- output checks ---------------------------------------------------- *)

let kernel =
  {
    Checks.kname = "cr";
    bottleneck = C.Shared_memory;
    predicted_s = 1e-3;
    cycles = 1000;
    seconds = 1.1e-3;
    busy = [| 10; 20; 0; 30 |];
    warps_launched = 64;
    warps_retired = 64;
    blocks_unlaunched = 0;
    warp_instrs = 500;
  }

let rejects name problems =
  Alcotest.(check bool) (name ^ " rejected") true (problems <> [])

let accepts name problems = Alcotest.(check (list string)) (name ^ " accepted") [] problems

let test_paper_checks () =
  let nbc = { kernel with Checks.kname = "cr-nbc"; bottleneck = C.Instruction_pipeline; cycles = 700 } in
  let expected = [ ("cr", C.Shared_memory); ("cr-nbc", C.Instruction_pipeline) ] in
  accepts "verdicts" (Checks.verdicts expected [ kernel; nbc ]);
  rejects "wrong verdict"
    (Checks.verdicts expected [ { kernel with Checks.bottleneck = C.Global_memory }; nbc ]);
  rejects "missing kernel" (Checks.verdicts expected [ nbc ]);
  accepts "cr-nbc faster" (Checks.faster ~fast:nbc ~slow:kernel);
  rejects "cr-nbc slower" (Checks.faster ~fast:{ nbc with Checks.cycles = 1000 } ~slow:kernel);
  accepts "conservation" (Checks.conservation kernel);
  rejects "warp leak" (Checks.conservation { kernel with Checks.warps_retired = 63 });
  rejects "unlaunched blocks" (Checks.conservation { kernel with Checks.blocks_unlaunched = 1 });
  accepts "busy" (Checks.busy_matches ~expected:[| 10; 20; 0; 30 |] kernel);
  rejects "busy" (Checks.busy_matches ~expected:[| 10; 20; 0; 31 |] kernel);
  accepts "identical" (Checks.identical ~what:"walk" kernel kernel);
  rejects "one ulp"
    (Checks.identical ~what:"walk" kernel
       { kernel with Checks.predicted_s = Float.succ kernel.Checks.predicted_s });
  rejects "instruction count"
    (Checks.identical ~what:"walk" kernel { kernel with Checks.warp_instrs = 501 })

let test_fleet_checks () =
  let built = Array.init 160 (fun i -> float_of_int i /. 7.) in
  accepts "tables" (Checks.tables_equal ~profile:"p" ~built ~loaded:(Array.copy built));
  let bad = Array.copy built in
  bad.(42) <- Float.succ bad.(42);
  rejects "one point" (Checks.tables_equal ~profile:"p" ~built ~loaded:bad);
  rejects "truncated" (Checks.tables_equal ~profile:"p" ~built ~loaded:(Array.sub built 0 159))

let test_serve_checks () =
  let stages = [ ("queue-wait", 1500.); ("functional-sim", 2250.); ("other", 250.) ] in
  let r =
    P.response ~stage_breakdown:stages ~rendered:"# report" ~id:"x" ~elapsed_ms:4.0
      P.Completed
  in
  accepts "status" (Checks.status_ok ~kind:"k" r);
  rejects "error status" (Checks.status_ok ~kind:"k" { r with P.status = P.Failed });
  accepts "stage sum" (Checks.stage_sum ~kind:"k" r);
  rejects "stage sum" (Checks.stage_sum ~kind:"k" { r with P.elapsed_ms = 5.0 });
  rejects "no stages" (Checks.stage_sum ~kind:"k" { r with P.stage_breakdown = [] });
  accepts "document" (Checks.same_document ~kind:"k" ~reference:"# report" (Checks.document r));
  rejects "document"
    (Checks.same_document ~kind:"k" ~reference:"# report"
       (Checks.document { r with P.rendered = Some "# report!" }));
  rejects "empty document"
    (Checks.same_document ~kind:"k" ~reference:""
       (Checks.document { r with P.rendered = None }))

(* --- pace ------------------------------------------------------------- *)

let test_pace () =
  let t = Pace.create () in
  (* factor 1 sampled over [0, 0.2], factor 2 over [10, 10.2] *)
  Pace.add t ~start:0. ~stop:0.2 ~ref_s:Pace.nominal_s;
  Pace.add t ~start:10. ~stop:10.2 ~ref_s:(Pace.nominal_s /. 2.);
  Alcotest.(check (float 1e-9)) "wall leaves out the sampling" 9.8 (Pace.wall t ~a:0.1 ~b:10.1);
  (* the factor runs from 1 to 2 between the samples' midpoints: 15 s,
     less the 0.1 s of each sample inside, at its own factor *)
  Alcotest.(check (float 1e-9)) "scaled integrates the factor" 14.7
    (Pace.scaled t ~a:0.1 ~b:10.1);
  Alcotest.(check (float 1e-9)) "the first factor holds before the first sample" 1.
    (Pace.scaled t ~a:(-2.) ~b:(-1.));
  Alcotest.(check (float 1e-9)) "the last factor holds after the last sample" 4.
    (Pace.scaled t ~a:11. ~b:13.);
  Alcotest.(check (float 1e-9)) "halfway, the factor is the mean" 1.5
    (Pace.scaled t ~a:4.6 ~b:5.6);
  let live = Pace.create () in
  Pace.start live;
  Unix.sleepf (3. *. Pace.period);
  Pace.stop live;
  let _, median, _, n = Pace.summary live in
  Alcotest.(check bool) "the sampler samples" true (n >= 3 && median > 0.);
  let w0 = Gc.minor_words () in
  Pace.sample live;
  Alcotest.(check (float 0.)) "a sample allocates nothing" 0. (Gc.minor_words () -. w0)

(* --- spans ------------------------------------------------------------ *)

let test_self_time () =
  let tr = Spans.create () in
  let p = Spans.record tr ~op:1 ~start_us:0. ~end_us:100. "parent" in
  ignore (Spans.record tr ~parent:p ~op:1 ~start_us:10. ~end_us:40. "a");
  ignore (Spans.record tr ~parent:p ~op:1 ~start_us:30. ~end_us:50. "b");
  ignore (Spans.record tr ~parent:p ~op:1 ~start_us:90. ~end_us:120. "c");
  let all = Spans.spans tr in
  let parent = List.find (fun s -> s.Spans.name = "parent") all in
  Alcotest.(check (float 1e-9)) "self = duration - children's coverage" 50.
    (Spans.self_us all parent);
  Alcotest.(check bool) "Perfetto JSON parses" true
    (Result.is_ok (J.parse (Spans.to_perfetto tr)))

let () =
  Alcotest.run "perfbench"
    [
      ( "seeds",
        [
          Alcotest.test_case "request sequence" `Quick test_request_sequence;
          Alcotest.test_case "QCD matrix" `Quick test_matrix;
        ] );
      ("percentiles", [ Alcotest.test_case "tail" `Quick test_tail ]);
      ( "declarations",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_declared;
          Alcotest.test_case "malformed declarations" `Quick test_declaration_checks;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
      ( "checks",
        [
          Alcotest.test_case "paper-replay" `Quick test_paper_checks;
          Alcotest.test_case "fleet-cold" `Quick test_fleet_checks;
          Alcotest.test_case "serve-mix" `Quick test_serve_checks;
        ] );
      ("pace", [ Alcotest.test_case "scaled time" `Quick test_pace ]);
      ("spans", [ Alcotest.test_case "self time" `Quick test_self_time ]);
    ]
