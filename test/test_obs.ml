(* Unit tests for the observability layer (lib/obs): the metrics
   registry, the span tracer, the timeline ring buffer, and the
   trace-event JSON they export.  Everything here is pure — no
   calibration, no engine — so the suite stays fast and the JSON checks
   are byte-level. *)

module Metrics = Gpu_obs.Metrics
module Span = Gpu_obs.Span
module Timeline = Gpu_obs.Timeline
module Json = Gpu_obs.Json_text

(* --- metrics ------------------------------------------------------------ *)

let test_counter () =
  Metrics.reset ();
  let c = Metrics.counter "test.obs.counter" in
  Alcotest.(check int) "starts at zero" 0 (Metrics.value c);
  Metrics.incr c;
  Metrics.add c 41;
  Alcotest.(check int) "incr + add" 42 (Metrics.value c);
  let c' = Metrics.counter "test.obs.counter" in
  Metrics.incr c';
  Alcotest.(check int) "same name, same cell" 43 (Metrics.value c)

let test_kind_mismatch () =
  ignore (Metrics.counter "test.obs.kindclash");
  Alcotest.check_raises "counter name as gauge"
    (Invalid_argument
       "Metrics: test.obs.kindclash is already registered and is not a gauge")
    (fun () -> ignore (Metrics.gauge "test.obs.kindclash"))

let test_gauge_histogram () =
  Metrics.reset ();
  let g = Metrics.gauge "test.obs.gauge" in
  Metrics.set_gauge g 2.5;
  Alcotest.(check (float 0.0)) "gauge holds last set" 2.5
    (Metrics.gauge_value g);
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test.obs.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
  let json = Metrics.dump_json () in
  List.iter
    (fun needle ->
      let found =
        let nl = String.length needle and jl = String.length json in
        let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) (needle ^ " in dump_json") true found)
    [ "\"test.obs.gauge\":2.5"; "\"count\":3"; "[[1,1],[10,1]]"; "\"inf\":1" ]

let test_snapshot_sorted () =
  Metrics.reset ();
  ignore (Metrics.counter "test.obs.b");
  ignore (Metrics.counter "test.obs.a");
  let names = List.map fst (Metrics.snapshot_counters ()) in
  Alcotest.(check bool) "snapshot sorted by name" true
    (List.sort compare names = names)

(* --- spans -------------------------------------------------------------- *)

let test_span_disabled () =
  Span.set_enabled false;
  Span.clear ();
  Alcotest.(check int) "disabled records nothing" 0
    (Span.with_ "off" (fun () -> List.length (Span.completed ())))

let test_span_records () =
  Metrics.reset ();
  Span.clear ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () ->
      let c = Metrics.counter "test.obs.spandelta" in
      let v =
        Span.with_ ~attrs:[ ("k", "v") ] "outer" (fun () ->
            Span.with_ "inner" (fun () -> Metrics.add c 7);
            3)
      in
      Alcotest.(check int) "with_ is transparent" 3 v;
      match Span.completed () with
      | [ inner; outer ] ->
        (* completion order: inner closes first *)
        Alcotest.(check string) "inner first" "inner" inner.Span.name;
        Alcotest.(check string) "outer name" "outer" outer.Span.name;
        Alcotest.(check (list (pair string string))) "attrs kept"
          [ ("k", "v") ] outer.Span.attrs;
        Alcotest.(check (list (pair string int))) "counter delta"
          [ ("test.obs.spandelta", 7) ]
          (List.filter
             (fun (n, _) -> n = "test.obs.spandelta")
             outer.Span.deltas);
        Alcotest.(check bool) "duration non-negative" true
          (outer.Span.dur_us >= 0.0 && inner.Span.dur_us <= outer.Span.dur_us)
      | l -> Alcotest.failf "expected 2 completed spans, got %d" (List.length l))

let test_span_exception () =
  Span.clear ();
  Span.set_enabled true;
  Fun.protect
    ~finally:(fun () -> Span.set_enabled false)
    (fun () ->
      (try Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
      Alcotest.(check int) "raising span still recorded" 1
        (List.length (Span.completed ())))

(* --- timeline ----------------------------------------------------------- *)

let test_ring () =
  let tl = Timeline.create ~capacity:3 () in
  for i = 0 to 4 do
    Timeline.add tl ~pid:1 ~tid:0 ~cat:"alu" ~name:"s" ~ts:(10 * i) ~dur:2
  done;
  Alcotest.(check int) "added counts everything" 5 (Timeline.added tl);
  Alcotest.(check int) "dropped = added - capacity" 2 (Timeline.dropped tl);
  let kept = Timeline.slices tl in
  Alcotest.(check int) "retains capacity slices" 3 (Array.length kept);
  Alcotest.(check int) "oldest dropped first" 20 kept.(0).Timeline.ts;
  Alcotest.(check int) "sum_dur over retained" 6 (Timeline.sum_dur tl ~cat:"alu");
  Alcotest.(check int) "sum_dur other cat" 0 (Timeline.sum_dur tl ~cat:"smem")

let test_drop_warning () =
  Metrics.reset ();
  let tl = Timeline.create ~capacity:2 () in
  Timeline.add tl ~pid:1 ~tid:0 ~cat:"alu" ~name:"s" ~ts:0 ~dur:1;
  Alcotest.(check bool) "no warning while nothing dropped" true
    (Timeline.drop_warning tl = None);
  Timeline.add tl ~pid:1 ~tid:0 ~cat:"alu" ~name:"s" ~ts:1 ~dur:1;
  Timeline.add tl ~pid:1 ~tid:0 ~cat:"alu" ~name:"s" ~ts:2 ~dur:1;
  (match Timeline.drop_warning tl with
  | None -> Alcotest.fail "expected a drop warning"
  | Some d ->
    Alcotest.(check bool) "warning severity" true
      (d.Gpu_diag.Diag.severity = Gpu_diag.Diag.Warning);
    let mentions needle =
      let m = d.Gpu_diag.Diag.message and nl = String.length needle in
      let rec go i =
        i + nl <= String.length m
        && (String.sub m i nl = needle || go (i + 1))
      in
      go 0
    in
    Alcotest.(check bool) "names the dropped count" true (mentions "1");
    Alcotest.(check bool) "names the capacity" true (mentions "2"));
  Alcotest.(check int) "dropping add bumps the counter" 1
    (Metrics.value (Metrics.counter "obs.timeline.dropped"))

let test_openmetrics () =
  Metrics.reset ();
  let c = Metrics.counter "test.om.counter" in
  Metrics.add c 7;
  let g = Metrics.gauge "test.om.gauge" in
  Metrics.set_gauge g 2.5;
  let h = Metrics.histogram ~buckets:[| 1.0; 10.0 |] "test.om.hist" in
  List.iter (Metrics.observe h) [ 0.5; 5.0; 50.0 ];
  let out = Metrics.dump_openmetrics () in
  Alcotest.(check string) "deterministic for a fixed registry" out
    (Metrics.dump_openmetrics ());
  let has needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (has needle))
    [
      "# TYPE test_om_counter counter";
      "test_om_counter_total 7";
      "test_om_gauge 2.5";
      "test_om_hist_bucket{le=\"1.0\"} 1";
      (* cumulative: the 10-bucket includes the 1-bucket's observation *)
      "test_om_hist_bucket{le=\"10.0\"} 2";
      "test_om_hist_bucket{le=\"+Inf\"} 3";
      "test_om_hist_count 3";
    ];
  Alcotest.(check bool) "dotted names are sanitized away" true
    (not (has "test.om"));
  Alcotest.(check bool) "ends with EOF marker" true
    (String.length out >= 6
    && String.sub out (String.length out - 6) 6 = "# EOF\n");
  Alcotest.(check string) "label escaping" "a\\\\b\\\"c\\nd"
    (Metrics.escape_label_value "a\\b\"c\nd")

let test_json_export () =
  let tl = Timeline.create ~capacity:16 () in
  Timeline.set_process tl ~pid:1 "cluster 0";
  Timeline.set_thread tl ~pid:1 ~tid:0 "sm 0 alu";
  Timeline.add tl ~pid:1 ~tid:0 ~cat:"alu" ~name:"w0" ~ts:20 ~dur:10;
  Timeline.add tl ~pid:1 ~tid:0 ~cat:"alu" ~name:"w1" ~ts:0 ~dur:10;
  let spans =
    [
      {
        Span.name = "model";
        start_us = 1.0;
        dur_us = 2.0;
        attrs = [ ("kernel", "k") ];
        deltas = [ ("engine.runs", 1) ];
      };
    ]
  in
  let json = Timeline.to_json ~scale:0.1 ~spans tl in
  (* Well-formed enough for a structural scan: balanced braces, the two
     slice events sorted by ts, metadata first, and the span on pid 0. *)
  let depth = ref 0 and min_depth = ref 0 in
  String.iter
    (fun c ->
      (match c with
      | '{' | '[' -> incr depth
      | '}' | ']' -> decr depth
      | _ -> ());
      if !depth < !min_depth then min_depth := !depth)
    json;
  Alcotest.(check int) "brackets balance" 0 !depth;
  Alcotest.(check int) "never negative depth" 0 !min_depth;
  let find needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i =
      if i + nl > jl then None
      else if String.sub json i nl = needle then Some i
      else go (i + 1)
    in
    go 0
  in
  let pos needle =
    match find needle with
    | Some i -> i
    | None -> Alcotest.failf "missing %S in JSON" needle
  in
  Alcotest.(check bool) "metadata precedes slices" true
    (pos "process_name" < pos "\"w1\"");
  Alcotest.(check bool) "slices sorted by ts" true (pos "\"w1\"" < pos "\"w0\"");
  Alcotest.(check bool) "span present on pid 0" true
    (match find "\"model\"" with Some _ -> true | None -> false);
  Alcotest.(check bool) "scale applied (20 ticks -> 2)" true
    (match find "\"ts\":2," with Some _ -> true | None -> false)

let test_json_number () =
  Alcotest.(check string) "nan is null" "null" (Json.number Float.nan);
  Alcotest.(check string) "inf is null" "null" (Json.number Float.infinity);
  Alcotest.(check string) "integral stays integral" "3" (Json.number 3.0);
  Alcotest.(check string) "escapes quotes" "\"a\\\"b\"" (Json.quoted "a\"b")

(* --- percentiles ---------------------------------------------------------- *)

let test_quantile_empty () =
  let bounds = [| 1.0; 2.0 |] in
  Alcotest.(check bool) "empty histogram has no quantile" true
    (Metrics.quantile_of_buckets ~bounds ~counts:[| 0; 0; 0 |] 0.5 = None);
  Alcotest.check_raises "counts length validated"
    (Invalid_argument "Metrics.quantile_of_buckets: counts must be bounds + 1")
    (fun () ->
      ignore (Metrics.quantile_of_buckets ~bounds ~counts:[| 0; 0 |] 0.5))

let test_quantile_single_bucket () =
  let bounds = [| 1.0; 2.0; 4.0 |] in
  (* all mass in [1, 2): interpolate inside that bucket *)
  let counts = [| 0; 100; 0; 0 |] in
  let q p = Option.get (Metrics.quantile_of_buckets ~bounds ~counts p) in
  Alcotest.(check (float 1e-9)) "p50 lands mid-bucket" 1.5 (q 0.5);
  Alcotest.(check (float 1e-9)) "p100 is the upper edge" 2.0 (q 1.0);
  (* the first bucket interpolates from an implicit lower edge of 0 *)
  Alcotest.(check (float 1e-9)) "first bucket starts at 0" 0.5
    (Option.get
       (Metrics.quantile_of_buckets ~bounds ~counts:[| 10; 0; 0; 0 |] 0.5))

let test_quantile_overflow () =
  let bounds = [| 1.0; 2.0 |] in
  let counts = [| 1; 1; 8 |] in
  (* the rank lands in the overflow bucket, which has no upper edge:
     report the largest finite bound rather than inventing one *)
  Alcotest.(check (float 1e-9)) "overflow rank clamps to last bound" 2.0
    (Option.get (Metrics.quantile_of_buckets ~bounds ~counts 0.99));
  Alcotest.(check bool) "overflow-only with no bounds is None" true
    (Metrics.quantile_of_buckets ~bounds:[||] ~counts:[| 5 |] 0.5 = None)

let test_hist_percentiles () =
  Metrics.reset ();
  let h = Metrics.histogram ~buckets:[| 0.1; 1.0; 10.0 |] "test.obs.pct" in
  for _ = 1 to 50 do
    Metrics.observe h 0.05
  done;
  for _ = 1 to 50 do
    Metrics.observe h 5.0
  done;
  let hs =
    List.find
      (fun s -> s.Metrics.hs_name = "test.obs.pct")
      (Metrics.snapshot_histograms ())
  in
  Alcotest.(check int) "snapshot count" 100 hs.Metrics.hs_count;
  let p50, p95, p99 = Metrics.percentiles hs in
  Alcotest.(check (float 1e-9)) "p50" 0.1 (Option.get p50);
  Alcotest.(check (float 1e-9)) "p95" 9.1 (Option.get p95);
  Alcotest.(check (float 1e-9)) "p99" 9.82 (Option.get p99)

let prop_quantile_monotone =
  QCheck.Test.make ~count:500 ~name:"quantile is monotone in q"
    QCheck.(
      pair
        (array_of_size (Gen.return 5) (int_range 0 50))
        (pair (int_range 0 100) (int_range 0 100)))
    (fun (counts, (a, b)) ->
      let bounds = [| 1.0; 2.0; 4.0; 8.0 |] in
      let qa = float_of_int (min a b) /. 100. in
      let qb = float_of_int (max a b) /. 100. in
      match
        ( Metrics.quantile_of_buckets ~bounds ~counts qa,
          Metrics.quantile_of_buckets ~bounds ~counts qb )
      with
      | Some va, Some vb -> va <= vb +. 1e-9
      | None, None -> Array.for_all (fun c -> c = 0) counts
      | _ -> false)

(* Spans' first use from racing domains.  The epoch every span is timed
   against must already be set: a first use that initialized it would
   race.  Each child process (this binary re-run with [span_race_flag])
   turns spans on and has four domains open their first span together;
   an exception in a racer makes [Domain.join] re-raise it, so the child
   exits nonzero. *)
let span_race_flag = "--span-race-child"

let span_race_child () =
  Span.set_enabled true;
  let ready = Atomic.make 0 in
  let racer () =
    Atomic.incr ready;
    while Atomic.get ready < 4 do
      Domain.cpu_relax ()
    done;
    Span.with_ "race" ignore
  in
  List.iter Domain.join (List.init 4 (fun _ -> Domain.spawn racer))

let test_span_first_use_race () =
  let child =
    Filename.quote_command Sys.executable_name [ span_race_flag ]
      ~stdout:Filename.null ~stderr:Filename.null
  in
  let failed = ref 0 in
  for _ = 1 to 20 do
    if Sys.command child <> 0 then incr failed
  done;
  Alcotest.(check int) "child processes whose first spans failed" 0 !failed

(* --- structured log ------------------------------------------------------- *)

module Log = Gpu_obs.Log

let with_log_file f =
  let path = Filename.temp_file "gpuperf_log" ".jsonl" in
  let sink = Log.open_file ~append:false path in
  Fun.protect
    ~finally:(fun () ->
      Log.close sink;
      Log.set_level Log.Info;
      Log.set_debug_keep 1;
      if Sys.file_exists path then Sys.remove path)
    (fun () -> f path sink)

let read_lines path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec go acc =
        match input_line ic with
        | line -> go (line :: acc)
        | exception End_of_file -> List.rev acc
      in
      go [])

let test_log_concurrent () =
  with_log_file @@ fun path sink ->
  Log.reset_counters ();
  let domains = 4 and per = 200 in
  let ds =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per do
              Log.event ~sink
                ~trace_id:(Printf.sprintf "%016d" d)
                ~attrs:[ ("i", Log.I i); ("d", Log.I d) ]
                Log.Info ~component:"test" "evt"
            done))
  in
  List.iter Domain.join ds;
  let lines = read_lines path in
  Alcotest.(check int) "every event is one line" (domains * per)
    (List.length lines);
  List.iter
    (fun line ->
      (* whole-line integrity: writes from four domains never
         interleave bytes, so each line parses as one flat object with
         the mandatory keys *)
      Alcotest.(check bool) "line is one object" true
        (String.length line > 2
        && line.[0] = '{'
        && line.[String.length line - 1] = '}');
      List.iter
        (fun needle ->
          let nl = String.length needle and ll = String.length line in
          let rec go i =
            i + nl <= ll && (String.sub line i nl = needle || go (i + 1))
          in
          Alcotest.(check bool) (needle ^ " present") true (go 0))
        [ "\"level\":\"info\""; "\"component\":\"test\""; "\"trace_id\":" ])
    lines;
  Alcotest.(check int) "emitted counter exact" (domains * per)
    (Log.emitted ());
  Alcotest.(check int) "nothing dropped" 0 (Log.dropped ())

let test_log_threshold_and_sampling () =
  with_log_file @@ fun path sink ->
  Log.reset_counters ();
  Log.set_level Log.Warn;
  Log.event ~sink Log.Info ~component:"test" "below threshold";
  Alcotest.(check int) "below-threshold event dropped" 1 (Log.dropped ());
  Alcotest.(check int) "and not emitted" 0 (Log.emitted ());
  Log.set_level Log.Debug;
  Log.set_debug_keep 3;
  for _ = 1 to 9 do
    Log.event ~sink Log.Debug ~component:"test" "dbg"
  done;
  Alcotest.(check int) "1-in-3 debug sampling keeps exactly 3" 3
    (Log.emitted ());
  Alcotest.(check int) "drop counter exact" 7 (Log.dropped ());
  Alcotest.(check int) "file agrees with the counters" 3
    (List.length (read_lines path))

(* --- lock release ------------------------------------------------------------

   A critical section that raises must release its lock.  A domain
   blocked on a held lock cannot be joined, so the second call runs
   under [Watchdog] and fails after 2 s instead of hanging. *)

(* On /dev/full the first event's flush raises; a second event from
   another domain must then return (it may raise too), not block. *)
let test_log_failed_write_releases () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let sink = Log.open_file "/dev/full" in
  (match Log.event ~sink Log.Info ~component:"test" "first" with
  | () -> Alcotest.fail "a write to /dev/full succeeded"
  | exception Sys_error _ -> ());
  (match
     Watchdog.run "second event" (fun () ->
         Log.event ~sink Log.Info ~component:"test" "second")
   with
  | Ok () | Error (Sys_error _) -> ()
  | Error e -> Alcotest.failf "second event raised %s" (Printexc.to_string e));
  try Log.close sink with Sys_error _ -> ()

(* A metric whose construction raises must leave the registry usable. *)
let test_metrics_failed_register_releases () =
  Alcotest.check_raises "decreasing bounds rejected"
    (Invalid_argument "Metrics.histogram: bounds must be strictly increasing")
    (fun () ->
      ignore (Metrics.histogram ~buckets:[| 2.; 1. |] "test.obs.badhist"));
  match
    Watchdog.run "later registration" (fun () ->
        Metrics.counter "test.obs.after_badhist")
  with
  | Ok c -> Alcotest.(check int) "registered" 0 (Metrics.value c)
  | Error e ->
    Alcotest.failf "later registration raised %s" (Printexc.to_string e)

(* --- trace context -------------------------------------------------------- *)

module Trace_ctx = Gpu_obs.Trace_ctx

let is_hex16 s =
  String.length s = 16
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       s

let test_trace_ids () =
  Trace_ctx.set_seed 42;
  let a = Trace_ctx.next_id () in
  let b = Trace_ctx.next_id () in
  Alcotest.(check bool) "16 lowercase hex digits" true
    (is_hex16 a && is_hex16 b);
  Alcotest.(check bool) "consecutive ids differ" true (a <> b);
  Trace_ctx.set_seed 42;
  Alcotest.(check string) "sequence is seed-deterministic" a
    (Trace_ctx.next_id ())

let test_trace_ctx_breakdown () =
  let t = Trace_ctx.make ~id:"deadbeefdeadbeef" () in
  Alcotest.(check string) "explicit id kept" "deadbeefdeadbeef"
    (Trace_ctx.id t);
  let v =
    Trace_ctx.span t "outer" (fun () ->
        Trace_ctx.span t "inner" (fun () -> 42))
  in
  Alcotest.(check int) "span returns the body's value" 42 v;
  Alcotest.(check int) "both depths recorded" 2
    (List.length (Trace_ctx.spans t));
  Alcotest.(check (list string)) "only depth 0 counts as a stage"
    [ "outer" ]
    (List.map (fun s -> s.Span.name) (Trace_ctx.stages t));
  Trace_ctx.stage t "queue-wait" ~start_us:0.0 ~dur_us:5.0;
  let outer = List.hd (List.rev (Trace_ctx.stages t)) in
  let total = 5.0 +. outer.Span.dur_us +. 10.0 in
  let bd = Trace_ctx.breakdown t ~total_us:total in
  Alcotest.(check (list string)) "chronological stages plus residual"
    [ "queue-wait"; "outer"; "other" ]
    (List.map fst bd);
  let sum = List.fold_left (fun a (_, d) -> a +. d) 0.0 bd in
  Alcotest.(check (float 1e-6)) "breakdown tiles the total" total sum;
  Alcotest.(check (float 1e-6)) "residual is the uninstrumented rest" 10.0
    (List.assoc "other" bd)

let test_trace_ctx_exn () =
  let t = Trace_ctx.make () in
  let d = Gpu_diag.Diag.error Gpu_diag.Diag.Exec "boom" in
  (try
     Trace_ctx.span t "failing" (fun () ->
         raise (Gpu_diag.Diag.Diag_error d))
   with Gpu_diag.Diag.Diag_error _ -> ());
  match Trace_ctx.spans t with
  | [ s ] ->
    Alcotest.(check (option string)) "severity tagged" (Some "error")
      (List.assoc_opt "diag.severity" s.Span.attrs);
    Alcotest.(check (option string)) "stage tagged" (Some "exec")
      (List.assoc_opt "diag.stage" s.Span.attrs)
  | l -> Alcotest.failf "expected one span, got %d" (List.length l)

let test_timeline_tracks () =
  let tl = Timeline.create ~capacity:4 () in
  let span name start_us dur_us =
    { Span.name; start_us; dur_us; attrs = []; deltas = [] }
  in
  let json =
    Timeline.to_json
      ~tracks:
        [
          ("req A [aa]", [ span "s1" 0.0 5.0 ]);
          ("req B [bb]", [ span "s2" 5.0 5.0 ]);
        ]
      tl
  in
  let find needle =
    let nl = String.length needle and jl = String.length json in
    let rec go i = i + nl <= jl && (String.sub json i nl = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true (find needle))
    [
      "\"req A [aa]\""; "\"req B [bb]\""; "\"s1\""; "\"s2\"";
      "\"tid\":1"; "\"tid\":2"; "thread_name";
    ]

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = span_race_flag then begin
    span_race_child ();
    exit 0
  end

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch;
          Alcotest.test_case "gauge and histogram" `Quick test_gauge_histogram;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        ] );
      ( "spans",
        [
          Alcotest.test_case "disabled is silent" `Quick test_span_disabled;
          Alcotest.test_case "records nesting, attrs, deltas" `Quick
            test_span_records;
          Alcotest.test_case "records on exception" `Quick test_span_exception;
          Alcotest.test_case "first use from racing domains" `Quick
            test_span_first_use_race;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "ring buffer drops oldest" `Quick test_ring;
          Alcotest.test_case "drop warning" `Quick test_drop_warning;
          Alcotest.test_case "openmetrics exposition" `Quick test_openmetrics;
          Alcotest.test_case "trace-event JSON export" `Quick test_json_export;
          Alcotest.test_case "json primitives" `Quick test_json_number;
          Alcotest.test_case "request tracks export" `Quick
            test_timeline_tracks;
        ] );
      ( "percentiles",
        [
          Alcotest.test_case "empty and invalid input" `Quick
            test_quantile_empty;
          Alcotest.test_case "single-bucket interpolation" `Quick
            test_quantile_single_bucket;
          Alcotest.test_case "overflow bucket" `Quick test_quantile_overflow;
          Alcotest.test_case "histogram snapshot percentiles" `Quick
            test_hist_percentiles;
          QCheck_alcotest.to_alcotest prop_quantile_monotone;
        ] );
      ( "log",
        [
          Alcotest.test_case "concurrent domains never interleave" `Quick
            test_log_concurrent;
          Alcotest.test_case "threshold and debug sampling" `Quick
            test_log_threshold_and_sampling;
        ] );
      ( "trace-ctx",
        [
          Alcotest.test_case "splitmix64 ids" `Quick test_trace_ids;
          Alcotest.test_case "stages and breakdown tiling" `Quick
            test_trace_ctx_breakdown;
          Alcotest.test_case "exception tags diag attrs" `Quick
            test_trace_ctx_exn;
        ] );
      (* last: at a lock that stays held, later registrations would
         block *)
      ( "lock release",
        [
          Alcotest.test_case "log sink after a failed write" `Quick
            test_log_failed_write_releases;
          Alcotest.test_case "metrics registry after a failed register"
            `Quick test_metrics_failed_register_releases;
        ] );
    ]
