(* Tests for the analysis daemon: protocol round-trips, request budgets,
   and the robustness properties end-to-end against an in-process server
   — deadline expiry, full-queue backpressure, crash isolation,
   oversized/malformed input, HTTP endpoints and graceful drain. *)

module D = Gpu_diag.Diag
module P = Gpu_serve.Protocol
module Budget = Gpu_serve.Budget
module Server = Gpu_serve.Server
module Client = Gpu_serve.Client
module Jsonx = Gpu_report.Jsonx

(* Keep the pool small and the cache private; a worker writing to a
   closed test socket must not kill the binary. *)
let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  ignore (Private_cache.use "serve");
  Gpu_parallel.Pool.set_jobs 2

let ok_or_fail what = function
  | Ok v -> v
  | Error d -> Alcotest.failf "%s: %s" what (D.to_string d)

(* --- protocol ------------------------------------------------------------- *)

let sample_requests =
  [
    {
      P.id = "a";
      params = P.Matmul { n = 64; tile = 8 };
      device = "baseline";
      format = P.Json;
      deadline_ms = None;
      measure = false;
      sample = None;
    };
    {
      P.id = "b-42";
      params = P.Tridiag { nsys = 16; n = 32; padded = true };
      device = "banks17";
      format = P.Md;
      deadline_ms = Some 250;
      measure = true;
      sample = Some 2;
    };
    {
      P.id = "";
      params = P.Spmv { spmv_format = Gpu_workloads.Spmv.Bell_imiv };
      device = "earlyrelease";
      format = P.Html;
      deadline_ms = Some 0;
      measure = false;
      sample = None;
    };
  ]

let test_request_roundtrip () =
  List.iter
    (fun req ->
      let line = P.encode_request req in
      match P.parse_request line with
      | Error d -> Alcotest.failf "round-trip parse failed: %s" (D.to_string d)
      | Ok req' ->
        Alcotest.(check bool)
          ("request survives encode∘parse: " ^ line)
          true (req = req');
        (* and encoding is stable across a second trip *)
        Alcotest.(check string)
          "encode is stable" line (P.encode_request req'))
    sample_requests

let test_request_defaults () =
  let req =
    ok_or_fail "minimal request"
      (P.parse_request {|{"workload":"matmul"}|})
  in
  Alcotest.(check bool)
    "defaults applied" true
    (req.P.params = P.Matmul { n = 1024; tile = 16 }
    && req.P.device = "baseline" && req.P.format = P.Json
    && req.P.deadline_ms = None && (not req.P.measure) && req.P.sample = None)

let test_request_rejections () =
  let cases =
    [
      ("not json at all", "{nope");
      ("not an object", "[1,2]");
      ("missing workload", {|{"id":"x"}|});
      ("unknown workload", {|{"workload":"fft"}|});
      ("unknown key", {|{"workload":"matmul","dedline_ms":5}|});
      ("unknown param key", {|{"workload":"matmul","params":{"m":4}}|});
      ( "another workload's param key",
        {|{"workload":"histogram","params":{"tile":16}}|} );
      ("unknown device", {|{"workload":"matmul","device":"gtx9999"}|});
      ("unknown format", {|{"workload":"matmul","format":"pdf"}|});
      ("negative deadline", {|{"workload":"matmul","deadline_ms":-1}|});
      ("non-integer n", {|{"workload":"matmul","params":{"n":1.5}}|});
      ("zero n", {|{"workload":"matmul","params":{"n":0}}|});
      ("bad spmv format", {|{"workload":"spmv","params":{"format":"coo"}}|});
    ]
  in
  List.iter
    (fun (what, line) ->
      match P.parse_request line with
      | Ok _ -> Alcotest.failf "%s: expected a parse error" what
      | Error d ->
        Alcotest.(check bool)
          (what ^ " is a Serve-stage error")
          true
          (d.D.stage = D.Serve && d.D.severity = D.Error))
    cases

let test_response_roundtrip () =
  let resp =
    P.response ~confidence:"calibrated"
      ~body:(Jsonx.Obj [ ("x", Jsonx.Num 1.0) ])
      ~diags:
        [
          D.error D.Budget ~hint:"wait" "queue full";
          D.warning D.Model "out of range";
        ]
      ~retry_after_ms:500 ~queue_depth:3 ~id:"r9" ~elapsed_ms:12.5
      P.Overloaded
  in
  let line = P.encode_response resp in
  let resp' = ok_or_fail "parse_response" (P.parse_response line) in
  Alcotest.(check string) "id" "r9" resp'.P.r_id;
  Alcotest.(check bool) "status" true (resp'.P.status = P.Overloaded);
  Alcotest.(check (float 1e-9)) "elapsed" 12.5 resp'.P.elapsed_ms;
  Alcotest.(check (option int)) "retry_after" (Some 500)
    resp'.P.retry_after_ms;
  Alcotest.(check (option int)) "queue_depth" (Some 3) resp'.P.queue_depth;
  Alcotest.(check int) "both diags survive" 2 (List.length resp'.P.diags);
  let d = List.hd resp'.P.diags in
  Alcotest.(check bool)
    "diag fields survive" true
    (d.D.stage = D.Budget && d.D.message = "queue full"
    && d.D.hint = Some "wait")

let test_response_trace_fields () =
  (* the observability fields survive encode∘parse, and the second
     encode is byte-stable *)
  let resp =
    P.response ~confidence:"calibrated" ~trace_id:"00ff00ff00ff00ff"
      ~stage_breakdown:
        [
          ("queue-wait", 12.5); ("compile", 100.0); ("model", 40.25);
          ("other", 7.0);
        ]
      ~id:"t1" ~elapsed_ms:0.15975 P.Completed
  in
  let line = P.encode_response resp in
  let resp' = ok_or_fail "parse_response" (P.parse_response line) in
  Alcotest.(check (option string)) "trace_id survives"
    (Some "00ff00ff00ff00ff") resp'.P.trace_id;
  Alcotest.(check int) "all stages survive" 4
    (List.length resp'.P.stage_breakdown);
  Alcotest.(check bool)
    "stage order and values survive" true
    (resp.P.stage_breakdown = resp'.P.stage_breakdown);
  Alcotest.(check string) "encode is stable" line (P.encode_response resp');
  (* absent fields stay absent: no trace_id key, no stage_us key *)
  let bare = P.response ~id:"t2" ~elapsed_ms:1.0 P.Failed in
  let bare' =
    ok_or_fail "parse bare" (P.parse_response (P.encode_response bare))
  in
  Alcotest.(check (option string)) "no trace_id invented" None
    bare'.P.trace_id;
  Alcotest.(check int) "no stages invented" 0
    (List.length bare'.P.stage_breakdown)

let test_status_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        ("status name round-trip: " ^ P.status_name s)
        true
        (P.status_of_name (P.status_name s) = Some s))
    [
      P.Completed; P.Failed; P.Timed_out; P.Overloaded; P.Shutting_down;
      P.Malformed;
    ]

let test_devices () =
  Alcotest.(check bool)
    "baseline heads the fleet" true
    (List.hd Gpu_hw.Spec.fleet = ("baseline", Gpu_hw.Spec.gtx285));
  Alcotest.(check int) "ten devices" 10 (List.length Gpu_hw.Spec.fleet);
  Alcotest.(check bool)
    "lookup works" true
    (P.device_of_name "banks17" <> None && P.device_of_name "nope" = None);
  Alcotest.(check bool)
    "later-generation profiles resolve" true
    (P.device_of_name "volta-like" = Some Gpu_hw.Spec.volta_like
    && P.device_of_name "ampere-like" = Some Gpu_hw.Spec.ampere_like)

(* --- budget arithmetic ---------------------------------------------------- *)

let limits = Budget.default_limits

let req_with_deadline d =
  { (List.hd sample_requests) with P.deadline_ms = d }

let test_deadlines () =
  let now = 1000.0 in
  Alcotest.(check bool)
    "no deadline, no default" true
    (Budget.deadline_at ~now ~limits (req_with_deadline None) = None);
  Alcotest.(check bool)
    "explicit deadline" true
    (Budget.deadline_at ~now ~limits (req_with_deadline (Some 250))
    = Some 1000.25);
  let with_default =
    { limits with Budget.default_deadline_ms = Some 100 }
  in
  Alcotest.(check bool)
    "server default applies" true
    (Budget.deadline_at ~now ~limits:with_default (req_with_deadline None)
    = Some 1000.1);
  Alcotest.(check bool)
    "explicit beats default" true
    (Budget.deadline_at ~now ~limits:with_default
       (req_with_deadline (Some 250))
    = Some 1000.25);
  Alcotest.(check bool)
    "0ms expires at admission" true
    (Budget.expired ~now
       (Budget.deadline_at ~now ~limits (req_with_deadline (Some 0))));
  Alcotest.(check bool)
    "unbounded never expires" true
    (not (Budget.expired ~now:1e12 None))

let test_working_set () =
  let ws p = Budget.working_set_bytes p in
  Alcotest.(check bool)
    "matmul grows quadratically" true
    (ws (P.Matmul { n = 2048; tile = 16 })
    = 4 * ws (P.Matmul { n = 1024; tile = 16 }));
  Alcotest.(check bool)
    "tridiag scales with both axes" true
    (ws (P.Tridiag { nsys = 512; n = 512; padded = false })
    > ws (P.Tridiag { nsys = 16; n = 32; padded = false }));
  Alcotest.(check bool)
    "default limits admit the paper's workloads" true
    (ws (P.Matmul { n = 1024; tile = 16 })
     < limits.Budget.max_working_set_bytes
    && ws (P.Spmv { spmv_format = Gpu_workloads.Spmv.Ell })
       < limits.Budget.max_working_set_bytes)

let test_retry_after () =
  Alcotest.(check bool)
    "hint has a floor" true
    (Budget.retry_after_ms ~limits ~queue_depth:0 >= 100);
  Alcotest.(check bool)
    "hint grows with overload" true
    (Budget.retry_after_ms ~limits ~queue_depth:(limits.Budget.queue_cap + 10)
    > Budget.retry_after_ms ~limits ~queue_depth:limits.Budget.queue_cap)

let test_replay_sample_policy () =
  let frac = Budget.replay_sample_fraction in
  Alcotest.(check bool)
    "unmeasured requests never sample" true
    (frac ~measure:false ~remaining_ms:(Some 1.0) = None);
  Alcotest.(check bool)
    "unbounded budget replays exactly" true
    (frac ~measure:true ~remaining_ms:None = None);
  Alcotest.(check bool)
    "ample budget replays exactly" true
    (frac ~measure:true ~remaining_ms:(Some 60_000.0) = None);
  Alcotest.(check bool)
    "tight budget samples 30%" true
    (frac ~measure:true ~remaining_ms:(Some 8_000.0) = Some 0.3);
  Alcotest.(check bool)
    "desperate budget samples 10%" true
    (frac ~measure:true ~remaining_ms:(Some 500.0) = Some 0.1)

(* --- in-process server ---------------------------------------------------- *)

let with_server ?(limits = Budget.default_limits) ?(write_ledger = false) f =
  let cfg =
    {
      Server.endpoint = P.Tcp ("127.0.0.1", 0);
      limits;
      access_log = None;
      write_ledger;
    }
  in
  let t = ok_or_fail "Server.create" (Server.create cfg) in
  let runner = Domain.spawn (fun () -> Server.run t) in
  Fun.protect
    ~finally:(fun () ->
      Server.stop t;
      ignore (Domain.join runner))
    (fun () -> f t (Server.bound_endpoint t))

let with_client endpoint f =
  let c = ok_or_fail "connect" (Client.connect endpoint) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let small_matmul ?deadline_ms ?(id = "t") () =
  {
    P.id;
    params = P.Matmul { n = 64; tile = 8 };
    device = "baseline";
    format = P.Json;
    deadline_ms;
    measure = false;
    sample = None;
  }

(* Warm the per-process calibration tables once so server tests measure
   serving behavior, not first-touch calibration. *)
let warm =
  lazy (ignore (Gpu_microbench.Tables.for_spec Gpu_hw.Spec.gtx285))

let test_serve_ok () =
  Lazy.force warm;
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  let resp =
    ok_or_fail "request" (Client.request c (small_matmul ~id:"ok-1" ()))
  in
  Alcotest.(check string) "id echoed" "ok-1" resp.P.r_id;
  Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
  Alcotest.(check bool)
    "has confidence" true
    (resp.P.confidence = Some "calibrated"
    || resp.P.confidence = Some "degraded");
  let body = Option.get resp.P.body in
  Alcotest.(check bool)
    "body has the analysis" true
    (Jsonx.member "predicted_s" body <> None
    && Jsonx.member "bottleneck" body <> None
    && Jsonx.member "occupancy" body <> None);
  Alcotest.(check bool) "elapsed measured" true (resp.P.elapsed_ms >= 0.)

let test_serve_trace_breakdown () =
  Lazy.force warm;
  with_server @@ fun t ep ->
  with_client ep @@ fun c ->
  let resp =
    ok_or_fail "request"
      (Client.request c
         { (small_matmul ~id:"tr-1" ()) with P.measure = true })
  in
  Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
  let trace_id = Option.get resp.P.trace_id in
  Alcotest.(check int) "trace id is 16 hex digits" 16
    (String.length trace_id);
  Alcotest.(check bool) "trace id is lowercase hex" true
    (String.for_all
       (fun ch -> (ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f'))
       trace_id);
  (* the per-stage breakdown tiles the end-to-end latency: stage sum =
     elapsed within float rounding, with the workflow stages present *)
  let stages = List.map fst resp.P.stage_breakdown in
  List.iter
    (fun s ->
      Alcotest.(check bool) ("stage " ^ s ^ " present") true
        (List.mem s stages))
    [ "queue-wait"; "compile"; "functional-sim"; "model"; "timing-replay";
      "render" ];
  let sum_us =
    List.fold_left (fun a (_, us) -> a +. us) 0.0 resp.P.stage_breakdown
  in
  let total_us = resp.P.elapsed_ms *. 1000. in
  Alcotest.(check bool)
    (Printf.sprintf "stage sum (%.1f us) tiles elapsed (%.1f us)" sum_us
       total_us)
    true
    (Float.abs (sum_us -. total_us) < 0.5);
  List.iter
    (fun (s, us) ->
      Alcotest.(check bool) ("stage " ^ s ^ " non-negative") true (us >= 0.))
    resp.P.stage_breakdown;
  (* a second request draws a different trace id *)
  let resp2 =
    ok_or_fail "request"
      (Client.request c (small_matmul ~id:"tr-2" ()))
  in
  Alcotest.(check bool) "trace ids are unique" true
    (resp2.P.trace_id <> resp.P.trace_id);
  (* the server retained both span trees for trace-serve export *)
  let traces = Server.recent_traces t in
  Alcotest.(check int) "both traces retained" 2 (List.length traces);
  Alcotest.(check bool)
    "labels carry workload and status" true
    (List.for_all (fun (label, _) -> label = "matmul ok") traces);
  let _, ctx = List.hd traces in
  Alcotest.(check bool)
    "first retained trace is the first request" true
    (Some (Gpu_obs.Trace_ctx.id ctx) = resp.P.trace_id)

let test_serve_markdown () =
  Lazy.force warm;
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  let req = { (small_matmul ~id:"md" ()) with P.format = P.Md } in
  let resp = ok_or_fail "request" (Client.request c req) in
  Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
  Alcotest.(check bool) "no json body" true (resp.P.body = None);
  let doc = Option.get resp.P.rendered in
  Alcotest.(check bool)
    "rendered markdown report" true
    (String.length doc > 200
    && String.sub doc 0 1 = "#" (* title heading *))

let test_serve_reduce_ledger () =
  Lazy.force warm;
  (* The suite's private GPUPERF_CACHE_DIR holds the ledgers. *)
  let ledger w = Option.get (Gpu_report.Ledger.default_path ~workload:w) in
  List.iter
    (fun w -> if Sys.file_exists (ledger w) then Sys.remove (ledger w))
    [ "reduce"; "reduce-atomic" ];
  with_server ~write_ledger:true @@ fun _t ep ->
  with_client ep @@ fun c ->
  ok_or_fail "send"
    (Client.send_line c
       {|{"id":"ra","workload":"reduce","params":{"atomic":true}}|});
  let resp =
    ok_or_fail "parse" (P.parse_response (ok_or_fail "recv" (Client.recv_line c)))
  in
  Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
  Alcotest.(check bool)
    "the wire keeps the workload's wire name" true
    (Option.bind resp.P.body (Jsonx.member "workload")
    = Some (Jsonx.Str "reduce"));
  (* the ledger append happens before the response is written *)
  Alcotest.(check bool) "appended to reduce-atomic.jsonl" true
    (Sys.file_exists (ledger "reduce-atomic"));
  Alcotest.(check bool) "tree reduce ledger untouched" false
    (Sys.file_exists (ledger "reduce"));
  let records, _ = Gpu_report.Ledger.load ~path:(ledger "reduce-atomic") in
  Alcotest.(check (list string)) "record labelled by kernel"
    [ "reduce-atomic" ]
    (List.map (fun r -> r.Gpu_report.Ledger.workload) records)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_serve_dashboard_labels () =
  Lazy.force warm;
  with_server ~write_ledger:true @@ fun _t ep ->
  with_client ep @@ fun c ->
  let req =
    { (small_matmul ~id:"da" ()) with
      P.params = P.Reduce { r_blocks = 64; r_atomic = true } }
  in
  let resp = ok_or_fail "request" (Client.request c req) in
  Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
  let page =
    Gpu_serve.Dashboard.html ~uptime_s:1.0 ~draining:false ~degraded:false
      ~queue_depth:0 ~queue_cap:1 ~connections:1 ()
  in
  Alcotest.(check bool) "accuracy table has a reduce-atomic row" true
    (contains page "<tr><td>reduce-atomic</td>")

let test_serve_ledger_append_metric () =
  Lazy.force warm;
  let appends () =
    match
      List.find_opt
        (fun h -> h.Gpu_obs.Metrics.hs_name = "serve.ledger.append_s")
        (Gpu_obs.Metrics.snapshot_histograms ())
    with
    | Some h -> h.Gpu_obs.Metrics.hs_count
    | None -> 0
  in
  let requests ~write_ledger =
    with_server ~write_ledger @@ fun _t ep ->
    with_client ep @@ fun c ->
    List.iter
      (fun id ->
        let before = appends () in
        let resp =
          ok_or_fail "request" (Client.request c (small_matmul ~id ()))
        in
        Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
        Alcotest.(check int)
          (Printf.sprintf "%s: appends observed (ledger %b)" id write_ledger)
          (if write_ledger then 1 else 0)
          (appends () - before))
      [ "m1"; "m2"; "m3" ]
  in
  requests ~write_ledger:true;
  requests ~write_ledger:false

(* A measured histogram request at the default parameters replays two
   sampled blocks replicated over the grid, so its ten clusters are four
   distinct ones: the daemon's replay answers the other six from those. *)
let test_serve_reuses_clusters () =
  Lazy.force warm;
  let reused () =
    Gpu_obs.Metrics.value (Gpu_obs.Metrics.counter "engine.clusters_reused")
  in
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  let before = reused () in
  ok_or_fail "send"
    (Client.send_line c
       {|{"id":"hist","workload":"histogram","measure":true}|});
  let resp =
    ok_or_fail "parse" (P.parse_response (ok_or_fail "recv" (Client.recv_line c)))
  in
  Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
  Alcotest.(check bool) "clusters reused" true (reused () > before)

(* A request's [sample] replaces the workload's own block sample: the
   model notes the scale it applied, 256x from one of the histogram's 256
   blocks where the workload's 2-block sample gives 128x. *)
let test_serve_sample_override () =
  Lazy.force warm;
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  let check_note sample note =
    let req =
      {
        (small_matmul ~id:"sample" ()) with
        P.params = P.Histogram { h_blocks = 256; bins = 64; skew = 0.8 };
        sample;
      }
    in
    let resp = ok_or_fail "request" (Client.request c req) in
    Alcotest.(check bool) "completed" true (resp.P.status = P.Completed);
    Alcotest.(check bool) note true
      (List.exists (fun (d : D.t) -> contains d.D.message note) resp.P.diags)
  in
  check_note (Some 1) "statistics scaled 256x from a 1-block sample";
  check_note None "statistics scaled 128x from a 2-block sample"

let test_serve_deadline_zero () =
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  let resp =
    ok_or_fail "request"
      (Client.request c (small_matmul ~deadline_ms:0 ~id:"dl0" ()))
  in
  Alcotest.(check bool) "timed out" true (resp.P.status = P.Timed_out);
  Alcotest.(check bool)
    "carries a Budget diagnostic" true
    (List.exists (fun d -> d.D.stage = D.Budget) resp.P.diags)

let test_serve_watchdog_timeout () =
  Lazy.force warm;
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  (* Real compute, unreachable deadline: the watchdog must answer while
     the worker is still simulating, and the daemon must survive the
     discarded late result. *)
  let req =
    {
      (small_matmul ~deadline_ms:1 ~id:"wd" ()) with
      P.params = P.Matmul { n = 1024; tile = 16 };
    }
  in
  let resp = ok_or_fail "request" (Client.request c req) in
  Alcotest.(check bool) "timed out" true (resp.P.status = P.Timed_out);
  (* follow-up on the same connection still works *)
  let resp2 =
    ok_or_fail "request" (Client.request c (small_matmul ~id:"after" ()))
  in
  Alcotest.(check bool) "daemon alive" true (resp2.P.status = P.Completed)

let test_serve_sampled_replay () =
  Lazy.force warm;
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  (* A measured heterogeneous replay (spmv's grid loads clusters
     unevenly) under a deadline tight enough to trip the sampling policy
     but generous enough to finish: instead of racing the watchdog to a
     timeout the daemon degrades to a sampled replay and says so. *)
  let req =
    {
      (small_matmul ~deadline_ms:8_000 ~id:"sampled" ()) with
      P.params = P.Spmv { spmv_format = Gpu_workloads.Spmv.Ell };
      measure = true;
    }
  in
  let resp = ok_or_fail "request" (Client.request c req) in
  Alcotest.(check bool) "completed, not timed out" true
    (resp.P.status = P.Completed);
  Alcotest.(check bool) "confidence degraded" true
    (resp.P.confidence = Some "degraded");
  Alcotest.(check bool)
    "carries the sampled-replay diagnostic" true
    (List.exists
       (fun (d : D.t) ->
         d.D.severity = D.Warning
         && d.D.stage = D.Timing
         &&
         let m = d.D.message in
         String.length m >= 21 && String.sub m 0 21 = "timing replay sampled")
       resp.P.diags)

let test_serve_backpressure () =
  Lazy.force warm;
  let limits = { Budget.default_limits with Budget.queue_cap = 1 } in
  with_server ~limits @@ fun _t ep ->
  with_client ep @@ fun c ->
  (* One write carrying three requests: they are admitted in one batch,
     before any completion can free the queue slot. *)
  let reqs =
    List.map
      (fun id -> P.encode_request (small_matmul ~id ()))
      [ "q1"; "q2"; "q3" ]
  in
  ok_or_fail "burst" (Client.send_line c (String.concat "\n" reqs));
  let resps =
    List.map
      (fun _ ->
        ok_or_fail "parse"
          (P.parse_response (ok_or_fail "recv" (Client.recv_line c))))
      reqs
  in
  let by_status s =
    List.filter (fun r -> r.P.status = s) resps |> List.length
  in
  (* Completions are written in finish order: the two rejections come
     back immediately, the admitted request later. *)
  Alcotest.(check int) "one admitted and completed" 1 (by_status P.Completed);
  Alcotest.(check int) "two refused" 2 (by_status P.Overloaded);
  List.iter
    (fun r ->
      if r.P.status = P.Overloaded then begin
        Alcotest.(check bool)
          "retry hint present" true
          (Option.value ~default:0 r.P.retry_after_ms >= 100);
        Alcotest.(check (option int)) "depth reported" (Some 1)
          r.P.queue_depth
      end)
    resps

let test_serve_crash_isolation () =
  Lazy.force warm;
  with_server @@ fun _t ep ->
  with_client ep @@ fun c ->
  (* n=100 passes protocol validation (positive) but violates the
     kernel's shape constraint — the failure must be contained. *)
  let req =
    { (small_matmul ~id:"boom" ()) with P.params = P.Matmul { n = 100; tile = 16 } }
  in
  let resp = ok_or_fail "request" (Client.request c req) in
  Alcotest.(check bool) "failed, not crashed" true (resp.P.status = P.Failed);
  Alcotest.(check bool)
    "error diagnostic explains" true
    (List.exists
       (fun d -> d.D.severity = D.Error && d.D.message <> "")
       resp.P.diags);
  let resp2 =
    ok_or_fail "request" (Client.request c (small_matmul ~id:"alive" ()))
  in
  Alcotest.(check bool)
    "worker slot reclaimed; daemon serves on" true
    (resp2.P.status = P.Completed)

let test_serve_malformed_and_oversized () =
  let limits = { Budget.default_limits with Budget.max_request_bytes = 512 } in
  with_server ~limits @@ fun _t ep ->
  with_client ep @@ fun c ->
  (* malformed JSON *)
  ok_or_fail "send" (Client.send_line c "{this is not json");
  let r1 =
    ok_or_fail "parse" (P.parse_response (ok_or_fail "recv" (Client.recv_line c)))
  in
  Alcotest.(check bool) "malformed rejected" true (r1.P.status = P.Malformed);
  (* oversized line (newline-terminated) *)
  ok_or_fail "send" (Client.send_line c (String.make 2000 'x'));
  let r2 =
    ok_or_fail "parse" (P.parse_response (ok_or_fail "recv" (Client.recv_line c)))
  in
  Alcotest.(check bool) "oversized rejected" true (r2.P.status = P.Malformed);
  Alcotest.(check bool)
    "oversized diag names the limit" true
    (List.exists
       (fun d -> d.D.stage = D.Serve || d.D.stage = D.Budget)
       r2.P.diags);
  (* the connection survives both *)
  ok_or_fail "send" (Client.send_line c {|{"op":"ping"}|});
  Alcotest.(check string)
    "connection still usable" {|{"op":"pong"}|}
    (ok_or_fail "recv" (Client.recv_line c))

let test_serve_ops_and_http () =
  with_server @@ fun t ep ->
  with_client ep
    (fun c ->
      ok_or_fail "send" (Client.send_line c {|{"op":"health"}|});
      let health =
        match Jsonx.parse (ok_or_fail "recv" (Client.recv_line c)) with
        | Ok j -> j
        | Error m -> Alcotest.failf "health is not json: %s" m
      in
      Alcotest.(check bool)
        "health reports ok" true
        (Jsonx.member "status" health = Some (Jsonx.Str "ok"));
      Alcotest.(check bool)
        "health mirrors the server" true
        (Jsonx.member "cache_degraded" health
        = Some (Jsonx.Bool (Server.cache_degraded t))));
  (* raw HTTP on the same port *)
  let http target =
    with_client ep (fun c ->
        ok_or_fail "send"
          (Client.send_line c (Printf.sprintf "GET %s HTTP/1.0\r" target));
        let buf = Buffer.create 256 in
        let rec slurp () =
          match Client.recv_line ~timeout_s:5.0 c with
          | Ok line ->
            Buffer.add_string buf (line ^ "\n");
            slurp ()
          | Error _ -> Buffer.contents buf
        in
        slurp ())
  in
  let health = http "/healthz" in
  Alcotest.(check bool)
    "/healthz is HTTP 200 JSON" true
    (String.length health > 0
    && String.sub health 0 12 = "HTTP/1.0 200");
  let metrics = http "/metrics" in
  Alcotest.(check bool)
    "/metrics is OpenMetrics with serve counters" true
    (String.sub metrics 0 12 = "HTTP/1.0 200");
  Alcotest.(check bool)
    "serve counters exported" true
    (contains metrics "serve_requests");
  Alcotest.(check bool)
    "cluster reuse exported" true
    (contains metrics "engine_clusters_reused");
  let missing = http "/nope" in
  Alcotest.(check bool)
    "unknown endpoint is 404" true
    (String.sub missing 0 12 = "HTTP/1.0 404")

let test_serve_graceful_drain () =
  Lazy.force warm;
  let cfg =
    {
      Server.endpoint = P.Tcp ("127.0.0.1", 0);
      limits = Budget.default_limits;
      access_log = None;
      write_ledger = false;
    }
  in
  let t = ok_or_fail "Server.create" (Server.create cfg) in
  let runner = Domain.spawn (fun () -> Server.run t) in
  let ep = Server.bound_endpoint t in
  with_client ep (fun c ->
      (* submit real work, wait for admission, then request shutdown:
         the in-flight request must still be answered before [run]
         returns *)
      let req =
        {
          (small_matmul ~id:"drain" ()) with
          P.params = P.Matmul { n = 512; tile = 16 };
        }
      in
      ok_or_fail "send" (Client.send_line c (P.encode_request req));
      let admitted = Unix.gettimeofday () +. 10.0 in
      while
        Server.queue_depth t = 0 && Unix.gettimeofday () < admitted
      do
        Unix.sleepf 0.002
      done;
      Server.stop t;
      let resp =
        ok_or_fail "parse"
          (P.parse_response (ok_or_fail "recv" (Client.recv_line c)))
      in
      Alcotest.(check bool)
        "in-flight request drained" true
        (resp.P.status = P.Completed);
      (* a request submitted during the drain is refused, not dropped *)
      match Client.request ~timeout_s:5.0 c (small_matmul ~id:"late" ()) with
      | Ok r ->
        Alcotest.(check bool)
          "late request refused" true
          (r.P.status = P.Shutting_down)
      | Error _ -> () (* daemon already gone: also acceptable *));
  match Domain.join runner with
  | Ok () -> ()
  | Error d -> Alcotest.failf "drain was not clean: %s" (D.to_string d)

let () =
  Alcotest.run "serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "request encode∘parse round-trip" `Quick
            test_request_roundtrip;
          Alcotest.test_case "request defaults" `Quick test_request_defaults;
          Alcotest.test_case "malformed requests rejected" `Quick
            test_request_rejections;
          Alcotest.test_case "response round-trip" `Quick
            test_response_roundtrip;
          Alcotest.test_case "trace fields encode∘parse round-trip" `Quick
            test_response_trace_fields;
          Alcotest.test_case "status wire names" `Quick test_status_names;
          Alcotest.test_case "device fleet" `Quick test_devices;
        ] );
      ( "budget",
        [
          Alcotest.test_case "deadline arithmetic" `Quick test_deadlines;
          Alcotest.test_case "working-set estimates" `Quick test_working_set;
          Alcotest.test_case "retry-after hint" `Quick test_retry_after;
          Alcotest.test_case "replay-sampling policy" `Quick
            test_replay_sample_policy;
        ] );
      ( "daemon",
        [
          Alcotest.test_case "answers an analysis request" `Quick
            test_serve_ok;
          Alcotest.test_case "trace id and stage breakdown tile latency"
            `Quick test_serve_trace_breakdown;
          Alcotest.test_case "renders markdown bodies" `Quick
            test_serve_markdown;
          Alcotest.test_case "atomic reduce keeps its own ledger" `Quick
            test_serve_reduce_ledger;
          Alcotest.test_case "dashboard lists every ledger label" `Quick
            test_serve_dashboard_labels;
          Alcotest.test_case "ledger appends are observed" `Quick
            test_serve_ledger_append_metric;
          Alcotest.test_case "histogram replay reuses clusters" `Quick
            test_serve_reuses_clusters;
          Alcotest.test_case "a request's sample reaches the analysis" `Quick
            test_serve_sample_override;
          Alcotest.test_case "0ms deadline expires at admission" `Quick
            test_serve_deadline_zero;
          Alcotest.test_case "watchdog answers past-deadline compute" `Quick
            test_serve_watchdog_timeout;
          Alcotest.test_case "deadline pressure samples the replay" `Quick
            test_serve_sampled_replay;
          Alcotest.test_case "full queue pushes back" `Quick
            test_serve_backpressure;
          Alcotest.test_case "a crashing request is isolated" `Quick
            test_serve_crash_isolation;
          Alcotest.test_case "malformed and oversized lines" `Quick
            test_serve_malformed_and_oversized;
          Alcotest.test_case "control ops and HTTP endpoints" `Quick
            test_serve_ops_and_http;
          Alcotest.test_case "graceful drain" `Quick
            test_serve_graceful_drain;
        ] );
    ]
