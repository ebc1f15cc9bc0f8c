(* The daemon's live ops page, built from the same block-document engine
   as gpuperf report (Render): every number comes from the metrics
   registry or the accuracy ledger, so the page needs no state of its
   own and renders in one pass on the event-loop domain. *)

module Metrics = Gpu_obs.Metrics
module Log = Gpu_obs.Log
module Render = Gpu_report.Render
module Ledger = Gpu_report.Ledger

let counter_value name =
  match List.assoc_opt name (Metrics.snapshot_counters ()) with
  | Some v -> v
  | None -> 0

let gauge_value name =
  match List.assoc_opt name (Metrics.snapshot_gauges ()) with
  | Some v -> v
  | None -> 0.0

let fmt_ms = function
  | None -> "-"
  | Some s -> Printf.sprintf "%.2f ms" (s *. 1000.)

let fmt_ratio num den =
  if num + den = 0 then "-"
  else Printf.sprintf "%.1f%%" (100. *. float_of_int num /. float_of_int (num + den))

(* One percentile row per histogram whose name survives [keep]; the
   displayed label is the name with [strip] prefix/suffix removed. *)
let percentile_rows ~prefix ~suffix =
  Metrics.snapshot_histograms ()
  |> List.filter_map (fun hs ->
         let name = hs.Metrics.hs_name in
         let plen = String.length prefix and slen = String.length suffix in
         let nlen = String.length name in
         if
           nlen > plen + slen
           && String.sub name 0 plen = prefix
           && String.sub name (nlen - slen) slen = suffix
           && hs.Metrics.hs_count > 0
         then begin
           let label = String.sub name plen (nlen - plen - slen) in
           let p50, p95, p99 = Metrics.percentiles hs in
           Some
             [
               label;
               string_of_int hs.Metrics.hs_count;
               fmt_ms p50;
               fmt_ms p95;
               fmt_ms p99;
             ]
         end
         else None)

let percentile_table ~prefix ~suffix ~what =
  match percentile_rows ~prefix ~suffix with
  | [] -> [ Render.Para (Printf.sprintf "No %s observed yet." what) ]
  | rows ->
    [
      Render.Table
        {
          headers = [ what; "count"; "p50"; "p95"; "p99" ];
          aligns = [ Render.L; Render.R; Render.R; Render.R; Render.R ];
          rows;
        };
    ]

let status_blocks () =
  let rows =
    Metrics.snapshot_counters ()
    |> List.filter_map (fun (name, v) ->
           match String.length name with
           | n when n > 16 && String.sub name 0 16 = "serve.responses." ->
             let s = String.sub name 16 (n - 16) in
             if s = "discarded_late" then None
             else Some [ s; string_of_int v ]
           | _ -> None)
  in
  let rows = List.filter (fun r -> List.nth r 1 <> "0") rows in
  if rows = [] then [ Render.Para "No responses sent yet." ]
  else
    [
      Render.Table
        {
          headers = [ "status"; "count" ];
          aligns = [ Render.L; Render.R ];
          rows;
        };
    ]

let ledger_blocks () =
  let rows =
    List.filter_map
      (fun label ->
        match Ledger.default_path ~workload:label with
        | None -> None
        | Some path ->
          let records, _warnings = Ledger.load ~path in
          if records = [] then None
          else
            let s = Ledger.summarize records in
            let pct = function
              | None -> "-"
              | Some e -> Printf.sprintf "%+.1f%%" (100. *. e)
            in
            let med = function
              | None -> "-"
              | Some e -> Printf.sprintf "%.1f%%" (100. *. e)
            in
            Some
              [
                label;
                string_of_int s.Ledger.runs;
                med s.Ledger.median_abs_error;
                pct s.Ledger.latest_error;
              ])
      Gpu_workloads.Registry.labels
  in
  if rows = [] then [ Render.Para "No ledger records yet." ]
  else
    [
      Render.Table
        {
          headers = [ "workload"; "runs"; "median |err|"; "latest err" ];
          aligns = [ Render.L; Render.R; Render.R; Render.R ];
          rows;
        };
    ]

let blocks ~uptime_s ~draining ~degraded ~queue_depth ~queue_cap ~connections
    () =
  let requests = counter_value "serve.requests.total" in
  let rate =
    if uptime_s > 0. then float_of_int requests /. uptime_s else 0.
  in
  let hits = counter_value "calib.cache.hits" in
  let misses = counter_value "calib.cache.misses" in
  let state_note =
    if draining then [ Render.Note "Daemon is draining: new requests are answered shutting_down." ]
    else if degraded then
      [ Render.Note "Calibration cache is degraded: responses carry degraded confidence." ]
    else []
  in
  [
    Render.Heading (1, "gpuperf serve — live ops");
    Render.KeyValues
      [
        ("uptime", Printf.sprintf "%.1f s" uptime_s);
        ("state", if draining then "draining" else "serving");
        ("requests", string_of_int requests);
        ("request rate", Printf.sprintf "%.2f /s" rate);
        ("queue depth", Printf.sprintf "%d / %d" queue_depth queue_cap);
        ("connections", string_of_int connections);
        ( "pool",
          Printf.sprintf "%.0f workers, %.0f queued, %.0f async pending"
            (gauge_value "pool.workers")
            (gauge_value "pool.queue.length")
            (gauge_value "pool.async.pending") );
        ( "late results discarded",
          string_of_int (counter_value "serve.responses.discarded_late") );
        ( "log events",
          Printf.sprintf "%d emitted, %d dropped" (Log.emitted ())
            (Log.dropped ()) );
      ];
  ]
  @ state_note
  @ [ Render.Heading (2, "Responses by status") ]
  @ status_blocks ()
  @ [ Render.Heading (2, "Latency by status") ]
  @ percentile_table ~prefix:"serve.latency." ~suffix:".seconds"
      ~what:"status"
  @ [ Render.Heading (2, "Latency by stage") ]
  @ percentile_table ~prefix:"serve.stage." ~suffix:".seconds" ~what:"stage"
  @ [
      Render.Heading (2, "Calibration cache");
      Render.KeyValues
        [
          ("hit ratio", fmt_ratio hits misses);
          ("hits", string_of_int hits);
          ("misses", string_of_int misses);
          ("stale", string_of_int (counter_value "calib.cache.stale"));
          ("retries", string_of_int (counter_value "calib.cache.retries"));
          ("state", if degraded then "degraded" else "ok");
        ];
      Render.Heading (2, "Accuracy ledger");
    ]
  @ ledger_blocks ()

let html ~uptime_s ~draining ~degraded ~queue_depth ~queue_cap ~connections
    () =
  Render.to_html ~title:"gpuperf serve"
    (blocks ~uptime_s ~draining ~degraded ~queue_depth ~queue_cap
       ~connections ())
