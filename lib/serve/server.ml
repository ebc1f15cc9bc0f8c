module D = Gpu_diag.Diag
module Jsonx = Gpu_report.Jsonx
module Metrics = Gpu_obs.Metrics
module Log = Gpu_obs.Log
module Span = Gpu_obs.Span
module Trace_ctx = Gpu_obs.Trace_ctx
module P = Protocol
module Registry = Gpu_workloads.Registry

type config = {
  endpoint : P.endpoint;
  limits : Budget.limits;
  access_log : string option;
  write_ledger : bool;
}

(* --- metrics -------------------------------------------------------------- *)

let m_requests = Metrics.counter "serve.requests.total"
let m_http = Metrics.counter "serve.http.requests"
let m_ops = Metrics.counter "serve.ops.total"
let m_discarded = Metrics.counter "serve.responses.discarded_late"
let m_cache_degraded = Metrics.counter "serve.cache.degraded_events"
let g_depth = Metrics.gauge "serve.queue.depth"
let g_conns = Metrics.gauge "serve.connections"

(* The daemon's garbage-collector cost: every collection stops the event
   loop and the worker domain together (DESIGN §13). *)
let g_minor_gcs = Metrics.gauge "serve.gc.minor_collections"
let g_major_gcs = Metrics.gauge "serve.gc.major_collections"
let g_heap_words = Metrics.gauge "serve.gc.heap_words"

let sample_gc_gauges () =
  let s = Gc.quick_stat () in
  Metrics.set_gauge g_minor_gcs (float_of_int s.Gc.minor_collections);
  Metrics.set_gauge g_major_gcs (float_of_int s.Gc.major_collections);
  Metrics.set_gauge g_heap_words (float_of_int s.Gc.heap_words)

let latency_buckets = [| 0.001; 0.005; 0.02; 0.1; 0.5; 2.0; 10.0; 60.0 |]
let h_latency = Metrics.histogram ~buckets:latency_buckets "serve.request.latency_s"

(* The accuracy-ledger append [finish] makes before it responds: after
   [elapsed_ms] is stamped, so the request histograms do not see it. *)
let h_ledger_append =
  Metrics.histogram ~buckets:latency_buckets "serve.ledger.append_s"

let all_statuses =
  [
    P.Completed; P.Failed; P.Timed_out; P.Overloaded; P.Shutting_down;
    P.Malformed;
  ]

let m_status =
  List.map
    (fun s -> (s, Metrics.counter ("serve.responses." ^ P.status_name s)))
    all_statuses

let h_status =
  List.map
    (fun s ->
      ( s,
        Metrics.histogram ~buckets:latency_buckets
          ("serve.latency." ^ P.status_name s ^ ".seconds") ))
    all_statuses

let count_status s = Metrics.incr (List.assq s m_status)

(* Stage histograms are registered on first sight of a stage name
   (registration is idempotent, so the lookup is just a hashtable hit
   after that). *)
let h_stage name =
  Metrics.histogram ~buckets:latency_buckets
    ("serve.stage." ^ name ^ ".seconds")

(* --- connections ---------------------------------------------------------- *)

type conn = {
  fd : Unix.file_descr;
  c_id : int;
  inbuf : Buffer.t;
  mutable out : Bytes.t;
      (** its bytes from [out_pos] to [out_len] await a writable socket *)
  mutable out_pos : int;
  mutable out_len : int;
  mutable closing : bool;  (** close once [out] is flushed *)
  mutable http : bool;  (** served an HTTP answer; input now ignored *)
  mutable overflow : bool;  (** discarding an oversized line *)
  mutable dead : bool;
}

type inflight = {
  req : P.request;
  i_conn : int;
  admitted : float;
  admitted_us : float;  (** same instant on {!Span}'s µs timebase *)
  ctx : Trace_ctx.t;
  deadline : float option;
  cancelled : bool Atomic.t;
      (** set by the watchdog; workers check it before starting *)
  mutable responded : bool;  (** loop-domain only *)
}

type completion = {
  c_infl : inflight;
  c_resp : P.response;
  c_ledger : Gpu_report.Ledger.record option;
      (** built on the worker, appended on the loop domain so concurrent
          completions never race on the ledger file *)
}

type t = {
  cfg : config;
  lsock : Unix.file_descr;
  bound : P.endpoint;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  stopping : bool Atomic.t;
  degraded : bool Atomic.t;
  lock : Mutex.t;
  mutable completions : completion list;  (** under [lock] *)
  conns : (int, conn) Hashtbl.t;
  mutable next_conn : int;
  mutable inflight : inflight list;
  mutable log_sink : Log.sink option;
  read_buf : Bytes.t;  (** every connection's reads; loop-domain only *)
  ledger_env : string * string;  (** (git, host), sampled once at create *)
  mutable recent : (string * Trace_ctx.t) list;
      (** last {!recent_cap} finished requests, most recent first;
          loop-domain only — [gpuperf trace-serve] reads it after
          {!run} returns *)
  started : float;
}

let recent_cap = 32

let queue_depth t = List.length t.inflight
let cache_degraded t = Atomic.get t.degraded
let bound_endpoint t = t.bound
let recent_traces t = List.rev t.recent

let wake t =
  (* Best-effort: a full pipe already guarantees a wakeup. *)
  try ignore (Unix.write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR | EBADF), _, _) -> ()

let stop t =
  if not (Atomic.exchange t.stopping true) then wake t

(* --- lifecycle ------------------------------------------------------------ *)

let listen_on endpoint =
  match endpoint with
  | P.Tcp (host, port) ->
    let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt fd Unix.SO_REUSEADDR true;
    let addr = Unix.inet_addr_of_string host in
    Unix.bind fd (Unix.ADDR_INET (addr, port));
    Unix.listen fd 64;
    let bound =
      match Unix.getsockname fd with
      | Unix.ADDR_INET (a, p) -> P.Tcp (Unix.string_of_inet_addr a, p)
      | _ -> endpoint
    in
    (fd, bound)
  | P.Unix_socket path ->
    (* Replace a stale socket file from a previous run. *)
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind fd (Unix.ADDR_UNIX path);
    Unix.listen fd 64;
    (fd, endpoint)

let create cfg =
  D.protect ~stage:D.Serve (fun () ->
      let lsock, bound = listen_on cfg.endpoint in
      Unix.set_nonblock lsock;
      let wake_r, wake_w = Unix.pipe () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      let log_sink = Option.map Log.open_file cfg.access_log in
      (* The access log doubles as the process-default structured-log
         sink: Calib_cache and Pool warnings land in the same JSONL
         stream as the per-request access records. *)
      (match log_sink with Some _ as s -> Log.set_default s | None -> ());
      let ledger_env =
        if cfg.write_ledger then Gpu_report.Ledger.environment ()
        else ("unknown", "unknown")
      in
      let t =
        {
          cfg;
          lsock;
          bound;
          wake_r;
          wake_w;
          stopping = Atomic.make false;
          degraded = Atomic.make false;
          lock = Mutex.create ();
          completions = [];
          conns = Hashtbl.create 16;
          next_conn = 0;
          inflight = [];
          log_sink;
          read_buf = Bytes.create 65536;
          ledger_env;
          recent = [];
          started = Unix.gettimeofday ();
        }
      in
      (* Calibration-cache trouble (retries, unreadable tables) flips the
         degradation flag instead of failing requests.  Info-level cache
         traffic (ordinary misses on a cold cache) is not trouble. *)
      Gpu_microbench.Tables.set_on_diag (fun d ->
          if d.D.stage = D.Cache && d.D.severity <> D.Info then begin
            if not (Atomic.exchange t.degraded true) then
              Metrics.incr m_cache_degraded
          end);
      t)

(* --- health --------------------------------------------------------------- *)

let health_json t =
  let jint i = Jsonx.Num (float_of_int i) in
  Jsonx.Obj
    [
      ( "status",
        Jsonx.Str (if Atomic.get t.stopping then "draining" else "ok") );
      ("queue_depth", jint (queue_depth t));
      ("queue_cap", jint t.cfg.limits.Budget.queue_cap);
      ("connections", jint (Hashtbl.length t.conns));
      ("pool_pending", jint (Gpu_parallel.Pool.pending_async ()));
      ("cache_degraded", Jsonx.Bool (Atomic.get t.degraded));
      ("uptime_s", Jsonx.Num (Unix.gettimeofday () -. t.started));
    ]

(* --- per-connection output ------------------------------------------------ *)

(* Each byte is copied into the queue once: appending copies only the new
   bytes (and the unsent ones when the queue must move or grow), and a
   partial write only advances [out_pos]. *)
let pending conn = conn.out_len - conn.out_pos

let send_raw conn s =
  let n = String.length s and live = pending conn in
  if conn.out_len + n > Bytes.length conn.out then begin
    let dst =
      if live + n <= Bytes.length conn.out then conn.out
      else Bytes.create (max (live + n) (2 * Bytes.length conn.out))
    in
    Bytes.blit conn.out conn.out_pos dst 0 live;
    conn.out <- dst;
    conn.out_pos <- 0;
    conn.out_len <- live
  end;
  Bytes.blit_string s 0 conn.out conn.out_len n;
  conn.out_len <- conn.out_len + n

let send_line conn s =
  send_raw conn s;
  send_raw conn "\n"

let http_response conn ~status ~content_type body =
  Metrics.incr m_http;
  send_raw conn
    (Printf.sprintf
       "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\n\
        Connection: close\r\n\r\n"
       status content_type (String.length body));
  send_raw conn body;
  conn.http <- true;
  conn.closing <- true

(* One structured access record per answered request (admitted or not).
   Goes through {!Log}, so the line carries level/component/trace_id like
   every other event in the stream. *)
let log_access t ~trace_id ~id ~workload ~device (resp : P.response) =
  match t.log_sink with
  | None -> ()
  | Some sink ->
    Log.event ~sink ~trace_id
      ~attrs:
        [
          ("id", Log.S id);
          ("workload", Log.S workload);
          ("device", Log.S device);
          ("status", Log.S (P.status_name resp.P.status));
          ("elapsed_ms", Log.F resp.P.elapsed_ms);
        ]
      Log.Info ~component:"serve.access" "request"

let respond t conn_id (resp : P.response) =
  count_status resp.P.status;
  Metrics.observe h_latency (resp.P.elapsed_ms /. 1000.);
  Metrics.observe (List.assq resp.P.status h_status)
    (resp.P.elapsed_ms /. 1000.);
  match Hashtbl.find_opt t.conns conn_id with
  | Some conn when not conn.dead -> send_line conn (P.encode_response resp)
  | _ -> ()

(* Answer a request that was never admitted (malformed, overloaded,
   draining, budget-rejected): stamp a fresh trace id so even these
   one-shot responses and their access-log lines correlate. *)
let respond_now t conn_id ?(id = "") ?(workload = "-") ?(device = "-") resp =
  let resp = { resp with P.trace_id = Some (Trace_ctx.next_id ()) } in
  log_access t
    ~trace_id:(Option.value ~default:"" resp.P.trace_id)
    ~id ~workload ~device resp;
  respond t conn_id resp

(* Finish an admitted request: stamp trace id + stage breakdown, feed
   the stage/status histograms, write the access-log line and the
   serve-path ledger record, retain the trace, reclaim the slot. *)
let finish t infl ?ledger resp =
  infl.responded <- true;
  t.inflight <- List.filter (fun i -> i != infl) t.inflight;
  Metrics.set_gauge g_depth (float_of_int (queue_depth t));
  let breakdown =
    Trace_ctx.breakdown infl.ctx ~total_us:(resp.P.elapsed_ms *. 1000.)
  in
  let resp =
    {
      resp with
      P.trace_id = Some (Trace_ctx.id infl.ctx);
      stage_breakdown = breakdown;
    }
  in
  List.iter
    (fun (name, us) ->
      if name <> "other" then Metrics.observe (h_stage name) (us /. 1e6))
    breakdown;
  log_access t ~trace_id:(Trace_ctx.id infl.ctx) ~id:infl.req.P.id
    ~workload:(Registry.name infl.req.P.params)
    ~device:infl.req.P.device resp;
  (match ledger with
  | Some record when t.cfg.write_ledger -> (
    match
      Gpu_report.Ledger.default_path
        ~workload:(Registry.label infl.req.P.params)
    with
    | Some path -> (
      let t0 = Unix.gettimeofday () in
      let appended = Gpu_report.Ledger.append ~path record in
      Metrics.observe h_ledger_append (Unix.gettimeofday () -. t0);
      match appended with
      | Ok _ -> ()
      | Error d ->
        Log.event Log.Warn ~component:"serve.ledger"
          ~trace_id:(Trace_ctx.id infl.ctx)
          ~attrs:[ ("stage", Log.S (D.stage_name d.D.stage)) ]
          d.D.message)
    | None -> ())
  | _ -> ());
  let label =
    Printf.sprintf "%s %s"
      (Registry.name infl.req.P.params)
      (P.status_name resp.P.status)
  in
  t.recent <-
    (label, infl.ctx)
    :: (if List.length t.recent >= recent_cap then
          List.filteri (fun i _ -> i < recent_cap - 1) t.recent
        else t.recent);
  respond t infl.i_conn resp

(* --- the compute path (worker domains) ------------------------------------ *)

(* Deadline pressure → sampled replay: a measured request whose remaining
   budget is tight replays a seeded cluster subset (the seed derives from
   the request id, so retries sample the same subset) and answers with
   degraded confidence instead of letting the watchdog time it out. *)
let replay_sample_under_pressure (infl : inflight) ~now =
  let remaining_ms =
    Option.map (fun d -> (d -. now) *. 1000.) infl.deadline
  in
  Budget.replay_sample_fraction ~measure:infl.req.P.measure ~remaining_ms
  |> Option.map (fun f ->
         { Gpu_timing.Engine.fraction = f; seed = Hashtbl.hash infl.req.P.id })

let render_success t (req : P.request) (report : Gpu_model.Workflow.report) =
  let workload = Registry.name req.P.params in
  let replay_sampled =
    match report.Gpu_model.Workflow.measured with
    | Some m -> Option.is_some m.Gpu_timing.Engine.sampled
    | None -> false
  in
  let confidence =
    match report.Gpu_model.Workflow.analysis.Gpu_model.Model.confidence with
    | Gpu_model.Model.Calibrated
      when (not (Atomic.get t.degraded)) && not replay_sampled ->
      "calibrated"
    | _ -> "degraded"
  in
  let body, rendered =
    match req.P.format with
    | P.Json -> (Some (Gpu_report.Render.report_json ~workload report), None)
    | (P.Md | P.Html) as f ->
      let inputs =
        {
          Gpu_report.Render.workload;
          report;
          attribution = Gpu_report.Attribution.of_report report;
          whatif = [];
          ledger = [];
          ledger_warnings = [];
          regression = None;
          top = 5;
        }
      in
      (None, Some (Gpu_report.Render.render f inputs))
  in
  let diags =
    report.Gpu_model.Workflow.analysis.Gpu_model.Model.warnings
    @
    match report.Gpu_model.Workflow.measured with
    | Some m -> Gpu_model.Workflow.replay_sample_warning m
    | None -> []
  in
  (confidence, body, rendered, diags)

let post_completion t infl ?ledger resp_of_elapsed =
  let now = Unix.gettimeofday () in
  let elapsed_ms = (now -. infl.admitted) *. 1000. in
  let resp = resp_of_elapsed elapsed_ms in
  Mutex.protect t.lock (fun () ->
      t.completions <-
        { c_infl = infl; c_resp = resp; c_ledger = ledger } :: t.completions);
  wake t

let compute t infl =
  if Atomic.get infl.cancelled then ()
  else begin
    (* The time between admission (event loop) and this point (worker
       domain) is scheduler queueing — reconstruct it as a stage so the
       breakdown tiles the full admission-to-completion latency. *)
    let start_us = Span.now_us () in
    Trace_ctx.stage infl.ctx "queue-wait" ~start_us:infl.admitted_us
      ~dur_us:(start_us -. infl.admitted_us);
    (* Crash isolation: any exception out of the workload (kernel
       construction, launch validation, simulator faults) becomes an
       [error] response; the worker and the daemon are untouched. *)
    let replay_sample =
      replay_sample_under_pressure infl ~now:(Unix.gettimeofday ())
    in
    let { P.device; measure; sample; params; _ } = infl.req in
    match
      D.protect ~stage:D.Exec (fun () ->
          let input = Registry.input params in
          (* A request's [sample] overrides the workload's own. *)
          let input =
            if Option.is_some sample then { input with sample } else input
          in
          Gpu_model.Workflow.analyze
            ?spec:(P.device_of_name device)
            ~measure ?replay_sample ~ctx:infl.ctx input)
    with
    | Ok report ->
      let confidence, body, rendered, diags =
        Trace_ctx.span infl.ctx "render" (fun () ->
            render_success t infl.req report)
      in
      let ledger =
        if t.cfg.write_ledger then
          let git, host = t.ledger_env in
          Some
            (Gpu_report.Ledger.of_report ~git ~host
               ~trace_id:(Trace_ctx.id infl.ctx)
               ~workload:(Registry.label infl.req.P.params)
               report)
        else None
      in
      post_completion t infl ?ledger (fun elapsed_ms ->
          P.response ~confidence ?body ?rendered ~diags ~id:infl.req.P.id
            ~elapsed_ms P.Completed)
    | Error d ->
      post_completion t infl (fun elapsed_ms ->
          P.response ~diags:[ d ] ~id:infl.req.P.id ~elapsed_ms P.Failed)
  end

(* --- admission ------------------------------------------------------------ *)

let admit t conn (req : P.request) =
  Metrics.incr m_requests;
  let now = Unix.gettimeofday () in
  let workload = Registry.name req.P.params in
  let device = req.P.device in
  let limits = t.cfg.limits in
  let depth = queue_depth t in
  if Atomic.get t.stopping then
    respond_now t conn.c_id ~id:req.P.id ~workload ~device
      (P.response
         ~diags:[ D.error D.Serve "daemon is draining; resubmit elsewhere" ]
         ~id:req.P.id ~elapsed_ms:0. P.Shutting_down)
  else if depth >= limits.Budget.queue_cap then
    respond_now t conn.c_id ~id:req.P.id ~workload ~device
      (P.response
         ~diags:[ Budget.overload_diag ~limits ~queue_depth:depth ]
         ~retry_after_ms:(Budget.retry_after_ms ~limits ~queue_depth:depth)
         ~queue_depth:depth ~id:req.P.id ~elapsed_ms:0. P.Overloaded)
  else
    let estimate = Budget.working_set_bytes req.P.params in
    if estimate > limits.Budget.max_working_set_bytes then
      respond_now t conn.c_id ~id:req.P.id ~workload ~device
        (P.response
           ~diags:
             [
               Budget.working_set_diag
                 ~limit:limits.Budget.max_working_set_bytes ~estimate;
             ]
           ~id:req.P.id ~elapsed_ms:0. P.Failed)
    else
      let deadline = Budget.deadline_at ~now ~limits req in
      let infl =
        {
          req;
          i_conn = conn.c_id;
          admitted = now;
          admitted_us = Span.now_us ();
          ctx = Trace_ctx.make ();
          deadline;
          cancelled = Atomic.make false;
          responded = false;
        }
      in
      if Budget.expired ~now deadline then begin
        (* Deterministic expiry: a 0ms budget is answered without ever
           touching the pool.  The wire response and the access-log line
           share the admitted context's trace id. *)
        let deadline_ms = Option.value ~default:0 req.P.deadline_ms in
        let resp =
          P.response
            ~diags:[ Budget.timeout_diag ~deadline_ms ~elapsed_ms:0. ]
            ~trace_id:(Trace_ctx.id infl.ctx) ~id:req.P.id ~elapsed_ms:0.
            P.Timed_out
        in
        log_access t ~trace_id:(Trace_ctx.id infl.ctx) ~id:req.P.id
          ~workload ~device resp;
        respond t conn.c_id resp
      end
      else begin
        t.inflight <- infl :: t.inflight;
        Metrics.set_gauge g_depth (float_of_int (queue_depth t));
        Gpu_parallel.Pool.async (fun () -> compute t infl)
      end

(* --- input handling ------------------------------------------------------- *)

let handle_op t conn op =
  Metrics.incr m_ops;
  match op with
  | "ping" -> send_line conn (Jsonx.encode (Jsonx.Obj [ ("op", Str "pong") ]))
  | "health" -> send_line conn (Jsonx.encode (health_json t))
  | "metrics" ->
    sample_gc_gauges ();
    send_line conn
      (Jsonx.encode
         (Jsonx.Obj [ ("metrics", Str (Metrics.dump_openmetrics ())) ]))
  | other ->
    send_line conn
      (P.encode_response
         (P.response
            ~diags:
              [ D.error D.Serve "unknown op %S (ping, health, metrics)" other ]
            ~trace_id:(Trace_ctx.next_id ()) ~id:"" ~elapsed_ms:0.
            P.Malformed))

let handle_http t conn line =
  match String.split_on_char ' ' line with
  | "GET" :: target :: _ -> (
    match target with
    | "/healthz" ->
      http_response conn ~status:"200 OK" ~content_type:"application/json"
        (Jsonx.encode (health_json t) ^ "\n")
    | "/metrics" ->
      sample_gc_gauges ();
      http_response conn ~status:"200 OK"
        ~content_type:"application/openmetrics-text; version=1.0.0"
        (Metrics.dump_openmetrics ())
    | "/dashboard" ->
      Gpu_parallel.Pool.sample_gauges ();
      http_response conn ~status:"200 OK"
        ~content_type:"text/html; charset=utf-8"
        (Dashboard.html ~uptime_s:(Unix.gettimeofday () -. t.started)
           ~draining:(Atomic.get t.stopping)
           ~degraded:(Atomic.get t.degraded) ~queue_depth:(queue_depth t)
           ~queue_cap:t.cfg.limits.Budget.queue_cap
           ~connections:(Hashtbl.length t.conns) ())
    | _ ->
      http_response conn ~status:"404 Not Found" ~content_type:"text/plain"
        "unknown endpoint (try /metrics, /healthz or /dashboard)\n")
  | _ ->
    http_response conn ~status:"405 Method Not Allowed"
      ~content_type:"text/plain" "only GET is supported\n"

let handle_line t conn line =
  let line = String.trim line in
  if line = "" then ()
  else if
    String.length line >= 4
    && (String.sub line 0 4 = "GET " || String.sub line 0 4 = "HEAD")
  then handle_http t conn line
  else
    let op =
      match Jsonx.parse line with
      | Ok json -> (
        match Jsonx.member "op" json with
        | Some (Jsonx.Str op) -> Some op
        | _ -> None)
      | Error _ -> None
    in
    match op with
    | Some op -> handle_op t conn op
    | None -> (
      match P.parse_request line with
      | Error d ->
        Metrics.incr m_requests;
        respond_now t conn.c_id
          (P.response ~diags:[ d ] ~id:"" ~elapsed_ms:0. P.Malformed)
      | Ok req -> admit t conn req)

let reject_oversized t conn ~got =
  Metrics.incr m_requests;
  respond_now t conn.c_id
    (P.response
       ~diags:
         [
           Budget.oversized_diag ~limit:t.cfg.limits.Budget.max_request_bytes
             ~got;
         ]
       ~id:"" ~elapsed_ms:0. P.Malformed)

(* Extract complete lines out of [conn.inbuf], enforcing the line-length
   budget; leftovers stay buffered for the next read. *)
let drain_inbuf t conn =
  let data = Buffer.contents conn.inbuf in
  Buffer.clear conn.inbuf;
  let len = String.length data in
  let pos = ref 0 in
  (try
     while !pos < len do
       match String.index_from data !pos '\n' with
       | nl ->
         let line = String.sub data !pos (nl - !pos) in
         pos := nl + 1;
         if conn.overflow then conn.overflow <- false
           (* tail of the oversized line: swallow it *)
         else if not conn.http then
           if String.length line > t.cfg.limits.Budget.max_request_bytes
           then reject_oversized t conn ~got:(String.length line)
           else handle_line t conn line
       | exception Not_found ->
         let rest = len - !pos in
         if rest > t.cfg.limits.Budget.max_request_bytes then begin
           if not (conn.overflow || conn.http) then
             reject_oversized t conn ~got:rest;
           conn.overflow <- true
         end
         else if not (conn.overflow || conn.http) then
           Buffer.add_substring conn.inbuf data !pos rest;
         pos := len
     done
   with exn ->
     (* No request line may take the loop down. *)
     ignore (D.of_exn ~stage:D.Serve exn));
  ()

(* --- event loop ----------------------------------------------------------- *)

let close_conn t conn =
  if not conn.dead then begin
    conn.dead <- true;
    Hashtbl.remove t.conns conn.c_id;
    Metrics.set_gauge g_conns (float_of_int (Hashtbl.length t.conns));
    (* Orphaned in-flight work: stop it from computing further, and
       release the queue slots (there is nobody to answer). *)
    List.iter
      (fun i -> if i.i_conn = conn.c_id then Atomic.set i.cancelled true)
      t.inflight;
    t.inflight <- List.filter (fun i -> i.i_conn <> conn.c_id) t.inflight;
    Metrics.set_gauge g_depth (float_of_int (queue_depth t));
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

let accept_pending t =
  let continue = ref true in
  while !continue do
    match Unix.accept t.lsock with
    | fd, _ ->
      Unix.set_nonblock fd;
      let c_id = t.next_conn in
      t.next_conn <- c_id + 1;
      Hashtbl.replace t.conns c_id
        {
          fd;
          c_id;
          inbuf = Buffer.create 256;
          out = Bytes.empty;
          out_pos = 0;
          out_len = 0;
          closing = false;
          http = false;
          overflow = false;
          dead = false;
        };
      Metrics.set_gauge g_conns (float_of_int (Hashtbl.length t.conns))
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let read_conn t conn =
  let buf = t.read_buf in
  let continue = ref true in
  while !continue && not conn.dead do
    match Unix.read conn.fd buf 0 (Bytes.length buf) with
    | 0 ->
      continue := false;
      close_conn t conn
    | n ->
      Buffer.add_subbytes conn.inbuf buf 0 n;
      if n < Bytes.length buf then continue := false
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) ->
      continue := false
    | exception Unix.Unix_error _ ->
      continue := false;
      close_conn t conn
  done;
  if not conn.dead then drain_inbuf t conn

let write_conn t conn =
  if pending conn > 0 then begin
    match Unix.write conn.fd conn.out conn.out_pos (pending conn) with
    | n ->
      conn.out_pos <- conn.out_pos + n;
      if pending conn = 0 then begin
        conn.out_pos <- 0;
        conn.out_len <- 0
      end
    | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK | EINTR), _, _) -> ()
    | exception Unix.Unix_error _ -> close_conn t conn
  end;
  if (not conn.dead) && conn.closing && pending conn = 0 then close_conn t conn

let drain_wake_pipe t =
  let buf = Bytes.create 256 in
  let continue = ref true in
  while !continue do
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> continue := false
    | n -> if n < Bytes.length buf then continue := false
    | exception Unix.Unix_error _ -> continue := false
  done

let take_completions t =
  let cs =
    Mutex.protect t.lock (fun () ->
        let cs = List.rev t.completions in
        t.completions <- [];
        cs)
  in
  List.iter
    (fun { c_infl = infl; c_resp = resp; c_ledger } ->
      if infl.responded || Atomic.get infl.cancelled then
        (* The watchdog already answered (or the client vanished);
           this is the late compute result — drop it. *)
        Metrics.incr m_discarded
      else finish t infl ?ledger:c_ledger resp)
    cs

let run_watchdog t =
  (* Backstop refresh of the scheduler-pressure, queue and GC gauges:
     every tick, even when no request transitions fire. *)
  Gpu_parallel.Pool.sample_gauges ();
  sample_gc_gauges ();
  Metrics.set_gauge g_depth (float_of_int (queue_depth t));
  let now = Unix.gettimeofday () in
  List.iter
    (fun infl ->
      if (not infl.responded) && Budget.expired ~now infl.deadline then begin
        Atomic.set infl.cancelled true;
        let elapsed_ms = (now -. infl.admitted) *. 1000. in
        let deadline_ms =
          match infl.req.P.deadline_ms with
          | Some ms -> ms
          | None ->
            Option.value ~default:0
              t.cfg.limits.Budget.default_deadline_ms
        in
        finish t infl
          (P.response
             ~diags:[ Budget.timeout_diag ~deadline_ms ~elapsed_ms ]
             ~id:infl.req.P.id ~elapsed_ms P.Timed_out)
      end)
    t.inflight

let next_timeout t =
  let now = Unix.gettimeofday () in
  let horizon =
    List.fold_left
      (fun acc infl ->
        match infl.deadline with
        | Some d when not infl.responded -> min acc (d -. now)
        | _ -> acc)
      0.5 t.inflight
  in
  if Atomic.get t.stopping then min horizon 0.02 else max 0.001 horizon

let cleanup t ~listener_closed =
  if not listener_closed then (
    try Unix.close t.lsock with Unix.Unix_error _ -> ());
  (match t.bound with
  | P.Unix_socket path -> (
    try Unix.unlink path with Unix.Unix_error _ -> ())
  | P.Tcp _ -> ());
  Hashtbl.iter
    (fun _ conn ->
      (* Last-gasp flush of any queued responses, then close. *)
      (try
         if pending conn > 0 then
           ignore (Unix.write conn.fd conn.out conn.out_pos (pending conn))
       with Unix.Unix_error _ -> ());
      try Unix.close conn.fd with Unix.Unix_error _ -> ())
    t.conns;
  Hashtbl.reset t.conns;
  (try Unix.close t.wake_r with Unix.Unix_error _ -> ());
  (try Unix.close t.wake_w with Unix.Unix_error _ -> ());
  (match t.log_sink with
  | Some sink ->
    t.log_sink <- None;
    (match Log.default () with
    | Some s when s == sink -> Log.set_default None
    | _ -> ());
    Log.close sink
  | None -> ())

let run t =
  let listener_closed = ref false in
  let drain_started = ref None in
  let result =
    D.protect ~stage:D.Serve (fun () ->
        let finished = ref None in
        while !finished = None do
          let stopping = Atomic.get t.stopping in
          if stopping && not !listener_closed then begin
            listener_closed := true;
            drain_started := Some (Unix.gettimeofday ());
            (try Unix.close t.lsock with Unix.Unix_error _ -> ())
          end;
          let conn_fds =
            Hashtbl.fold (fun _ c acc -> c.fd :: acc) t.conns []
          in
          let reads =
            (if !listener_closed then [] else [ t.lsock ])
            @ (t.wake_r :: conn_fds)
          in
          let writes =
            Hashtbl.fold
              (fun _ c acc -> if pending c > 0 then c.fd :: acc else acc)
              t.conns []
          in
          let readable, writable, _ =
            try Unix.select reads writes [] (next_timeout t)
            with Unix.Unix_error (EINTR, _, _) -> ([], [], [])
          in
          if List.mem t.wake_r readable then drain_wake_pipe t;
          take_completions t;
          run_watchdog t;
          if (not !listener_closed) && List.mem t.lsock readable then
            accept_pending t;
          Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
          |> List.iter (fun conn ->
                 if List.mem conn.fd readable then read_conn t conn);
          take_completions t;
          run_watchdog t;
          Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
          |> List.iter (fun conn ->
                 if List.mem conn.fd writable || pending conn > 0 then
                   write_conn t conn);
          (* Drain phase: done when nothing is in flight and every
             response byte is out (or the drain budget is exhausted). *)
          match !drain_started with
          | None -> ()
          | Some t0 ->
            let now = Unix.gettimeofday () in
            let flushed =
              Hashtbl.fold (fun _ c acc -> acc && pending c = 0) t.conns true
            in
            if t.inflight = [] && flushed then finished := Some (Ok ())
            else if now -. t0 > t.cfg.limits.Budget.drain_timeout_s then
              finished :=
                Some
                  (Error
                     (Budget.drain_timeout_diag ~limits:t.cfg.limits
                        ~in_flight:(queue_depth t)))
        done;
        (* Give cancelled/late pool tasks a moment to park. *)
        ignore (Gpu_parallel.Pool.drain_async ~timeout_s:1.0 ());
        match !finished with Some r -> r | None -> Ok ())
  in
  let result = match result with Ok r -> r | Error d -> Error d in
  cleanup t ~listener_closed:!listener_closed;
  result
