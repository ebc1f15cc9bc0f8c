(* serve-mix: a `gpuperf serve` daemon in its own process, default
   configuration (ledger on, default limits, the pool size of a 2-CPU
   machine), driven by a closed loop on one connection: the client sends
   its next request when the previous answer arrives, as a caller that
   waits for a reply does.  Each request takes 5-50 ms, so per-request costs — protocol, queueing
   for the pool, render, compile, inputs, ledger append — are a visible
   share of it.  The daemon runs out of process: in the benchmark's own
   process the client would share the daemon's runtime.  One connection
   keeps one thread busy at a time (the client waits while the daemon
   works), so the figures measure the daemon and not the host's
   scheduler. *)

open Common
module P = Gpu_serve.Protocol
module Client = Gpu_serve.Client

type kind = {
  kname : string;
  params : P.params;
  format : P.format;
  measure : bool;
}

(* The small baseline requests the seed draws from, each kind equally
   often: nothing records the daemon's real traffic, so no kind is
   weighted above another. *)
let kinds =
  [|
    { kname = "histogram";
      params = P.Histogram { h_blocks = 256; bins = 64; skew = 0.8 };
      format = P.Json; measure = true };
    { kname = "degree";
      params = P.Degree { d_blocks = 256; nodes = 64; hub = 0.3 };
      format = P.Json; measure = true };
    { kname = "reduce-tree";
      params = P.Reduce { r_blocks = 512; r_atomic = false };
      format = P.Md; measure = false };
    { kname = "reduce-atomic";
      params = P.Reduce { r_blocks = 512; r_atomic = true };
      format = P.Json; measure = true };
    { kname = "tridiag-padded";
      params = P.Tridiag { nsys = 64; n = 256; padded = true };
      format = P.Md; measure = true };
    { kname = "tridiag-html";
      params = P.Tridiag { nsys = 64; n = 256; padded = false };
      format = P.Html; measure = false };
  |]

let min_requests = 1000

(* The daemon's pool size: its event loop plus one long-lived worker
   domain that runs requests one at a time, its default on two CPUs.  With
   one job it spawns a domain per request instead; one of about twenty
   runs so configured lost its connection to the daemon mid-run. *)
let daemon_jobs = 2
let max_timed_s = 100.

(* The request kinds the client sends, in order: a pure function of the
   seed. *)
let sequence ~seed =
  let rng = Random.State.make [| seed |] in
  fun () -> Random.State.int rng (Array.length kinds)

let request ~id k =
  {
    P.id;
    params = k.params;
    device = "baseline";
    format = k.format;
    deadline_ms = None;
    measure = k.measure;
    sample = None;
  }

(* --- the daemon ------------------------------------------------------ *)

type daemon = { pid : int; endpoint : P.endpoint; err : string  (** its stderr *) }

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> ""
  | ic ->
    Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
        really_input_string ic (in_channel_length ic))

let find_sub text key =
  let n = String.length text and m = String.length key in
  let rec go i =
    if i + m > n then None else if String.sub text i m = key then Some i else go (i + 1)
  in
  go 0

let banner_port text =
  let key = "listening on " in
  match find_sub text key with
  | None -> None
  | Some i ->
    let rest = String.sub text (i + String.length key) (String.length text - i - String.length key) in
    let line = List.hd (String.split_on_char '\n' rest) in
    if not (String.contains rest '\n') then None
    else
      Option.bind (String.rindex_opt line ':') (fun c ->
          int_of_string_opt (String.sub line (c + 1) (String.length line - c - 1)))

let start ctx =
  let dir = Filename.concat ctx.run_dir "serve" in
  let cache = Filename.concat dir "cache" in
  Host.fresh_cache cache;
  let out = Filename.concat dir "daemon.out" and err = Filename.concat dir "daemon.err" in
  let env =
    Array.append
      [| "GPUPERF_CACHE_DIR=" ^ cache; Printf.sprintf "GPUPERF_JOBS=%d" daemon_jobs |]
      (Array.of_list
         (List.filter
            (fun v ->
              not
                (String.starts_with ~prefix:"GPUPERF_CACHE_DIR=" v
                || String.starts_with ~prefix:"GPUPERF_JOBS=" v))
            (Array.to_list (Unix.environment ()))))
  in
  let fd path = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let fd_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let fd_out = fd out and fd_err = fd err in
  let pid =
    Fun.protect
      ~finally:(fun () -> List.iter Unix.close [ fd_in; fd_out; fd_err ])
      (fun () ->
        Unix.create_process_env ctx.daemon [| ctx.daemon; "serve"; "--port"; "0" |] env fd_in
          fd_out fd_err)
  in
  let deadline = Host.now () +. 30. in
  let rec wait () =
    match banner_port (read_file out) with
    | Some port -> { pid; endpoint = P.Tcp ("127.0.0.1", port); err }
    | None ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ()
      | _ -> failwith ("serve-mix: daemon exited at start: " ^ read_file err));
      if Host.now () > deadline then begin
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith "serve-mix: no listening banner within 30 s"
      end;
      Unix.sleepf 0.01;
      wait ()
  in
  wait ()

(* Whether the daemon still runs, and the end of its stderr: what a
   failed request report says about it. *)
let daemon_state d =
  let alive =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ -> true
    | _ | (exception Unix.Unix_error _) -> false
  in
  let err = read_file d.err in
  let n = String.length err in
  Printf.sprintf "daemon %s; its stderr ends: %S" (if alive then "running" else "exited")
    (String.sub err (max 0 (n - 400)) (min n 400))

(* SIGTERM drains the daemon; it is killed if the drain overruns. *)
let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Host.now () +. 40. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Host.now () < deadline -> Unix.sleepf 0.02; wait ()
    | 0, _ ->
      Unix.kill d.pid Sys.sigkill;
      ignore (Unix.waitpid [] d.pid)
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  wait ()

(* --- requests -------------------------------------------------------- *)

type sample = {
  kind : int;
  start_us : float;
  end_us : float;
  line : string option;  (** the raw response line *)
  resp : P.response option;  (** parsed after the timed phase *)
}

let rtt_ms s = (s.end_us -. s.start_us) /. 1e3

(* The round trip at nominal pace (see Pace). *)
let paced_rtt_ms ctx s =
  Pace.scaled ctx.pace ~a:(s.start_us /. 1e6) ~b:(s.end_us /. 1e6) *. 1e3

(* One round trip, timed from the first byte sent to the last byte
   received; parsing waits until the timed phase is over, so the client's
   own work stays out of the round trip and off the daemon's cores. *)
let send c ~timeout_s ~id k =
  let line = P.encode_request (request ~id kinds.(k)) in
  let start_us = Spans.now_us () in
  let r = Result.bind (Client.send_line c line) (fun () -> Client.recv_line ~timeout_s c) in
  let end_us = Spans.now_us () in
  ( { kind = k; start_us; end_us; line = Result.to_option r; resp = None },
    match r with Ok _ -> None | Error d -> Some d.Gpu_diag.Diag.message )

let parse s =
  match s.line with
  | None -> s
  | Some l -> { s with resp = Result.to_option (P.parse_response l); line = None }

let ok s = match s.resp with Some r -> r.P.status = P.Completed | None -> false

(* Counters of the daemon's registry, from the in-band metrics op
   (OpenMetrics text: "<name>_total <n>" per counter). *)
let scrape c =
  match Client.send_line c "{\"op\":\"metrics\"}" with
  | Error d -> failwith d.Gpu_diag.Diag.message
  | Ok () -> (
    match Client.recv_line ~timeout_s:30. c with
    | Error d -> failwith d.Gpu_diag.Diag.message
    | Ok line -> (
      match Gpu_report.Jsonx.parse line with
      | Error m -> failwith m
      | Ok j ->
        let text =
          Option.bind (Gpu_report.Jsonx.member "metrics" j) Gpu_report.Jsonx.to_string
          |> Option.value ~default:""
        in
        List.filter_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ name; v ] when String.ends_with ~suffix:"_total" name ->
              Option.map
                (fun v -> (String.sub name 0 (String.length name - 6), v))
                (int_of_string_opt v)
            | _ -> None)
          (String.split_on_char '\n' text)))

let scraped l name = float_of_int (Option.value ~default:0 (List.assoc_opt name l))

let stage s name =
  match s.resp with
  | Some r -> Option.value ~default:0. (List.assoc_opt name r.P.stage_breakdown)
  | None -> 0.

(* --- the run --------------------------------------------------------- *)

(* A request failed when it got no parsable response or a status other
   than [ok]; an [ok] one must also pass the output checks. *)
let check_sample t ~refs s =
  let k = kinds.(s.kind).kname in
  match s.resp with
  | None ->
    t.failed <- t.failed + 1;
    check t "response" [ k ^ ": no parsable response" ]
  | Some r ->
    let status = Checks.status_ok ~kind:k r in
    if status <> [] then t.failed <- t.failed + 1;
    check t "response"
      (if status <> [] then status
       else
         Checks.stage_sum ~kind:k r
         @ Checks.same_document ~kind:k ~reference:refs.(s.kind) (Checks.document r))

let request_span tr ~op ?parent s =
  let r = s.resp in
  let args =
    [ ("kind", Spans.S kinds.(s.kind).kname) ]
    @ (match Option.bind r (fun r -> r.P.trace_id) with
      | Some id -> [ ("trace_id", Spans.S id) ]
      | None -> [])
    @ (match r with
      | Some r ->
        ("elapsed_ms", Spans.F r.P.elapsed_ms)
        :: List.map (fun (n, us) -> ("stage_us." ^ n, Spans.F us)) r.P.stage_breakdown
      | None -> [])
  in
  ignore
    (Spans.record tr ?parent ~args ~op ~start_us:s.start_us ~end_us:s.end_us
       ("serve." ^ kinds.(s.kind).kname))

(* Per-layer metrics, as means over the [ok] requests of the timed phase:
   the daemon's stage times add up to [serve.server_ms] (the stages of
   unmeasured layers, extract and calibrate, go to [serve.other_ms]), and
   [serve.server_ms] + [serve.transport_ms] is the mean round trip.
   Calibration is read off the first warm-up request, which pays it:
   [first_cpu_s] is the daemon's CPU time across that request.  [before]
   and [after] are the daemon's counters around the timed phase. *)
let layer_values ~good ~first ~first_cpu_s ~before ~after =
  let per = float_of_int (List.length good) in
  let mean f = List.fold_left (fun a s -> a +. f s) 0. good /. per in
  let stage_ms names = mean (fun s -> List.fold_left (fun a n -> a +. stage s n) 0. names /. 1e3) in
  let elapsed s = match s.resp with Some r -> r.P.elapsed_ms | None -> 0. in
  let events = scraped after "engine_events_replayed" -. scraped before "engine_events_replayed" in
  [
    ("kernel.compile_ms", stage_ms [ "compile" ]);
    ("sim.run_ms", stage_ms [ "functional-sim" ]);
    ("model.analyze_ms", stage_ms [ "model" ]);
    ("timing.replay_ms", stage_ms [ "timing-replay" ]);
    ("timing.events", events /. per);
    ("timing.ns_per_event", Layers.ratio (stage_ms [ "timing-replay" ] *. per *. 1e6) events);
    ("report.render_ms", stage_ms [ "render" ]);
    ("serve.server_ms", mean elapsed);
    ("serve.transport_ms", mean (fun s -> rtt_ms s -. elapsed s));
    ("serve.queue_wait_ms", stage_ms [ "queue-wait" ]);
    ("serve.other_ms", stage_ms [ "extract"; "calibrate"; "other" ]);
    ("microbench.build_s", stage first "calibrate" /. 1e6);
    ("microbench.par_eff",
      Layers.ratio first_cpu_s (rtt_ms first /. 1e3 *. float_of_int daemon_jobs));
    ("microbench.benches", scraped after "calib_measurements_instr_smem");
    ("microbench.gmem_points", scraped after "calib_measurements_gmem");
    ("parallel.stolen_frac",
      Layers.ratio (scraped after "pool_chunks_stolen") (scraped after "pool_chunks_claimed"));
  ]

let run ctx t =
  say "workload serve-mix: gpuperf serve (default config, ledger on, GPUPERF_JOBS=%d), closed loop, 1 connection"
    daemon_jobs;
  say "seed %d -> request sequence, uniform over kinds %s" ctx.seed
    (String.concat ", " (Array.to_list (Array.map (fun k -> k.kname) kinds)));
  let d = start ctx in
  Fun.protect ~finally:(fun () -> stop d) @@ fun () ->
  let conn =
    match Client.connect d.endpoint with
    | Ok c -> c
    | Error e -> failwith e.Gpu_diag.Diag.message
  in
  Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
  (* Set-up: one warm-up request per kind; the first pays the daemon's
     cold calibration. *)
  let first_cpu_s = ref 0. in
  let warm =
    Array.mapi
      (fun k _ ->
        let cpu0 = Host.proc_cpu_s d.pid in
        let s, err = send conn ~timeout_s:300. ~id:(Printf.sprintf "warm-%d" k) k in
        let s = parse s in
        if k = 0 then first_cpu_s := Host.proc_cpu_s d.pid -. cpu0;
        Option.iter (fun m -> check t "warm-up" [ m ]) err;
        s)
      kinds
  in
  let setup = (ctx.started, Host.now ()) in
  t.attempted <- t.attempted + Array.length warm;
  let refs = Array.map (fun s -> match s.resp with Some r -> Checks.document r | None -> "") warm in
  Array.iter (check_sample t ~refs) warm;
  say "set-up: daemon start, %d warm-up requests; daemon peak RSS %.1f MB" (Array.length kinds)
    (Host.peak_rss_mb ~pid:(string_of_int d.pid) ());
  let before = scrape conn in
  (* Timed phase: [seconds], extended until [min_requests] answers so the
     p99 has ten samples beyond it, capped at [max_timed_s].  The pace is
     sampled between requests, while the daemon waits: a sampling thread
     would share the CPU with the daemon at work, and time the reference
     against it. *)
  Pace.stop ctx.pace;
  let started = Host.now () in
  let cpu0 = Host.proc_cpu_s d.pid and client0 = Host.cpu_s () in
  let deadline = started +. ctx.seconds and cap = started +. max_timed_s in
  let next = sequence ~seed:ctx.seed in
  let sampled = ref (Host.now ()) in
  let rec loop i acc =
    let now = Host.now () in
    if now >= cap || (now >= deadline && i >= min_requests) then List.rev acc
    else begin
      if now -. !sampled >= Pace.period then begin
        Pace.sample ctx.pace;
        sampled := Host.now ()
      end;
      let s, err = send conn ~timeout_s:60. ~id:(Printf.sprintf "r%d" i) (next ()) in
      match err with
      | Some m ->
        check t "request" [ m ^ " (" ^ daemon_state d ^ ")" ];
        List.rev (s :: acc)
      | None -> loop (i + 1) (s :: acc)
    end
  in
  let conn_span = ref None in
  let samples =
    match ctx.trace with
    | None -> loop 0 []
    | Some tr ->
      Spans.span tr ~op:1 "serve.connection" (fun id ->
          conn_span := Some id;
          loop 0 [])
  in
  let timed = (started, Host.now ()) in
  let daemon_cpu_s = Host.proc_cpu_s d.pid -. cpu0 and client_cpu_s = Host.cpu_s () -. client0 in
  let after = scrape conn in
  let rss = Host.peak_rss_mb ~pid:(string_of_int d.pid) () in
  let samples = List.map parse samples in
  t.attempted <- t.attempted + List.length samples;
  List.iter (check_sample t ~refs) samples;
  let good = List.filter ok samples in
  Pace.sample ctx.pace;
  let rtts = List.map (paced_rtt_ms ctx) good in
  if rtts = [] then failwith "serve-mix: no request succeeded";
  let setup_wall, setup_s = paced ctx setup in
  say "setup_s %.3f s at nominal pace (%.3f s wall)" setup_s setup_wall;
  let timed_wall, timed_s = paced ctx timed in
  let rps = float_of_int (List.length good) /. timed_s in
  let n = List.length rtts in
  (match Quant.tail rtts with
  | Some tl ->
    say "tail %s %.4f ms (highest percentile with >= 10 samples beyond)" (Quant.pct_name tl.Quant.bp)
      tl.Quant.value
  | None -> ());
  let per_kind =
    Array.mapi
      (fun k kd ->
        let l = List.filter (fun s -> s.kind = k) good in
        Printf.sprintf "%s=%d (p50 %.2f ms, %.2f wall)" kd.kname (List.length l)
          (if l = [] then 0. else Quant.median (List.map (paced_rtt_ms ctx) l))
          (if l = [] then 0. else Quant.median (List.map rtt_ms l)))
      kinds
  in
  say "requests per kind: %s" (String.concat " " (Array.to_list per_kind));
  say "timed phase: %.3f s wall (%.3f at nominal pace), daemon %.2f s cpu, client %.3f s cpu, %d requests"
    timed_wall timed_s daemon_cpu_s client_cpu_s (List.length samples);
  digest
    (Array.to_list
       (Array.mapi
          (fun k kd -> Printf.sprintf "%s document=%s" kd.kname (Digest.to_hex (Digest.string refs.(k))))
          kinds));
  let values = end_to_end ~setup_s ~op_ms:rtts ~ops_per_s:rps ~peak_rss_mb:rss in
  match ctx.trace with
  | None ->
    let beyond = Quant.beyond ~n ~bp:9900 in
    let notes =
      [
        ("setup_s",
          Printf.sprintf "daemon start, %d warm-up requests (the first calibrates)"
            (Array.length kinds));
        ("op_p50_ms",
          Printf.sprintf "serve_p50_ms: median client round trip of %d (%.3f ms wall)" n
            (Quant.median (List.map rtt_ms good)));
        ("op_p99_ms",
          Printf.sprintf "serve_p99_ms: %d samples, %d beyond it%s" n beyond
            (if beyond >= 10 then "" else "; NOT VALID: fewer than 10 beyond"));
        ("ops_per_s",
          Printf.sprintf "serve_rps: %d ok of %d in %.2f s at nominal pace (%.2f s wall)"
            (List.length good) (List.length samples) timed_s timed_wall);
        ("peak_rss_mb", "VmHWM of the daemon");
      ]
    in
    { values; timed = values; notes }
  | Some tr ->
    Array.iter (request_span tr ~op:0) warm;
    List.iter (request_span tr ~op:1 ?parent:!conn_span) samples;
    {
      values =
        layer_values ~good ~first:warm.(0) ~first_cpu_s:!first_cpu_s ~before ~after;
      timed = List.remove_assoc "peak_rss_mb" values;
      notes = [];
    }
