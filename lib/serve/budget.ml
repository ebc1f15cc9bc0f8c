module D = Gpu_diag.Diag

type limits = {
  queue_cap : int;
  default_deadline_ms : int option;
  max_request_bytes : int;
  max_working_set_bytes : int;
  drain_timeout_s : float;
}

let default_limits =
  {
    queue_cap = 64;
    default_deadline_ms = None;
    max_request_bytes = 1 lsl 20;
    max_working_set_bytes = 2 * 1024 * 1024 * 1024;
    drain_timeout_s = 30.0;
  }

(* Functional simulation keeps one float cell per array element plus
   register/trace state per simulated thread; 64 bytes/element of the
   dominant arrays bounds both comfortably. *)
let bytes_per_element = 64

let working_set_bytes p =
  Gpu_workloads.Registry.working_set_elements p * bytes_per_element

let deadline_at ~now ~limits (req : Protocol.request) =
  match (req.Protocol.deadline_ms, limits.default_deadline_ms) with
  | Some ms, _ | None, Some ms -> Some (now +. (float_of_int ms /. 1000.))
  | None, None -> None

let expired ~now = function Some t -> now >= t | None -> false

(* Deadline-pressure replay sampling: when a measured request's remaining
   budget at dispatch is tight, the timing replay runs on a sampled
   cluster subset (degraded confidence, bracketed estimate) instead of
   racing the watchdog to a timeout.  Pure in the remaining budget so the
   thresholds are unit-testable; the sampling itself only bites on
   heterogeneous replays — the homogeneous fast path already simulates a
   single cluster. *)
let replay_sample_fraction ~measure ~remaining_ms =
  if not measure then None
  else
    match remaining_ms with
    | Some ms when ms < 2_000.0 -> Some 0.1
    | Some ms when ms < 10_000.0 -> Some 0.3
    | Some _ | None -> None

let retry_after_ms ~limits ~queue_depth =
  let over = max 0 (queue_depth - limits.queue_cap) in
  (* Base half-second per queued request ahead of you, floor 100ms. *)
  max 100 (500 * (1 + over))

let timeout_diag ~deadline_ms ~elapsed_ms =
  D.error D.Budget
    ~hint:"raise deadline_ms or shrink the problem size"
    "request exceeded its %dms deadline (%.1fms elapsed)" deadline_ms
    elapsed_ms

let overload_diag ~limits ~queue_depth =
  D.error D.Budget
    ~hint:"wait retry_after_ms and resubmit, or raise --queue"
    "admission queue full (%d in flight, cap %d)" queue_depth
    limits.queue_cap

let oversized_diag ~limit ~got =
  D.error D.Serve
    ~hint:"split the request or raise --max-request-bytes"
    "request line of %d bytes exceeds the %d-byte limit" got limit

let working_set_diag ~limit ~estimate =
  D.error D.Budget
    ~hint:"shrink the problem size or raise --max-working-set-mb"
    "estimated working set %d MiB exceeds the %d MiB budget"
    (estimate / (1024 * 1024))
    (limit / (1024 * 1024))

let drain_timeout_diag ~limits ~in_flight =
  D.error D.Budget
    "drain timed out after %.1fs with %d request(s) still in flight"
    limits.drain_timeout_s in_flight
