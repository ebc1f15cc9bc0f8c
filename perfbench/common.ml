(* What every workload shares: the run's settings, its tally of
   operations and failed checks, and the printed report. *)

type ctx = {
  seed : int;
  seconds : float;
  trace : Spans.t option;  (** [Some] in the traced run *)
  started : float;
      (** when the benchmark process was launched: set-up runs from here
          to the first timed operation *)
  run_dir : string;  (** private scratch, removed at exit *)
  daemon : string;  (** the gpuperf executable serve-mix starts *)
  pace : Pace.t;  (** sampled all run long; scales every reported time *)
}

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable problems : string list;  (** failed output checks, newest first *)
}

let tally () = { attempted = 0; failed = 0; problems = [] }

let say fmt = Printf.ksprintf (fun s -> print_endline s; flush stdout) fmt

let check t what problems =
  List.iter (fun p -> say "  CHECK FAILED [%s] %s" what p) problems;
  t.problems <- List.rev_append problems t.problems

(* Run one operation, counting it; an exception fails the operation (and
   the run) without stopping it. *)
let attempt t what f =
  t.attempted <- t.attempted + 1;
  match f () with
  | v -> Some v
  | exception e ->
    t.failed <- t.failed + 1;
    check t what [ Printexc.to_string e ];
    None

(* [f] timed: its start and end. *)
let interval f =
  let a = Host.now () in
  let v = f () in
  ((a, Host.now ()), v)

(* The timed phase: operations back to back, starting another only while
   it is expected to finish within [seconds] (the previous operation's
   duration is the estimate); at least one.  [f k] runs operation [k] and
   returns when it started and ended, which leaves out the checks on its
   output.  Returns the intervals. *)
let timed_loop ~seconds f =
  let t0 = Host.now () in
  let rec go k acc =
    let ((a, b) as i) = f k in
    if Host.now () -. t0 +. (b -. a) <= seconds then go (k + 1) (i :: acc)
    else List.rev (i :: acc)
  in
  go 1 []

(* Wall and scaled seconds of [a, b] (see Pace). *)
let paced ctx (a, b) = (Pace.wall ctx.pace ~a ~b, Pace.scaled ctx.pace ~a ~b)

(* Each operation's wall and scaled seconds, printed; a fresh sample
   first, so the last operation is bracketed. *)
let paced_ops ctx intervals =
  Pace.sample ctx.pace;
  List.mapi
    (fun i iv ->
      let w, s = paced ctx iv in
      say "op %d: %.4f s wall, %.4f s at nominal pace" (i + 1) w s;
      (w, s))
    intervals

(* The simulated-output digest: canonical lines whose MD5 a speed-only
   change must leave untouched. *)
let digest lines =
  List.iter (fun l -> say "  sim %s" l) lines;
  say "digest %s" (Digest.to_hex (Digest.string (String.concat "\n" lines)))

let hex f = Printf.sprintf "%h" f

(* The outcome of a workload: [values] are the end-to-end metrics in the
   untraced run and the per-layer ones the workload measures in the
   traced run; [timed] are the end-to-end times as this run measured
   them, traced or not, from which the traced run reports the tracing
   overhead; [notes] say, per metric, what it is on this workload and how
   many samples it rests on. *)
type outcome = {
  values : (string * float) list;
  timed : (string * float) list;
  notes : (string * string) list;
}

(* The end-to-end metrics every workload reports, from its set-up time,
   the durations of its timed operations in ms, and its throughput. *)
let end_to_end ~setup_s ~op_ms ~ops_per_s ~peak_rss_mb =
  [
    ("setup_s", setup_s);
    ("op_p50_ms", Quant.median op_ms);
    ("op_p99_ms", Quant.percentile op_ms ~bp:9900);
    ("ops_per_s", ops_per_s);
    ("peak_rss_mb", peak_rss_mb);
  ]

(* What op_p99_ms is over [n] operations: a p99 needs ten samples beyond
   it; with fewer it is only the slowest operation. *)
let p99_note ~ops n =
  let beyond = Quant.beyond ~n ~bp:9900 in
  if beyond >= 10 then Printf.sprintf "p99 of %d %s, %d beyond it" n ops beyond
  else if n = 1 then "one operation in this run: repeats op_p50_ms"
  else Printf.sprintf "slowest of %d %s: too few for a p99" n ops
