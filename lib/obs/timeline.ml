(* Fixed-capacity ring buffer of timeline slices and its Chrome
   trace-event JSON exporter.

   A slice is one busy interval on one track: tracks are (pid, tid)
   pairs, which the timing engine maps to (cluster, pipeline-or-warp).
   Timestamps are producer units (engine ticks); the JSON writer applies
   a caller-supplied scale so the exported "µs" read as core cycles.

   The ring never blocks the producer: past capacity the oldest slices
   drop and [dropped] counts them, so tracing a huge run degrades to a
   suffix window instead of unbounded memory.  Adds take one mutex —
   acceptable because recording is opt-in; the zero-cost-when-off path
   never reaches this module. *)

type slice = {
  pid : int;
  tid : int;
  cat : string;
  name : string;
  ts : int;
  dur : int;
}

let dummy = { pid = 0; tid = 0; cat = ""; name = ""; ts = 0; dur = 0 }

(* Track names beyond this cap are ignored: per-warp tracks of a huge
   grid would otherwise swamp the metadata section. *)
let max_track_names = 4096

type t = {
  buf : slice array;
  capacity : int;
  mutable total : int; (* slices ever added *)
  lock : Mutex.t;
  processes : (int, string) Hashtbl.t;
  threads : (int * int, string) Hashtbl.t;
}

let create ?(capacity = 1 lsl 20) () =
  if capacity < 1 then invalid_arg "Timeline.create: capacity must be >= 1";
  {
    buf = Array.make capacity dummy;
    capacity;
    total = 0;
    lock = Mutex.create ();
    processes = Hashtbl.create 8;
    threads = Hashtbl.create 64;
  }

(* Process-wide count of slices any timeline dropped: drop-oldest must
   not be silent — the CLI warns and --metrics exposes it. *)
let dropped_metric = Metrics.counter "obs.timeline.dropped"

let add t ~pid ~tid ~cat ~name ~ts ~dur =
  Mutex.protect t.lock (fun () ->
      if t.total >= t.capacity then Metrics.incr dropped_metric;
      t.buf.(t.total mod t.capacity) <- { pid; tid; cat; name; ts; dur };
      t.total <- t.total + 1)

let added t = t.total
let dropped t = max 0 (t.total - t.capacity)

let drop_warning t =
  let d = dropped t in
  if d = 0 then None
  else
    Some
      (Gpu_diag.Diag.make
         ~hint:
           (Printf.sprintf
              "re-run with a trace capacity of at least %d slices to keep \
               the whole timeline"
              t.total)
         Gpu_diag.Diag.Warning Gpu_diag.Diag.Timing
         (Printf.sprintf
            "timeline overflowed: dropped the oldest %d of %d slices \
             (capacity %d); the exported trace is a suffix window"
            d t.total t.capacity))

let set_process t ~pid name =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.length t.processes < max_track_names then
        Hashtbl.replace t.processes pid name)

let set_thread t ~pid ~tid name =
  Mutex.protect t.lock (fun () ->
      if Hashtbl.length t.threads < max_track_names then
        Hashtbl.replace t.threads (pid, tid) name)

(* Retained slices in insertion order (the newest [capacity] of them). *)
let slices t =
  Mutex.protect t.lock (fun () ->
      let n = min t.total t.capacity in
      let first = t.total - n in
      Array.init n (fun i -> t.buf.((first + i) mod t.capacity)))

let sum_dur t ~cat =
  Array.fold_left
    (fun acc s -> if s.cat = cat then acc + s.dur else acc)
    0 (slices t)

(* --- Chrome trace-event JSON -------------------------------------------- *)

let span_pid = 0

let emit_metadata b ~pid ~tid name kind =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":%s,\"ph\":\"M\",\"pid\":%d%s,\"args\":{\"name\":%s}},"
       (Json_text.quoted kind) pid
       (match tid with None -> "" | Some tid -> Printf.sprintf ",\"tid\":%d" tid)
       (Json_text.quoted name))

(* One ph:"X" complete event on the span pid; [tid] selects the track
   (0 = the global workflow track, 1.. = request tracks). *)
let emit_span b ~tid (s : Span.completed) =
  Buffer.add_string b
    (Printf.sprintf "{\"name\":%s,\"cat\":\"span\",\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d,\"args\":{"
       (Json_text.quoted s.name)
       (Json_text.number s.start_us)
       (Json_text.number (Float.max 0.0 s.dur_us))
       span_pid tid);
  let first = ref true in
  let field k v =
    if not !first then Buffer.add_char b ',';
    first := false;
    Buffer.add_string b (Printf.sprintf "%s:%s" (Json_text.quoted k) v)
  in
  List.iter (fun (k, v) -> field k (Json_text.quoted v)) s.attrs;
  List.iter
    (fun (k, d) -> field ("Δ" ^ k) (string_of_int d))
    s.deltas;
  Buffer.add_string b "}},"

let buffer_json ?(scale = 1.0) ?(spans = []) ?(tracks = []) t =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b "{\"traceEvents\":[";
  (* metadata first: process and thread names *)
  let names tbl =
    List.sort compare (Hashtbl.fold (fun k v a -> (k, v) :: a) tbl [])
  in
  let procs, threads =
    Mutex.protect t.lock (fun () -> (names t.processes, names t.threads))
  in
  if spans <> [] || tracks <> [] then
    emit_metadata b ~pid:span_pid ~tid:None "workflow (wall µs)"
      "process_name";
  if spans <> [] && tracks <> [] then
    emit_metadata b ~pid:span_pid ~tid:(Some 0) "workflow" "thread_name";
  List.iteri
    (fun i (label, _) ->
      emit_metadata b ~pid:span_pid ~tid:(Some (i + 1)) label "thread_name")
    tracks;
  List.iter
    (fun (pid, name) -> emit_metadata b ~pid ~tid:None name "process_name")
    procs;
  List.iter
    (fun ((pid, tid), name) ->
      emit_metadata b ~pid ~tid:(Some tid) name "thread_name")
    threads;
  (* workflow spans on pid 0 tid 0, nested by containment; request span
     trees (tracks) become sibling tids 1.. on the same pid *)
  List.iter (emit_span b ~tid:0) spans;
  List.iteri
    (fun i (_, track_spans) ->
      List.iter (emit_span b ~tid:(i + 1)) track_spans)
    tracks;
  (* timeline slices sorted by ts (stable per track: producers emit each
     track monotonically, and the sort is stable) *)
  let sl = slices t in
  let order = Array.init (Array.length sl) Fun.id in
  Array.sort (fun i j ->
      let c = compare sl.(i).ts sl.(j).ts in
      if c <> 0 then c else compare i j)
    order;
  Array.iteri
    (fun k i ->
      let s = sl.(i) in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"ts\":%s,\"dur\":%s,\"pid\":%d,\"tid\":%d}%s"
           (Json_text.quoted s.name) (Json_text.quoted s.cat)
           (Json_text.number (float_of_int s.ts *. scale))
           (Json_text.number (float_of_int s.dur *. scale))
           s.pid s.tid
           (if k = Array.length order - 1 then "" else ",")))
    order;
  (* trailing comma cleanup when there were no slices *)
  let len = Buffer.length b in
  let s = Buffer.contents b in
  let s = if len > 0 && s.[len - 1] = ',' then String.sub s 0 (len - 1) else s in
  let tail =
    Printf.sprintf
      "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"added\":%d,\"dropped\":%d}}"
      (added t) (dropped t)
  in
  s ^ tail

let to_json ?scale ?spans ?tracks t = buffer_json ?scale ?spans ?tracks t

let write_json ?scale ?spans ?tracks oc t =
  output_string oc (buffer_json ?scale ?spans ?tracks t)
