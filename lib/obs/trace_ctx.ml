(* Request-scoped trace context.

   One value of [t] accompanies a request from server admission through
   the worker pool into the analysis workflow.  It is threaded
   *explicitly* — captured by the closures handed to [Pool.async],
   passed as [?ctx] down [Workflow.analyze] — never stashed in
   domain-local storage: the request hops domains (admission on the
   event loop, compute on a worker, completion back on the loop), so
   TLS would silently attribute spans to whichever domain touched it
   last.  Explicit passing makes the handoff visible in the types.

   Trace ids come from a splitmix64 sequence (same generator the fault
   injector uses): a process-global 64-bit state advanced by the golden
   gamma, output-mixed, printed as 16 hex digits.  splitmix64's output
   function is a bijection, so ids within one process never collide,
   and the state is seeded from pid ⊕ wall-clock so ids stay distinct
   across daemon restarts.

   Spans recorded here share {!Span}'s epoch and microsecond timebase,
   so a request's track tiles correctly against the global span track
   in one trace-event file.  Per-ctx spans skip counter-delta capture —
   the global tracer already records deltas when enabled; the request
   track exists for latency attribution, and snapshotting the registry
   twice per stage per request would be measurable overhead. *)

type t = {
  id : string;
  created_us : float;
  lock : Mutex.t;
  mutable depth : int;
  mutable recorded : (int * Span.completed) list; (* (entry depth, span), reversed *)
}

(* --- trace ids ---------------------------------------------------------- *)

let golden = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let state = Atomic.make 0L
let seeded = Atomic.make false

let set_seed seed =
  Atomic.set state (Int64.of_int seed);
  Atomic.set seeded true

let next_id () =
  if not (Atomic.get seeded) then begin
    (* First use: derive a seed that differs across processes and
       restarts.  A race here at worst reseeds once more — ids stay
       unique either way because the advance below is atomic. *)
    let s =
      Int64.logxor
        (Int64.of_int (Unix.getpid ()))
        (Int64.bits_of_float (Unix.gettimeofday ()))
    in
    Atomic.set state s;
    Atomic.set seeded true
  end;
  let rec advance () =
    let cur = Atomic.get state in
    let next = Int64.add cur golden in
    if Atomic.compare_and_set state cur next then next else advance ()
  in
  Printf.sprintf "%016Lx" (mix64 (advance ()))

(* --- contexts ----------------------------------------------------------- *)

let make ?id () =
  let id = match id with Some i -> i | None -> next_id () in
  {
    id;
    created_us = Span.now_us ();
    lock = Mutex.create ();
    depth = 0;
    recorded = [];
  }

let id t = t.id
let created_us t = t.created_us

let record t ~depth span =
  Mutex.lock t.lock;
  t.recorded <- (depth, span) :: t.recorded;
  Mutex.unlock t.lock

let stage t ?(attrs = []) name ~start_us ~dur_us =
  record t ~depth:0
    { Span.name; start_us; dur_us; attrs; annots = []; deltas = [] }

let span t ?(attrs = []) name f =
  Mutex.lock t.lock;
  let d = t.depth in
  t.depth <- d + 1;
  Mutex.unlock t.lock;
  let t0 = Span.now_us () in
  let close extra =
    let t1 = Span.now_us () in
    Mutex.lock t.lock;
    t.depth <- t.depth - 1;
    t.recorded <-
      ( d,
        {
          Span.name;
          start_us = t0;
          dur_us = t1 -. t0;
          attrs = attrs @ extra;
          annots = [];
          deltas = [];
        } )
      :: t.recorded;
    Mutex.unlock t.lock
  in
  match f () with
  | v ->
    close [];
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close (Span.exn_attrs e);
    Printexc.raise_with_backtrace e bt

let by_start spans =
  List.stable_sort
    (fun a b -> compare a.Span.start_us b.Span.start_us)
    spans

let spans t =
  Mutex.lock t.lock;
  let l = t.recorded in
  Mutex.unlock t.lock;
  by_start (List.rev_map snd l)

let stages t =
  Mutex.lock t.lock;
  let l = t.recorded in
  Mutex.unlock t.lock;
  by_start
    (List.filter_map (fun (d, s) -> if d = 0 then Some s else None) l)

(* The per-stage wall-µs breakdown shipped on the wire.  Top-level
   stages are disjoint segments of the request's lifetime, so their sum
   never exceeds [total_us]; the uninstrumented remainder (event-loop
   dispatch, select latency, response serialization) is reported as one
   explicit "other" entry so the entries tile the total exactly. *)
let breakdown t ~total_us =
  let stages = stages t in
  let listed =
    List.map (fun s -> (s.Span.name, s.Span.dur_us)) stages
  in
  let sum = List.fold_left (fun a (_, d) -> a +. d) 0.0 listed in
  let residual = total_us -. sum in
  if residual > 0.0 then listed @ [ ("other", residual) ] else listed
