(* One process-wide registry of named metrics, absorbing the ad-hoc
   counters that were previously scattered over Tables, Calib_cache, the
   domain pool and the timing engine.

   Domain-safety follows the same discipline as lib/parallel: hot updates
   are single atomic RMWs on pre-registered cells (no lock on the update
   path), and the registry itself — a name -> metric table mutated only
   on first registration — is guarded by one mutex.  Registration is
   idempotent: the same name always returns the same cell, so library
   modules simply register at module-init time and update unconditionally.

   Naming convention (see DESIGN §11): dotted lowercase paths,
   component-first — e.g. [calib.cache.hits], [pool.chunks.stolen],
   [engine.busy.alu_cycles]. *)

type counter = { c_name : string; c_cell : int Atomic.t }
type gauge = { g_name : string; g_cell : float Atomic.t }

type histogram = {
  h_name : string;
  bounds : float array; (* strictly increasing upper bounds *)
  buckets : int Atomic.t array; (* length bounds + 1: last is overflow *)
  h_count : int Atomic.t;
  h_sum : float Atomic.t;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let lock = Mutex.create ()
let registry : (string, metric) Hashtbl.t = Hashtbl.create 32

let register name make select kind =
  let m =
    Mutex.protect lock (fun () ->
        match Hashtbl.find_opt registry name with
        | Some m -> m
        | None ->
          let m = make () in
          Hashtbl.add registry name m;
          m)
  in
  match select m with
  | Some v -> v
  | None ->
    invalid_arg
      (Printf.sprintf "Metrics: %s is already registered and is not a %s"
         name kind)

let counter name =
  register name
    (fun () -> Counter { c_name = name; c_cell = Atomic.make 0 })
    (function Counter c -> Some c | _ -> None)
    "counter"

let incr c = ignore (Atomic.fetch_and_add c.c_cell 1)
let add c n = ignore (Atomic.fetch_and_add c.c_cell n)
let value c = Atomic.get c.c_cell

let gauge name =
  register name
    (fun () -> Gauge { g_name = name; g_cell = Atomic.make 0.0 })
    (function Gauge g -> Some g | _ -> None)
    "gauge"

let set_gauge g v = Atomic.set g.g_cell v
let gauge_value g = Atomic.get g.g_cell

let default_buckets =
  [| 1e-6; 1e-5; 1e-4; 1e-3; 1e-2; 1e-1; 1.0; 10.0; 100.0 |]

let histogram ?(buckets = default_buckets) name =
  let make () =
    let n = Array.length buckets in
    for i = 1 to n - 1 do
      if buckets.(i) <= buckets.(i - 1) then
        invalid_arg "Metrics.histogram: bounds must be strictly increasing"
    done;
    Histogram
      {
        h_name = name;
        bounds = Array.copy buckets;
        buckets = Array.init (n + 1) (fun _ -> Atomic.make 0);
        h_count = Atomic.make 0;
        h_sum = Atomic.make 0.0;
      }
  in
  register name make
    (function Histogram h -> Some h | _ -> None)
    "histogram"

let rec atomic_add_float cell x =
  let cur = Atomic.get cell in
  if not (Atomic.compare_and_set cell cur (cur +. x)) then
    atomic_add_float cell x

let observe h v =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || v <= h.bounds.(i) then i else slot (i + 1) in
  ignore (Atomic.fetch_and_add h.buckets.(slot 0) 1);
  ignore (Atomic.fetch_and_add h.h_count 1);
  atomic_add_float h.h_sum v

(* --- percentiles -------------------------------------------------------- *)

(* Pure quantile estimate over cumulative fixed-boundary buckets, the
   same way Prometheus' histogram_quantile works: find the bucket the
   rank lands in, interpolate linearly inside it (observations are
   assumed uniform within a bucket).  [counts] has one entry per bound
   plus the overflow bucket.  The overflow bucket has no upper edge, so
   a rank landing there reports the largest finite bound — a documented
   floor, not an extrapolation.  Returns [None] for an empty histogram
   (or one whose observations all sit in the overflow bucket of a
   bound-less histogram). *)
let quantile_of_buckets ~bounds ~counts q =
  let n = Array.length bounds in
  if Array.length counts <> n + 1 then
    invalid_arg "Metrics.quantile_of_buckets: counts must be bounds + 1";
  let total = Array.fold_left ( + ) 0 counts in
  if total = 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = q *. float_of_int total in
    let rec find i cum_before =
      if i > n then None (* unreachable: total > 0 *)
      else
        let c = counts.(i) in
        let cum = cum_before + c in
        if c > 0 && float_of_int cum >= rank then
          if i = n then if n > 0 then Some bounds.(n - 1) else None
          else begin
            let lo = if i = 0 then 0.0 else bounds.(i - 1) in
            let hi = bounds.(i) in
            let pos =
              (rank -. float_of_int cum_before) /. float_of_int c
            in
            let pos = Float.max 0.0 (Float.min 1.0 pos) in
            Some (lo +. ((hi -. lo) *. pos))
          end
        else find (i + 1) cum
    in
    find 0 0
  end

type hist_snapshot = {
  hs_name : string;
  hs_bounds : float array;
  hs_counts : int array; (* length bounds + 1: last is overflow *)
  hs_count : int;
  hs_sum : float;
}

let snapshot_histogram h =
  {
    hs_name = h.h_name;
    hs_bounds = Array.copy h.bounds;
    hs_counts = Array.map Atomic.get h.buckets;
    hs_count = Atomic.get h.h_count;
    hs_sum = Atomic.get h.h_sum;
  }

let quantile hs q =
  quantile_of_buckets ~bounds:hs.hs_bounds ~counts:hs.hs_counts q

(* p50/p95/p99, the summary the dashboard tabulates per stage and per
   status. *)
let percentiles hs = (quantile hs 0.50, quantile hs 0.95, quantile hs 0.99)

(* --- snapshots and dumps ------------------------------------------------ *)

let all_metrics () =
  let l =
    Mutex.protect lock (fun () ->
        Hashtbl.fold (fun _ m acc -> m :: acc) registry [])
  in
  List.sort
    (fun a b ->
      let name = function
        | Counter c -> c.c_name
        | Gauge g -> g.g_name
        | Histogram h -> h.h_name
      in
      compare (name a) (name b))
    l

let snapshot_counters () =
  List.filter_map
    (function
      | Counter c -> Some (c.c_name, Atomic.get c.c_cell) | _ -> None)
    (all_metrics ())

let snapshot_gauges () =
  List.filter_map
    (function Gauge g -> Some (g.g_name, Atomic.get g.g_cell) | _ -> None)
    (all_metrics ())

let snapshot_histograms () =
  List.filter_map
    (function Histogram h -> Some (snapshot_histogram h) | _ -> None)
    (all_metrics ())

let reset () =
  Mutex.protect lock (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter c -> Atomic.set c.c_cell 0
          | Gauge g -> Atomic.set g.g_cell 0.0
          | Histogram h ->
            Array.iter (fun b -> Atomic.set b 0) h.buckets;
            Atomic.set h.h_count 0;
            Atomic.set h.h_sum 0.0)
        registry)

let dump_text () =
  let b = Buffer.create 512 in
  List.iter
    (fun m ->
      match m with
      | Counter c ->
        Buffer.add_string b
          (Printf.sprintf "%s %d\n" c.c_name (Atomic.get c.c_cell))
      | Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "%s %g\n" g.g_name (Atomic.get g.g_cell))
      | Histogram h ->
        Buffer.add_string b
          (Printf.sprintf "%s count=%d sum=%g" h.h_name
             (Atomic.get h.h_count) (Atomic.get h.h_sum));
        Array.iteri
          (fun i bound ->
            Buffer.add_string b
              (Printf.sprintf " le_%g=%d" bound (Atomic.get h.buckets.(i))))
          h.bounds;
        Buffer.add_string b
          (Printf.sprintf " inf=%d\n"
             (Atomic.get h.buckets.(Array.length h.bounds))))
    (all_metrics ());
  Buffer.contents b

(* --- OpenMetrics text exposition ---------------------------------------- *)

(* Metric names are dotted paths internally; OpenMetrics names must match
   [a-zA-Z_:][a-zA-Z0-9_:]*, so dots (and any other stray character)
   become underscores. *)
let openmetrics_name name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

(* Label-value escaping per the OpenMetrics ABNF: backslash, double quote
   and newline are escaped; everything else passes through. *)
let escape_label_value v =
  let b = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

(* A float rendered the way OpenMetrics expects: decimal, with +Inf for
   the overflow bucket bound. *)
let om_float x =
  if Float.is_integer x && Float.abs x < 1e15 then
    Printf.sprintf "%.1f" x
  else Printf.sprintf "%.17g" x

(* Deterministic: metrics sorted by name (all_metrics), buckets in bound
   order, cumulative counts, "# EOF" terminator. *)
let dump_openmetrics () =
  let b = Buffer.create 1024 in
  List.iter
    (fun m ->
      match m with
      | Counter c ->
        let n = openmetrics_name c.c_name in
        Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
        Buffer.add_string b
          (Printf.sprintf "%s_total %d\n" n (Atomic.get c.c_cell))
      | Gauge g ->
        let n = openmetrics_name g.g_name in
        Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
        Buffer.add_string b
          (Printf.sprintf "%s %s\n" n (om_float (Atomic.get g.g_cell)))
      | Histogram h ->
        let n = openmetrics_name h.h_name in
        Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
        let cum = ref 0 in
        Array.iteri
          (fun i bound ->
            cum := !cum + Atomic.get h.buckets.(i);
            Buffer.add_string b
              (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n
                 (escape_label_value (om_float bound))
                 !cum))
          h.bounds;
        cum := !cum + Atomic.get h.buckets.(Array.length h.bounds);
        Buffer.add_string b
          (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n !cum);
        Buffer.add_string b
          (Printf.sprintf "%s_sum %s\n" n (om_float (Atomic.get h.h_sum)));
        Buffer.add_string b
          (Printf.sprintf "%s_count %d\n" n (Atomic.get h.h_count)))
    (all_metrics ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* One flat JSON object: counters and gauges map name -> number,
   histograms map name -> {count, sum, le:[[bound,count],...], inf}. *)
let dump_json () =
  let b = Buffer.create 512 in
  Buffer.add_char b '{';
  List.iteri
    (fun i m ->
      if i > 0 then Buffer.add_char b ',';
      match m with
      | Counter c ->
        Buffer.add_string b
          (Printf.sprintf "%s:%d" (Json_text.quoted c.c_name)
             (Atomic.get c.c_cell))
      | Gauge g ->
        Buffer.add_string b
          (Printf.sprintf "%s:%s" (Json_text.quoted g.g_name)
             (Json_text.number (Atomic.get g.g_cell)))
      | Histogram h ->
        Buffer.add_string b
          (Printf.sprintf "%s:{\"count\":%d,\"sum\":%s,\"le\":["
             (Json_text.quoted h.h_name) (Atomic.get h.h_count)
             (Json_text.number (Atomic.get h.h_sum)));
        Array.iteri
          (fun i bound ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_string b
              (Printf.sprintf "[%s,%d]" (Json_text.number bound)
                 (Atomic.get h.buckets.(i))))
          h.bounds;
        Buffer.add_string b
          (Printf.sprintf "],\"inf\":%d}"
             (Atomic.get h.buckets.(Array.length h.bounds))))
    (all_metrics ());
  Buffer.add_char b '}';
  Buffer.contents b
