(* The host's pace: how fast the CPU the benchmark runs on executes a
   fixed piece of the benchmark's own work right now, sampled every few
   tens of milliseconds by a thread of its own (or by a client between
   its requests).

   On a shared virtual machine the same code runs up to 1.6 times as fast
   or slow from one moment to the next, as the host places other tenants'
   work beside this machine's CPUs.  The switches come every few hundred
   milliseconds, no steal time shows them, and wall and CPU time move
   together.  So every time the benchmark reports is scaled by the pace:
   an interval of wall time counts [nominal_s / reference] seconds per
   second, where [reference] is how long the reference work took at that
   moment — the time the operation would take on a CPU that runs the
   reference work in [nominal_s].  The reference work is the benchmark's,
   not the program's, so a change to the program moves the scaled times
   as much as the wall times, while a change of pace slows the reference
   with the program and cancels.  This needs the sampler on the CPU the
   work runs on: run.py pins the untraced run to one CPU.

   A sample is the median of three timed runs of the reference work; the
   scale factor is interpolated linearly between samples, and the time
   spent sampling is left out of every interval. *)

(* A fixed unit: about the reference work's time on the 2-vCPU, 2.1 GHz
   Xeon virtual machine this benchmark was defined on, in its faster
   periods, so that scaled times read about as wall times did then. *)
let nominal_s = 0.00015

(* The reference work: integer arithmetic, array indexing and branches —
   the simulator's kind of work — over a 32 KB table that stays in the
   core's own cache.  A reference that walked a table larger than the
   core's cache was measured to follow the memory traffic of whatever ran
   beside it more than the program's own speed: its scaled times spread
   more than the wall times did.  Sampling allocates nothing: an
   allocation at a moment that depends on timing would shift when the
   program's own collections happen, and with them its peak memory. *)
let words = 1 lsl 12
let steps = 60_000
let table = Array.make words 0

let work () =
  let x = ref 0x2545F491 and acc = ref 0 in
  for i = 1 to steps do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let k = !x land (words - 1) in
    table.(k) <- table.(k) + i;
    acc := (!acc + table.((k * 7) land (words - 1))) land 0xffffff
  done;
  !acc

(* Room for an hour of samples, allocated up front. *)
let capacity = 1 lsl 16

type t = {
  lock : Mutex.t;
  starts : Float.Array.t;
  stops : Float.Array.t;
  refs : Float.Array.t;  (** the reference's time, seconds *)
  mutable n : int;
  mutable running : bool;
  mutable thread : Thread.t option;
}

let create () =
  let arr () = Float.Array.make capacity 0. in
  {
    lock = Mutex.create ();
    starts = arr ();
    stops = arr ();
    refs = arr ();
    n = 0;
    running = false;
    thread = None;
  }

(* Record one sample (also how the tests feed it); beyond [capacity] the
   oldest samples are overwritten. *)
let add t ~start ~stop ~ref_s =
  Mutex.lock t.lock;
  let i = t.n land (capacity - 1) in
  Float.Array.set t.starts i start;
  Float.Array.set t.stops i stop;
  Float.Array.set t.refs i ref_s;
  t.n <- t.n + 1;
  Mutex.unlock t.lock

(* Time the reference work three times and record the median (written
   out, so that no float is boxed). *)
let sample t =
  let t0 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  let t1 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  let t2 = Unix.gettimeofday () in
  ignore (Sys.opaque_identity (work ()));
  let t3 = Unix.gettimeofday () in
  let a = t1 -. t0 and b = t2 -. t1 and c = t3 -. t2 in
  Mutex.lock t.lock;
  let i = t.n land (capacity - 1) in
  Float.Array.set t.starts i t0;
  Float.Array.set t.stops i t3;
  Float.Array.set t.refs i
    (if a < b then if b < c then b else if a < c then c else a
     else if a < c then a
     else if b < c then c
     else b);
  t.n <- t.n + 1;
  Mutex.unlock t.lock

(* Seconds between samples. *)
let period = 0.03

(* Sample every [period] seconds (more, when the thread waits for the
   runtime) until [stop]. *)
let start t =
  sample t;
  t.running <- true;
  t.thread <-
    Some
      (Thread.create
         (fun () ->
           while t.running do
             Thread.delay period;
             if t.running then sample t
           done)
         ())

(* Stop the sampling thread, if it runs, and take a last sample. *)
let stop t =
  t.running <- false;
  Option.iter Thread.join t.thread;
  t.thread <- None;
  sample t

type sample = {
  start : float;
  stop : float;
  factor : float;  (** [nominal_s] / the reference's time *)
}

(* The samples, oldest first. *)
let samples t =
  Mutex.lock t.lock;
  let n = min t.n capacity and first = max 0 (t.n - capacity) in
  let l =
    List.init n (fun k ->
        let i = (first + k) land (capacity - 1) in
        {
          start = Float.Array.get t.starts i;
          stop = Float.Array.get t.stops i;
          factor = nominal_s /. Float.Array.get t.refs i;
        })
  in
  Mutex.unlock t.lock;
  l

let at s = (s.start +. s.stop) /. 2.

(* The scale factor at time [x]: linear between the neighbouring samples,
   constant before the first and after the last. *)
let factor_at ss x =
  let rec go = function
    | [] -> invalid_arg "Pace: no sample"
    | [ s ] -> s.factor
    | a :: (b :: _ as rest) ->
      if x <= at a then a.factor
      else if x <= at b then
        a.factor +. ((b.factor -. a.factor) *. (x -. at a) /. (at b -. at a))
      else go rest
  in
  go ss

let overlap ~a ~b s = Float.max 0. (Float.min b s.stop -. Float.max a s.start)

(* Wall seconds in [a, b], sampling left out. *)
let wall t ~a ~b =
  List.fold_left (fun acc s -> acc -. overlap ~a ~b s) (b -. a) (samples t)

(* Scaled seconds in [a, b]: the integral of the scale factor over the
   interval, sampling left out.  The factor is piecewise linear with
   corners at the samples, so the trapezoid rule over them is exact.
   Only samples within a second of the interval take part, which keeps a
   call cheap when a run scales a thousand round trips. *)
let scaled t ~a ~b =
  let ss = List.filter (fun s -> s.stop > a -. 1. && s.start < b +. 1.) (samples t) in
  let ss = if ss = [] then samples t else ss in
  let corners =
    a :: b :: List.filter_map (fun s -> if at s > a && at s < b then Some (at s) else None) ss
    |> List.sort_uniq Float.compare
  in
  let rec integrate acc = function
    | x :: (y :: _ as rest) ->
      integrate (acc +. ((y -. x) *. (factor_at ss x +. factor_at ss y) /. 2.)) rest
    | [ _ ] | [] -> acc
  in
  List.fold_left (fun acc s -> acc -. (overlap ~a ~b s *. s.factor)) (integrate 0. corners) ss

(* The reference's run time over the whole run, in ms: fastest, median,
   slowest, and the number of samples. *)
let summary t =
  let ms = List.map (fun s -> nominal_s /. s.factor *. 1e3) (samples t) in
  let a = Quant.sorted ms in
  (a.(0), Quant.median ms, a.(Array.length a - 1), Array.length a)
