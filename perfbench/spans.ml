(* In-memory span recorder for the traced runs.  Spans are recorded from
   the benchmark's own code, around its calls into each layer; they are
   kept in memory and written once, at exit, in the Chrome trace-event
   JSON that Perfetto loads.  Every span carries the operation it belongs
   to (0 = set-up, then 1, 2, ... for the timed operations) and its
   parent, so a layer's self time is its duration minus the part of it
   its children cover. *)

type arg = F of float | S of string

type span = {
  id : int;
  name : string;
  op : int;
  parent : int option;
  tid : int;
  start_us : float;
  end_us : float;
  args : (string * arg) list;
}

type t = {
  lock : Mutex.t;
  origin_us : float;
  mutable next : int;
  mutable spans : span list;
}

let now_us () = Unix.gettimeofday () *. 1e6

let create () =
  { lock = Mutex.create (); origin_us = now_us (); next = 0; spans = [] }

let fresh_id t =
  Mutex.lock t.lock;
  let id = t.next in
  t.next <- id + 1;
  Mutex.unlock t.lock;
  id

let add t s =
  Mutex.lock t.lock;
  t.spans <- s :: t.spans;
  Mutex.unlock t.lock

(* A span timed elsewhere (client-side request spans). *)
let record t ?parent ?(tid = 0) ?(args = []) ~op ~start_us ~end_us name =
  let id = fresh_id t in
  add t { id; name; op; parent; tid; start_us; end_us; args };
  id

(* What a span measures besides its extent: GC words and the process-wide
   counter registry, both as deltas across the call. *)
type probe = {
  minor : float;
  promoted : float;
  cpu : float;  (** user + system seconds, all domains *)
  counters : (string * int) list;
}

let probe () =
  let g = Gc.quick_stat () in
  let t = Unix.times () in
  {
    minor = g.Gc.minor_words;
    promoted = g.Gc.promoted_words;
    cpu = t.Unix.tms_utime +. t.Unix.tms_stime;
    counters = Gpu_obs.Metrics.snapshot_counters ();
  }

let delta_args ~before ~after =
  let moved =
    List.filter_map
      (fun (name, v) ->
        let d = v - Option.value ~default:0 (List.assoc_opt name before.counters) in
        if d = 0 then None else Some (name, F (float_of_int d)))
      after.counters
  in
  ("gc.minor_words", F (after.minor -. before.minor))
  :: ("gc.promoted_words", F (after.promoted -. before.promoted))
  :: ("cpu_s", F (after.cpu -. before.cpu))
  :: moved

(* [span t ~op name f] runs [f id] inside a span named [name]; [id] is the
   parent to hand to nested spans. *)
let span t ?parent ?(tid = 0) ?(args = []) ~op name f =
  let id = fresh_id t in
  let before = probe () in
  let start_us = now_us () in
  let finish () =
    let end_us = now_us () in
    let after = probe () in
    add t
      {
        id; name; op; parent; tid; start_us; end_us;
        args = args @ delta_args ~before ~after;
      }
  in
  Fun.protect ~finally:finish (fun () -> f id)

(* Tracing is optional in every walk: [None] runs the body bare. *)
let maybe trace ?parent ~op name f =
  match trace with
  | None -> f None
  | Some t -> span t ?parent ~op name (fun id -> f (Some id))

let spans t =
  Mutex.lock t.lock;
  let l = List.rev t.spans in
  Mutex.unlock t.lock;
  l

let dur_us s = s.end_us -. s.start_us

let arg_float s name =
  match List.assoc_opt name s.args with Some (F v) -> v | _ -> 0.

(* Length of the union of [intervals] clipped to [lo, hi]. *)
let coverage ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let rec go acc cur = function
    | [] -> (match cur with None -> acc | Some (a, b) -> acc +. (b -. a))
    | (a, b) :: rest -> (
      match cur with
      | None -> go acc (Some (a, b)) rest
      | Some (ca, cb) when a <= cb -> go acc (Some (ca, Float.max cb b)) rest
      | Some (ca, cb) -> go (acc +. (cb -. ca)) (Some (a, b)) rest)
  in
  go 0. None clipped

let self_us all s =
  let children =
    List.filter_map
      (fun c -> if c.parent = Some s.id then Some (c.start_us, c.end_us) else None)
      all
  in
  dur_us s -. coverage ~lo:s.start_us ~hi:s.end_us children

module Jt = Gpu_obs.Json_text

(* Complete ("X") events, one per span; self time rides in [args]. *)
let to_perfetto t =
  let all = spans t in
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      let args =
        ("id", F (float_of_int s.id))
        :: ("op", F (float_of_int s.op))
        :: ("self_us", F (self_us all s))
        :: (match s.parent with
           | Some p -> [ ("parent", F (float_of_int p)) ]
           | None -> [])
        @ s.args
      in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":{%s}}"
           (Jt.quoted s.name)
           (Jt.quoted
              (match String.index_opt s.name '.' with
              | Some i -> String.sub s.name 0 i
              | None -> s.name))
           s.tid
           (Jt.number (s.start_us -. t.origin_us))
           (Jt.number (dur_us s))
           (String.concat ","
              (List.map
                 (fun (k, v) ->
                   Jt.quoted k ^ ":"
                   ^ match v with F f -> Jt.number f | S s -> Jt.quoted s)
                 args))))
    all;
  Buffer.add_string b "]}\n";
  Buffer.contents b

let write_perfetto t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      output_string oc (to_perfetto t))
