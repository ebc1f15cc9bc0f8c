(* Leveled structured logging: one JSON object per line.

   Every event carries level × component × trace_id × free-form attrs,
   so daemon logs correlate with wire responses (both carry the same
   splitmix64 trace id) and with span trees.  A sink is an out_channel
   behind a mutex: each event is rendered into a private buffer first,
   then written and flushed in one critical section, so concurrent
   domains never interleave bytes within a line — the property the
   test suite checks with N domains × M events.

   Debug events are sampled: keep 1 in [debug_keep] by a process-global
   atomic counter (deterministic, exact across domains).  Suppressed
   events — sampled-out or below the level threshold — bump [dropped],
   so the log's own honesty is observable: a reader can tell "quiet"
   from "throttled". *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

type value = S of string | I of int | F of float | B of bool

type sink = { oc : out_channel; m : Mutex.t }

let open_file ?(append = true) path =
  let flags =
    if append then [ Open_wronly; Open_creat; Open_append ]
    else [ Open_wronly; Open_creat; Open_trunc ]
  in
  { oc = open_out_gen flags 0o644 path; m = Mutex.create () }

let close s = Mutex.protect s.m (fun () -> close_out s.oc)

(* Global switchboard: a default sink (serve points it at the access
   log so Calib_cache / Pool warnings land in the same file), a level
   threshold, and the Debug sampler. *)
let default_sink : sink option Atomic.t = Atomic.make None
let set_default s = Atomic.set default_sink s
let default () = Atomic.get default_sink
let threshold = Atomic.make (level_rank Info)
let set_level l = Atomic.set threshold (level_rank l)
let debug_keep = Atomic.make 1
let set_debug_keep n = Atomic.set debug_keep (max 1 n)
let debug_seq = Atomic.make 0
let emitted_n = Atomic.make 0
let dropped_n = Atomic.make 0
let emitted () = Atomic.get emitted_n
let dropped () = Atomic.get dropped_n

let reset_counters () =
  Atomic.set emitted_n 0;
  Atomic.set dropped_n 0;
  Atomic.set debug_seq 0

let append_value b = function
  | S s -> Buffer.add_string b (Json_text.quoted s)
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> Buffer.add_string b (Json_text.number f)
  | B v -> Buffer.add_string b (if v then "true" else "false")

let render ~ts ~level ~component ~trace_id ~attrs msg =
  let b = Buffer.create 160 in
  Buffer.add_string b "{\"ts\":";
  Buffer.add_string b (Printf.sprintf "%.6f" ts);
  Buffer.add_string b ",\"level\":";
  Buffer.add_string b (Json_text.quoted (level_name level));
  Buffer.add_string b ",\"component\":";
  Buffer.add_string b (Json_text.quoted component);
  Buffer.add_string b ",\"trace_id\":";
  Buffer.add_string b (Json_text.quoted trace_id);
  Buffer.add_string b ",\"msg\":";
  Buffer.add_string b (Json_text.quoted msg);
  List.iter
    (fun (k, v) ->
      Buffer.add_char b ',';
      Buffer.add_string b (Json_text.quoted k);
      Buffer.add_char b ':';
      append_value b v)
    attrs;
  Buffer.add_string b "}\n";
  Buffer.contents b

let drop () =
  Atomic.incr dropped_n;
  Metrics.incr (Metrics.counter "log.events.dropped")

let event ?sink ?(trace_id = "") ?(attrs = []) level ~component msg =
  match (sink, Atomic.get default_sink) with
  | None, None -> () (* no sink configured: logging is off, zero work *)
  | Some s, _ | None, Some s ->
    if level_rank level < Atomic.get threshold then drop ()
    else if
      level = Debug
      &&
      let keep = Atomic.get debug_keep in
      keep > 1 && Atomic.fetch_and_add debug_seq 1 mod keep <> 0
    then drop ()
    else begin
      let line =
        render ~ts:(Unix.gettimeofday ()) ~level ~component ~trace_id
          ~attrs msg
      in
      Mutex.protect s.m (fun () ->
          output_string s.oc line;
          flush s.oc);
      Atomic.incr emitted_n;
      Metrics.incr (Metrics.counter "log.events.emitted")
    end
