(* Lightweight wall-time span tracer for the Figure-1 workflow stages.

   Zero-cost when off: [with_] checks one atomic flag and tail-calls the
   body.  When on, a span records its wall time (microseconds since the
   module's load-time epoch), caller attributes and the delta of every
   registered counter across its extent — so "calibrate" shows exactly
   how many microbenchmarks it measured and whether the disk cache hit.

   Completed spans land in one mutex-guarded list in completion order. *)

type completed = {
  name : string;
  start_us : float;
  dur_us : float;
  attrs : (string * string) list;
  deltas : (string * int) list; (* nonzero counter deltas *)
}

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* Epoch: set when the module loads, so every domain reads the same value
   without forcing anything.  All span timestamps are relative to it, so
   trace-event ts values stay small. *)
let epoch = Unix.gettimeofday ()
let now_us () = (Unix.gettimeofday () -. epoch) *. 1e6

let completed_lock = Mutex.create ()
let completed_spans : completed list ref = ref [] (* reversed *)

let completed () =
  List.rev (Mutex.protect completed_lock (fun () -> !completed_spans))

let clear () = Mutex.protect completed_lock (fun () -> completed_spans := [])

(* Merge two sorted (name, value) snapshots into nonzero deltas; counters
   registered mid-span count from zero. *)
let diff_counters before after =
  let rec go acc before after =
    match (before, after) with
    | _, [] -> List.rev acc
    | [], (n, v) :: after ->
      go (if v <> 0 then (n, v) :: acc else acc) [] after
    | (nb, vb) :: before', (na, va) :: after' ->
      let c = compare nb na in
      if c = 0 then
        go (if va - vb <> 0 then (na, va - vb) :: acc else acc) before'
          after'
      else if c < 0 then go acc before' after (* counter vanished: reset *)
      else go (if va <> 0 then (na, va) :: acc else acc) before after'
  in
  go [] before after

(* Attributes distinguishing a failed stage from a slow one: when the
   exception carries a structured diagnostic, tag the span with its
   severity and stage so trace viewers can color it. *)
let exn_attrs = function
  | Gpu_diag.Diag.Diag_error d ->
    [
      ("diag.severity", Gpu_diag.Diag.severity_name d.Gpu_diag.Diag.severity);
      ("diag.stage", Gpu_diag.Diag.stage_name d.Gpu_diag.Diag.stage);
    ]
  | e -> [ ("error", Printexc.exn_slot_name e) ]

let with_ ?(attrs = []) name f =
  if not (Atomic.get enabled_flag) then f ()
  else begin
    let c0 = Metrics.snapshot_counters () in
    let t0 = now_us () in
    let record extra_attrs =
      let t1 = now_us () in
      let deltas = diff_counters c0 (Metrics.snapshot_counters ()) in
      let c =
        {
          name;
          start_us = t0;
          dur_us = t1 -. t0;
          attrs = attrs @ extra_attrs;
          deltas;
        }
      in
      Mutex.protect completed_lock (fun () ->
          completed_spans := c :: !completed_spans)
    in
    match f () with
    | v ->
      record [];
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      record (exn_attrs e);
      Printexc.raise_with_backtrace e bt
  end
