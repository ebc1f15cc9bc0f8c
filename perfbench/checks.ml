(* Output checks.  Each check is a pure function from the outputs it
   inspects to the list of what is wrong with them ([] = the check
   holds), so the tests can feed each one a deliberately corrupted
   result. *)

module Component = Gpu_model.Component

(* What one analysis produced, reduced to the values the checks and the
   simulated-output digest read. *)
type kernel = {
  kname : string;
  bottleneck : Component.t;
  predicted_s : float;
  cycles : int;
  seconds : float;
  busy : int array;  (** alu, smem, atomic, gmem busy cycles *)
  warps_launched : int;
  warps_retired : int;
  blocks_unlaunched : int;
  warp_instrs : int;  (** issued by the functionally simulated blocks *)
}

let of_report kname (r : Gpu_model.Workflow.report) =
  let a = r.Gpu_model.Workflow.analysis in
  let m = r.Gpu_model.Workflow.measured in
  let g f = match m with Some m -> f m | None -> 0 in
  let open Gpu_timing.Engine in
  {
    kname;
    bottleneck = a.Gpu_model.Model.bottleneck;
    predicted_s = a.Gpu_model.Model.predicted_seconds;
    cycles = g (fun m -> m.cycles);
    seconds = (match m with Some m -> m.seconds | None -> 0.);
    busy =
      [|
        g (fun m -> m.alu_busy_cycles);
        g (fun m -> m.smem_busy_cycles);
        g (fun m -> m.atomic_busy_cycles);
        g (fun m -> m.gmem_busy_cycles);
      |];
    warps_launched = g (fun m -> m.warps_launched);
    warps_retired = g (fun m -> m.warps_retired);
    blocks_unlaunched = g (fun m -> m.blocks_unlaunched);
    warp_instrs =
      Gpu_sim.Stats.total_issued (Gpu_sim.Stats.total r.Gpu_model.Workflow.stats);
  }

let bits = Int64.bits_of_float

(* --- paper-replay --------------------------------------------------- *)

let verdicts expected (ks : kernel list) =
  List.filter_map
    (fun (name, want) ->
      match List.find_opt (fun k -> k.kname = name) ks with
      | None -> Some (Printf.sprintf "%s: no result" name)
      | Some k when k.bottleneck <> want ->
        Some
          (Printf.sprintf "%s: %s-bound, expected %s-bound" name
             (Component.short_name k.bottleneck)
             (Component.short_name want))
      | Some _ -> None)
    expected

let faster ~fast ~slow =
  if fast.cycles < slow.cycles then []
  else
    [
      Printf.sprintf "%s replays in %d cycles, not fewer than %s's %d"
        fast.kname fast.cycles slow.kname slow.cycles;
    ]

let conservation k =
  (if k.warps_launched = k.warps_retired && k.warps_launched > 0 then []
   else
     [
       Printf.sprintf "%s: %d warps launched, %d retired" k.kname
         k.warps_launched k.warps_retired;
     ])
  @
  if k.blocks_unlaunched = 0 then []
  else [ Printf.sprintf "%s: %d blocks never launched" k.kname k.blocks_unlaunched ]

let busy_matches ~expected k =
  if expected = k.busy then []
  else
    [
      Printf.sprintf "%s: busy cycles [%s] differ from the analytic [%s]"
        k.kname
        (String.concat " " (Array.to_list (Array.map string_of_int k.busy)))
        (String.concat " " (Array.to_list (Array.map string_of_int expected)));
    ]

(* Two routes to one analysis must agree to the bit. *)
let identical ~what a b =
  let diffs =
    List.filter_map
      (fun (field, same) -> if same then None else Some field)
      [
        ("bottleneck", a.bottleneck = b.bottleneck);
        ("predicted_s", bits a.predicted_s = bits b.predicted_s);
        ("cycles", a.cycles = b.cycles);
        ("seconds", bits a.seconds = bits b.seconds);
        ("busy", a.busy = b.busy);
        ("warps", a.warps_launched = b.warps_launched
                  && a.warps_retired = b.warps_retired);
        ("blocks_unlaunched", a.blocks_unlaunched = b.blocks_unlaunched);
        ("warp_instrs", a.warp_instrs = b.warp_instrs);
      ]
  in
  if diffs = [] then []
  else
    [
      Printf.sprintf "%s: %s differs from %s in %s" a.kname what b.kname
        (String.concat ", " diffs);
    ]

(* --- fleet-cold ----------------------------------------------------- *)

let tables_equal ~profile ~built ~loaded =
  if Array.length built <> Array.length loaded then
    [
      Printf.sprintf "%s: %d table points built, %d reloaded" profile
        (Array.length built) (Array.length loaded);
    ]
  else
    let bad = ref [] in
    Array.iteri
      (fun i v -> if bits v <> bits loaded.(i) then bad := i :: !bad)
      built;
    match !bad with
    | [] -> []
    | l ->
      [
        Printf.sprintf "%s: %d of %d reloaded table points differ (first at %d)"
          profile (List.length l) (Array.length built)
          (List.fold_left min max_int l);
      ]

(* --- serve-mix ------------------------------------------------------ *)

let status_ok ~kind (r : Gpu_serve.Protocol.response) =
  match r.Gpu_serve.Protocol.status with
  | Gpu_serve.Protocol.Completed -> []
  | s ->
    [
      Printf.sprintf "%s: status %s (%s)" kind
        (Gpu_serve.Protocol.status_name s)
        (String.concat "; "
           (List.map (fun d -> d.Gpu_diag.Diag.message) r.Gpu_serve.Protocol.diags));
    ]

(* [stage_us] tiles the server's [elapsed_ms]; both are rounded on the
   wire, so allow a few microseconds per stage. *)
let stage_sum ~kind (r : Gpu_serve.Protocol.response) =
  let stages = r.Gpu_serve.Protocol.stage_breakdown in
  let sum_ms = List.fold_left (fun a (_, us) -> a +. us) 0. stages /. 1e3 in
  let tol = 0.001 +. (0.002 *. float_of_int (List.length stages)) in
  if stages <> [] && Float.abs (sum_ms -. r.Gpu_serve.Protocol.elapsed_ms) <= tol
  then []
  else
    [
      Printf.sprintf "%s: stage_us sums to %.4f ms, elapsed_ms is %.4f" kind
        sum_ms r.Gpu_serve.Protocol.elapsed_ms;
    ]

(* The document a response carries: the JSON body or the rendered text. *)
let document (r : Gpu_serve.Protocol.response) =
  match (r.Gpu_serve.Protocol.body, r.Gpu_serve.Protocol.rendered) with
  | Some b, _ -> Gpu_report.Jsonx.encode b
  | None, Some s -> s
  | None, None -> ""

let same_document ~kind ~reference got =
  if got = reference && got <> "" then []
  else if got = "" then [ Printf.sprintf "%s: response carries no document" kind ]
  else
    [
      Printf.sprintf "%s: document differs from the warm-up's (%d vs %d bytes)"
        kind (String.length got) (String.length reference);
    ]
