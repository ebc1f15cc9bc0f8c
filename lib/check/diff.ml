(* Model-vs-engine differential: for a uniform case, predict its run time
   with the throughput model (Core.Model.analyze over synthetically
   accumulated statistics) and measure it with the timing engine, then
   require agreement within a multiplicative tolerance band.

   The statistics are accumulated exactly the way the interpreter's info
   extractor would have (every event counted as an issued
   warp-instruction of its class, barriers issued as class-ctrl and
   counted per stage, shared transactions conflict-adjusted, global
   transactions with their byte counts, active warps per stage), so the
   comparison isolates the model arithmetic + calibration tables against
   the event-driven engine — the two independent time derivations this
   repo has.

   The band is wide by design: the model is a throughput model (it
   assumes enough warps to hide latency and charges each component its
   aggregate work), while the engine schedules every instruction.  On
   the generator's domain — saturated homogeneous grids of dependent
   chains, the domain the tables are calibrated on — the two agree well
   within [default_tolerance]; the documented band is part of the
   repo's contract and ratchets down as the model improves. *)

module Stats = Gpu_sim.Stats
module Model = Gpu_model.Model
module Engine = Gpu_timing.Engine
module I = Gpu_isa.Instr

let default_tolerance = 3.0

type report = {
  predicted : float;  (** model seconds *)
  measured : float;  (** engine seconds *)
  ratio : float;  (** predicted / measured *)
  active_warps : int;
  bottleneck : string;
}

let pp_report ppf r =
  Fmt.pf ppf
    "predicted %.3g ms, engine %.3g ms, ratio %.2f (%d warps/SM, %s-bound)"
    (1e3 *. r.predicted) (1e3 *. r.measured) r.ratio r.active_warps
    r.bottleneck

let is_work = function
  | Case.Alu { cls = I.Class_ctrl; _ } -> false
  | Case.Alu _ | Case.Smem _ | Case.Atomic _ | Case.Gmem _ -> true

(* Mirror the interpreter's per-stage accounting for one abstract case. *)
let stats_of_case ~(spec : Gpu_hw.Spec.t) (c : Case.t) =
  let st = Stats.create () in
  (* coalescing groups a full warp decomposes into: 2 half-warps on the
     GT200 baseline, 1 full-warp group on 32-bank specs — the
     conflict/contention-free ideal per warp-access *)
  let groups =
    max 1 (spec.Gpu_hw.Spec.warp_size / spec.Gpu_hw.Spec.coalesce_threads)
  in
  Array.iter
    (fun (b : Case.block) ->
      Array.iter
        (function
          | Case.Empty -> ()
          | Case.Stages stages ->
            Array.iteri
              (fun k evs ->
                if Array.exists is_work evs then
                  Stats.count_active_warp st ~stage:k;
                let pc = Stats.no_pc in
                Array.iter
                  (function
                    | Case.Alu { cls; _ } ->
                      Stats.count_issue st ~stage:k ~pc cls
                    | Case.Smem { fused; txns; _ } ->
                      Stats.count_issue st ~stage:k ~pc
                        (if fused then I.Class_ii else I.Class_mem);
                      if fused then Stats.count_mad st ~stage:k;
                      (* a conflict-free warp access needs one
                         transaction per coalescing group; the generator
                         only inflates *)
                      Stats.count_smem st ~stage:k ~pc ~txns
                        ~ideal:(min txns groups)
                    | Case.Atomic { txns; _ } ->
                      Stats.count_issue st ~stage:k ~pc I.Class_mem;
                      (* contention-free would be one transaction per
                         active coalescing group; the generator's txns
                         only inflate from there *)
                      Stats.count_atomic st ~stage:k ~pc ~txns
                        ~ideal:(min txns groups)
                    | Case.Gmem { txns; _ } ->
                      Stats.count_issue st ~stage:k ~pc I.Class_mem;
                      let bytes =
                        Array.fold_left (fun acc (_, size) -> acc + size) 0 txns
                      in
                      Stats.count_gmem st ~stage:k ~pc
                        ~txns:(Array.length txns) ~bytes ~requested:bytes)
                  evs;
                (* the barrier terminating stage k issues in stage k,
                   like the interpreter's Bar *)
                if k < b.nstages - 1 then begin
                  Stats.count_issue st ~stage:k ~pc I.Class_ctrl;
                  Stats.count_barrier st ~stage:k
                end)
              stages)
        b.warps)
    c.blocks;
  st

let warps_per_block (c : Case.t) = Array.length c.blocks.(0).warps

(* Residency from the occupancy calculator, as the real workflow would:
   a register-light kernel limited by threads (and the hardware block
   cap), the configuration the calibration microbenchmarks use. *)
let occupancy_of ~spec (c : Case.t) =
  Gpu_hw.Occupancy.compute ~spec
    {
      Gpu_hw.Occupancy.threads_per_block =
        warps_per_block c * spec.Gpu_hw.Spec.warp_size;
      registers_per_thread = 16;
      smem_per_block = 0;
    }

let check ~(spec : Gpu_hw.Spec.t) ~tables ~tol (c : Case.t) :
    (report, string) result =
  if not c.uniform then Error "differential requires a uniform case"
  else
    match Case.validate c with
    | Error m -> Error ("invalid case: " ^ m)
    | Ok () -> (
      match occupancy_of ~spec c with
      | exception Gpu_hw.Occupancy.Invalid_launch m ->
        Error ("invalid launch: " ^ m)
      | occupancy -> (
        let nblocks = Case.num_blocks c in
        let inputs =
          {
            Model.in_spec = spec;
            tables;
            stats = stats_of_case ~spec c;
            scale = 1.0;
            in_grid = nblocks;
            in_block = warps_per_block c * spec.warp_size;
            in_occupancy = occupancy;
            blocks_run = nblocks;
          }
        in
        match Model.analyze inputs with
        | exception e -> Error ("model raised " ^ Printexc.to_string e)
        | analysis -> (
          match
            (* uniform blocks: the most-loaded cluster bounds the grid *)
            Engine.run ~homogeneous:true ~spec
              ~max_resident_blocks:occupancy.Gpu_hw.Occupancy.blocks
              (Case.traces c)
          with
          | exception e -> Error ("engine raised " ^ Printexc.to_string e)
          | r ->
            let predicted = analysis.Model.predicted_seconds in
            let measured = r.Engine.seconds in
            if predicted <= 0.0 && measured <= 0.0 then
              (* a case with no work takes no time in both derivations:
                 agreement, not a counterexample — and the shrinker must
                 not collapse a real band violation into this *)
              Ok
                {
                  predicted;
                  measured;
                  ratio = 1.0;
                  active_warps = 0;
                  bottleneck = "none";
                }
            else if measured <= 0.0 || predicted <= 0.0 then
              Error
                (Fmt.str "degenerate times: predicted %g s, measured %g s"
                   predicted measured)
            else
              let ratio = predicted /. measured in
              let report =
                {
                  predicted;
                  measured;
                  ratio;
                  active_warps =
                    (match analysis.Model.stages with
                    | st :: _ -> st.Model.active_warps
                    | [] -> 0);
                  bottleneck =
                    Gpu_model.Component.name analysis.Model.bottleneck;
                }
              in
              if ratio <= tol && 1.0 /. ratio <= tol then Ok report
              else
                Error
                  (Fmt.str
                     "@[<v>model and engine disagree beyond %.2fx: %a@,\
                      on %a@]"
                     tol pp_report report Case.pp c))))

let fails ~spec ~tables ~tol c =
  match check ~spec ~tables ~tol c with
  | Ok _ -> false
  | Error _ -> true
