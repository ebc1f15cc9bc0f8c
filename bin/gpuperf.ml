(* gpuperf: command-line front end to the performance-analysis toolchain.

     gpuperf occupancy --threads 64 --regs 30 --smem 1088
     gpuperf microbench [--gmem B,T,M]
     gpuperf analyze WORKLOAD [--tile T] [--padded] [--format F] [--atomic]
     gpuperf whatif WORKLOAD --variant DEV ...
     gpuperf sweep-devices WORKLOAD [--format md|html|json]
     gpuperf disasm FILE.cubin / gpuperf asm FILE.asm -o FILE.cubin
     gpuperf coalesce --addresses 0,4,8,... [--segment 32]
     gpuperf check [--seed N] [--device DEV]
     gpuperf trace WORKLOAD [-n N] / gpuperf report WORKLOAD [-n N]
     gpuperf serve [--port P | --unix PATH] [--queue N] ...
     gpuperf trace-serve WORKLOAD [-n N] [--requests N]

   WORKLOAD is a name from [Gpu_workloads.Registry.names] and DEV one from
   [Gpu_hw.Spec.fleet].  Exit codes are POSIX-style: 0 on success, 1 when
   the toolchain reports an analysis error (every such error is rendered
   as one stage-prefixed diagnostic on stderr), 2 on command-line usage
   errors. *)

open Cmdliner
module D = Gpu_diag.Diag

let spec = Gpu_hw.Spec.gtx285

(* --- uniform error rendering --------------------------------------------- *)

(* Read once at startup, not lazily: calibration diagnostics arrive from
   several pool domains at once, and a [Lazy.t] forced concurrently
   raises [CamlinternalLazy.Undefined]. *)
let color_stderr = Unix.isatty Unix.stderr

let print_diag d =
  prerr_endline (D.render ~color:color_stderr ~prefix:"gpuperf" d)

(* Stage attribution for exceptions escaping the raising APIs that the
   workload drivers still use internally.  [D.protect] falls back on a
   generic conversion for anything not matched here. *)
let convert_toolchain = function
  | Gpu_kernel.Compile.Error m -> Some (D.make D.Error D.Compile m)
  | Gpu_sim.Sim.Launch_error m -> Some (D.make D.Error D.Launch m)
  | Gpu_sim.Machine.Stuck m | Gpu_sim.Memory.Fault m ->
    Some (D.make D.Error D.Exec m)
  | Gpu_hw.Occupancy.Invalid_launch m -> Some (D.make D.Error D.Occupancy m)
  | Sys_error m -> Some (D.make D.Error D.Cli m)
  | _ -> None

let guard stage f = D.protect ~stage ~convert:convert_toolchain f

(* --- calibration options (shared by the table-driven subcommands) -------- *)

(* A job count parses through [Pool.parse_jobs] — the one validator for
   both the flag and GPUPERF_JOBS — so either spelling of an invalid
   value is a usage error (exit 2) from cmdliner, never a late failure. *)
let jobs_conv =
  let parse s =
    match Gpu_parallel.Pool.parse_jobs s with
    | Ok n -> Ok n
    | Error m -> Error (`Msg m)
  in
  Arg.conv ~docv:"N" (parse, Format.pp_print_int)

let jobs_env =
  Cmd.Env.info "GPUPERF_JOBS"
    ~doc:"Worker domains for microbenchmark calibration; same validation \
          as $(b,--jobs)."

let jobs_arg =
  Arg.(
    value
    & opt (some jobs_conv) None
    & info [ "jobs"; "j" ] ~docv:"N" ~env:jobs_env
        ~doc:
          "Worker domains for microbenchmark calibration (default: \
           $(b,GPUPERF_JOBS), else the machine's core count)")

let no_cache_arg =
  Arg.(
    value & flag
    & info [ "no-cache" ]
        ~doc:"Bypass the on-disk calibration cache (see \
              $(b,GPUPERF_CACHE_DIR))")

(* [--jobs] and [--no-cache], yielding the function that applies them
   ([jobs] is already validated by [jobs_conv]). *)
let calibration_opts =
  let apply jobs no_cache () =
    Option.iter Gpu_parallel.Pool.set_jobs jobs;
    if no_cache then Gpu_microbench.Tables.set_disk_cache false
  in
  Term.(const apply $ jobs_arg $ no_cache_arg)

(* --- metrics ------------------------------------------------------------- *)

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Dump the metrics registry (DESIGN §11) to stderr on exit")

let metrics_format_arg =
  Arg.(
    value
    & opt
        (enum
           [ ("text", `Text); ("json", `Json); ("openmetrics", `Openmetrics) ])
        `Text
    & info [ "metrics-format" ] ~docv:"FMT"
        ~doc:"Metrics dump format: text, json or openmetrics")

(* [--metrics] and [--metrics-format], yielding the wrapper every
   subcommand runs in.  It dumps even when the command fails: the
   counters are most interesting exactly when something went wrong. *)
let with_metrics :
    ((unit -> (unit, D.t) result) -> (unit, D.t) result) Term.t =
  let wrap metrics fmt f =
    if not metrics then f ()
    else
      let dump =
        match fmt with
        | `Text -> Gpu_obs.Metrics.dump_text
        | `Json -> Gpu_obs.Metrics.dump_json
        | `Openmetrics -> Gpu_obs.Metrics.dump_openmetrics
      in
      Fun.protect ~finally:(fun () -> prerr_string (dump ())) f
  in
  Term.(const wrap $ metrics_arg $ metrics_format_arg)

(* The prologue of a table-driven subcommand: the metrics wrapper, then
   [guard stage], then the calibration options, with the library's
   cache/calibration diagnostics routed to stderr so users can tell a
   slow cold calibration from a warm cache hit.  [serve] and
   [trace-serve] take {!with_metrics} and {!calibration_opts} instead:
   the daemon installs its own diagnostic sink. *)
let calibrated stage =
  let prologue with_metrics apply_opts f =
    with_metrics @@ fun () ->
    guard stage @@ fun () ->
    apply_opts ();
    Gpu_microbench.Tables.set_on_diag print_diag;
    f ()
  in
  Term.(const prologue $ with_metrics $ calibration_opts)

(* --- occupancy ----------------------------------------------------------- *)

let occupancy_cmd =
  let threads =
    Arg.(value & opt int 256 & info [ "threads" ] ~doc:"Threads per block")
  in
  let regs =
    Arg.(value & opt int 16 & info [ "regs" ] ~doc:"Registers per thread")
  in
  let smem =
    Arg.(value & opt int 0 & info [ "smem" ] ~doc:"Shared bytes per block")
  in
  let sweep =
    Arg.(value & flag & info [ "sweep" ]
           ~doc:"Tabulate occupancy across block sizes")
  in
  let run with_metrics threads regs smem sweep =
    with_metrics @@ fun () ->
    let demand t =
      {
        Gpu_hw.Occupancy.threads_per_block = t;
        registers_per_thread = regs;
        smem_per_block = smem;
      }
    in
    if sweep then begin
      Fmt.pr "%8s %8s %8s %10s@." "threads" "blocks" "warps" "limiter";
      let sizes = [ 32; 64; 96; 128; 192; 256; 384; 512 ] in
      let invalid =
        List.fold_left
          (fun invalid t ->
            match Gpu_hw.Occupancy.compute_result ~spec (demand t) with
            | Ok o ->
              Fmt.pr "%8d %8d %8d %10s@." t o.Gpu_hw.Occupancy.blocks
                o.Gpu_hw.Occupancy.active_warps o.Gpu_hw.Occupancy.limiter;
              invalid
            | Error d ->
              Fmt.pr "%8d invalid: %s@." t d.D.message;
              invalid + 1)
          0 sizes
      in
      if invalid = 0 then Ok ()
      else
        Error
          (D.error D.Occupancy
             ~hint:"lower --regs or --smem until every row fits the device"
             "sweep: %d of %d block sizes are invalid for this resource \
              demand"
             invalid (List.length sizes))
    end
    else
      let demand = demand threads in
      match Gpu_hw.Occupancy.compute_result ~spec demand with
      | Error d -> Error d
      | Ok o ->
        Fmt.pr "%a@." Gpu_hw.Occupancy.pp o;
        List.iter print_diag (Gpu_hw.Occupancy.range_warnings ~spec demand o);
        Ok ()
  in
  Cmd.v
    (Cmd.info "occupancy" ~doc:"Resident blocks and warps for a kernel shape")
    Term.(const run $ with_metrics $ threads $ regs $ smem $ sweep)

(* --- microbench ---------------------------------------------------------- *)

let microbench_cmd =
  let gmem =
    Arg.(
      value
      & opt (some (t3 int int int)) None
      & info [ "gmem" ]
          ~doc:"Global benchmark: blocks,threads,transactions-per-thread")
  in
  let run calibrated gmem =
    calibrated @@ fun () ->
    let t = Gpu_microbench.Tables.for_spec spec in
    match gmem with
    | Some (b, th, m) ->
      Fmt.pr "global bandwidth (%d blocks, %d threads, %d txns/thread): \
              %.1f GB/s@."
        b th m
        (Gpu_microbench.Tables.gmem_bandwidth t ~blocks:b ~threads:th
           ~txns_per_thread:m)
    | None ->
      Fmt.pr "instruction throughput (Ginstr/s) and shared bandwidth \
              (GB/s) vs warps/SM:@.";
      Fmt.pr "%6s" "warps";
      List.iter (fun c ->
          Fmt.pr "%8s" (Gpu_isa.Instr.cost_class_name c))
        Gpu_microbench.Tables.arithmetic_classes;
      Fmt.pr "%8s@." "smem";
      for w = 1 to 32 do
        Fmt.pr "%6d" w;
        List.iter
          (fun c ->
            Fmt.pr "%8.2f" (Gpu_microbench.Tables.instr_throughput t c ~warps:w))
          Gpu_microbench.Tables.arithmetic_classes;
        Fmt.pr "%8.0f@." (Gpu_microbench.Tables.smem_bandwidth t ~warps:w)
      done
  in
  Cmd.v
    (Cmd.info "microbench"
       ~doc:"Fit and print the microbenchmark throughput tables")
    Term.(const run $ calibrated D.Model $ gmem)

(* --- workload parameters (shared by the workload subcommands) ------------ *)

module R = Gpu_workloads.Registry
module Jsonx = Gpu_obs.Jsonx

(* The Section-6 variants and later-generation profiles: the fleet
   without its head, the baseline. *)
let variant_specs = List.tl Gpu_hw.Spec.fleet

(* An unknown SpMV format is a usage error (exit 2) caught by cmdliner,
   not a failure at analysis time. *)
let spmv_format_conv =
  let parse s =
    match R.spmv_format_of_name s with
    | Some _ -> Ok s
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown SpMV format %S, expected %s" s
             (Arg.doc_alts ~quoted:true R.spmv_format_names)))
  in
  Arg.conv ~docv:"FMT" (parse, Format.pp_print_string)

(* The workload and its parameters.  Each flag is a spelling of the wire
   key of the same name: the flags the user sets become [params] fields
   and go through [Registry.of_fields], which owns every default and
   range check and rejects a flag the workload does not take, exactly as
   for a daemon request.  The SpMV layout is [--format], or
   [--spmv-format] where [--format] picks the output. *)
let params_term ?(spmv_flag = "format") ?(with_n = false) () =
  let workload =
    Arg.(
      required
      & pos 0 (some (enum (List.map (fun w -> (w, w)) R.names))) None
      & info [] ~docv:"WORKLOAD" ~doc:("The workload: " ^ doc_alts R.names))
  in
  let tile =
    Arg.(
      value
      & opt (some int) None
      & info [ "tile" ] ~doc:"Matmul tile (8|16|32)")
  in
  let padded =
    Arg.(
      value & flag
      & info [ "padded" ] ~doc:"Tridiag: pad shared arrays (CR-NBC)")
  in
  let spmv_format =
    Arg.(
      value
      & opt (some spmv_format_conv) None
      & info [ spmv_flag ]
          ~doc:
            ("SpMV format (" ^ String.concat "|" R.spmv_format_names ^ ")"))
  in
  let atomic =
    Arg.(
      value & flag
      & info [ "atomic" ]
          ~doc:
            "Reduce: use the atomic single-accumulator variant (every \
             half-warp fully serialized) instead of the sequential tree")
  in
  let n =
    if not with_n then Term.const None
    else
      Arg.(
        value
        & opt (some int) None
        & info [ "n" ] ~docv:"N"
            ~doc:
              "Problem size: matmul matrix order (divisible by 64 and the \
               tile) or tridiag system size (power of two); the other \
               workloads reject it")
  in
  let params workload tile padded spmv_format atomic n =
    let num key = Option.map (fun v -> (key, Jsonx.Num (float_of_int v))) in
    let set key b = if b then Some (key, Jsonx.Bool true) else None in
    R.of_fields ~workload
      (List.filter_map Fun.id
         [
           num "n" n; num "tile" tile; set "padded" padded;
           Option.map (fun f -> ("format", Jsonx.Str f)) spmv_format;
           set "atomic" atomic;
         ])
    |> Result.map_error (D.make D.Error D.Cli)
  in
  Term.(const params $ workload $ tile $ padded $ spmv_format $ atomic $ n)

(* Inside [guard]: a parameter the registry rejects fails the command
   with its Cli diagnostic (exit 1). *)
let or_fail = function Ok v -> v | Error d -> D.fail d

(* --- analyze ------------------------------------------------------------- *)

let measure_flag =
  Arg.(value & flag & info [ "measure" ] ~doc:"Also run the timing simulator")

(* Timing-replay cluster sampling: a CLI fraction becomes a seeded
   [Engine.sample] so repeated invocations pick the same cluster subset. *)
let replay_sample_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "replay-sample" ] ~docv:"FRAC"
        ~doc:
          "With $(b,--measure): replay timing on this fraction (0,1] of \
           the grid's clusters instead of all of them.  The measurement \
           becomes a seeded, reproducible extrapolation bracketed by \
           confidence bounds and reported with degraded confidence.")

let replay_sample_of = function
  | None -> None
  | Some f ->
    if not (f > 0.0 && f <= 1.0) then
      D.fail (D.error D.Cli "--replay-sample %g is outside (0, 1]" f);
    Some { Gpu_timing.Engine.fraction = f; seed = 0 }

let analyze_cmd =
  let run calibrated params measure rsample =
    calibrated @@ fun () ->
    let replay_sample = replay_sample_of rsample in
    let r =
      Gpu_model.Workflow.analyze ?replay_sample ~spec ~measure
        (R.input (or_fail params))
    in
    Fmt.pr "%a@." Gpu_model.Workflow.pp r;
    match r.Gpu_model.Workflow.measured with
    | Some m ->
      List.iter
        (Fmt.pr "%a@." Gpu_diag.Diag.pp)
        (Gpu_model.Workflow.replay_sample_warning m)
    | None -> ()
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run the full Figure-1 workflow on a case-study workload")
    Term.(
      const run $ calibrated D.Cli $ params_term () $ measure_flag
      $ replay_sample_arg)

(* --- whatif -------------------------------------------------------------- *)

let whatif_cmd =
  let variant_arg =
    Arg.(
      non_empty
      & opt_all
          (enum (List.map (fun ((name, _) as d) -> (name, d)) variant_specs))
          []
      & info [ "variant" ]
          ~doc:
            ("Device variant (repeatable): "
            ^ String.concat ", " (List.map fst variant_specs)))
  in
  let run calibrated params variants =
    calibrated @@ fun () ->
    let input = R.input (or_fail params) in
    let open Gpu_model in
    List.iteri
      (fun i (o : Whatif.outcome) ->
        let a = o.report.Workflow.analysis in
        Fmt.pr "%-40s %8.4f ms  %s" a.Model.spec.Gpu_hw.Spec.name
          (1e3 *. a.Model.predicted_seconds)
          (Component.name a.Model.bottleneck);
        if i > 0 then Fmt.pr " (%.2fx)" o.speedup;
        Fmt.pr "@.")
      (Whatif.run
         (fun spec -> Workflow.analyze ~spec input)
         (List.hd Gpu_hw.Spec.fleet :: variants))
  in
  Cmd.v
    (Cmd.info "whatif"
       ~doc:"Re-analyze a workload on architectural variants")
    Term.(const run $ calibrated D.Cli $ params_term () $ variant_arg)

(* --- disasm / asm --------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let disasm_cmd =
  let run with_metrics file =
    with_metrics @@ fun () ->
    match guard D.Cli (fun () -> read_file file) with
    | Error _ as e -> e
    | Ok data ->
      (match Gpu_isa.Encode.decode_result data with
      | Error _ as e -> e
      | Ok p ->
        print_string (Gpu_isa.Program.to_string p);
        Ok ())
  in
  Cmd.v
    (Cmd.info "disasm" ~doc:"Disassemble a kernel image (the Decuda analog)")
    Term.(const run $ with_metrics $ file_arg)

let asm_cmd =
  let out =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"OUT" ~doc:"Output kernel image")
  in
  let run with_metrics file out =
    with_metrics @@ fun () ->
    match guard D.Cli (fun () -> read_file file) with
    | Error _ as e -> e
    | Ok src ->
      (match Gpu_isa.Asm.parse_result src with
      | Error _ as e -> e
      | Ok p ->
        guard D.Cli @@ fun () ->
        write_file out (Gpu_isa.Encode.encode p);
        Fmt.pr "%s: %d instructions, %d registers@." (Gpu_isa.Program.name p)
          (Gpu_isa.Program.length p)
          (Gpu_isa.Program.register_demand p))
  in
  Cmd.v
    (Cmd.info "asm" ~doc:"Assemble a listing to a kernel image (cudasm)")
    Term.(const run $ with_metrics $ file_arg $ out)

(* --- coalesce -------------------------------------------------------------- *)

let coalesce_cmd =
  let addresses =
    Arg.(
      required
      & opt (some (list int)) None
      & info [ "addresses" ] ~docv:"A,B,..."
          ~doc:"Byte addresses of one issue group (up to 16)")
  in
  let segment =
    Arg.(value & opt int 32 & info [ "segment" ] ~doc:"Minimum segment bytes")
  in
  let run with_metrics addresses segment =
    with_metrics @@ fun () ->
    if List.length addresses > 16 then
      Error
        (D.error D.Cli "expected at most 16 addresses, got %d"
           (List.length addresses))
    else if List.exists (fun a -> a < 0) addresses then
      Error (D.error D.Cli "addresses must be non-negative byte offsets")
    else
      guard D.Cli @@ fun () ->
      let cfg =
        { Gpu_mem.Coalesce.group = 16; min_segment = segment; max_segment = 128 }
      in
      let a = Array.make 16 None in
      List.iteri (fun i x -> if i < 16 then a.(i) <- Some x) addresses;
      let txns = Gpu_mem.Coalesce.group_transactions cfg ~width:4 a in
      List.iter (fun t -> Fmt.pr "%a@." Gpu_mem.Coalesce.pp_txn t) txns;
      Fmt.pr "%d transactions, %d bytes moved, efficiency %.2f@."
        (Gpu_mem.Coalesce.count txns)
        (Gpu_mem.Coalesce.bytes txns)
        (Gpu_mem.Coalesce.efficiency ~width:4 a txns);
      Fmt.pr "bank conflict degree (16 banks): %d@."
        (Gpu_mem.Bank.conflict_degree ~banks:16 a)
  in
  Cmd.v
    (Cmd.info "coalesce"
       ~doc:"Run the memory-transaction simulator on an address list")
    Term.(const run $ with_metrics $ addresses $ segment)

(* --- check ----------------------------------------------------------------- *)

let check_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"N"
          ~doc:"Root seed for the deterministic case generator")
  in
  let cases =
    Arg.(
      value & opt int 500
      & info [ "cases" ] ~docv:"N"
          ~doc:
            "Oracle comparisons per memory property; engine audits run at \
             1/5 of this, model differentials at 1/25")
  in
  let tol =
    Arg.(
      value
      & opt float Gpu_check.Diff.default_tolerance
      & info [ "tol" ] ~docv:"X"
          ~doc:
            "Model-vs-engine tolerance band: predicted and simulated times \
             must agree within a factor of $(docv)")
  in
  let out =
    Arg.(
      value & opt string "_check"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for shrunk failing-case reproducers")
  in
  let replay =
    Arg.(
      value
      & opt (some file) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:"Re-check one dumped reproducer instead of fuzzing")
  in
  (* The whole fleet is checkable, not just the GT200 baseline: the
     audits and differentials then exercise 32-bank/full-warp hardware
     assumptions (e.g. the Volta-like profile's 128-byte shared
     transactions). *)
  let device =
    Arg.(
      value
      & opt (enum Gpu_hw.Spec.fleet) Gpu_hw.Spec.gtx285
      & info [ "device" ] ~docv:"DEV"
          ~doc:
            "Device profile to check (any fleet name accepted by \
             $(b,whatif --variant), plus $(b,baseline))")
  in
  let run calibrated seed cases tol out replay device =
    calibrated @@ fun () ->
    let spec = device in
    if tol < 1.0 then
      D.fail (D.error D.Cli "--tol must be >= 1.0, got %g" tol);
    match replay with
    | Some path -> (
      match Gpu_check.Harness.replay ~spec ~tol path with
      | Ok msg -> Fmt.pr "%s@." msg
      | Error m -> D.fail (D.error D.Timing "%s" m))
    | None ->
      if cases < 1 then
        D.fail (D.error D.Cli "--cases must be >= 1, got %d" cases);
      let cfg =
        { Gpu_check.Harness.seed; cases; tol; out_dir = Some out; spec }
      in
      let s = Gpu_check.Harness.run ~progress:(Fmt.epr "%s@.") cfg in
      Fmt.pr
        "seed %d: %d coalesce + %d bank + %d atomic oracle comparisons, %d \
         engine audits (%d fast-forwarded), %d model differentials (band \
         %.2fx)@."
        seed s.coalesce_cases s.bank_cases s.atomic_cases s.audit_cases
        s.audit_fast_forwarded s.diff_cases tol;
      if Gpu_check.Harness.ok s then Fmt.pr "all properties hold@."
      else begin
        List.iter
          (fun (f : Gpu_check.Harness.failure) ->
            Fmt.pr "@.FAILED %s (case %d)%a:@.%s@." f.property f.case_index
              (fun ppf -> function
                | Some p -> Fmt.pf ppf " [reproducer: %s]" p
                | None -> ())
              f.reproducer f.detail)
          s.failures;
        D.fail
          (D.error D.Timing
             ~hint:
               "replay a dumped reproducer with gpuperf check --replay FILE"
             "%d of %d properties' cases failed"
             (List.length s.failures)
             (s.coalesce_cases + s.bank_cases + s.atomic_cases
             + s.audit_cases + s.diff_cases))
      end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Property-based checking: brute-force memory oracles, engine \
          invariant audit, model-vs-engine differential")
    Term.(
      const run $ calibrated D.Timing $ seed $ cases $ tol $ out $ replay
      $ device)

(* --- trace ----------------------------------------------------------------- *)

let trace_cmd =
  let out =
    Arg.(
      value
      & opt string "trace.json"
      & info [ "trace-out"; "o" ] ~docv:"FILE"
          ~doc:
            "Output file for the trace-event JSON (open in \
             chrome://tracing or Perfetto)")
  in
  let capacity =
    Arg.(
      value
      & opt int 262_144
      & info [ "trace-capacity" ] ~docv:"SLICES"
          ~doc:
            "Timeline ring-buffer capacity; past it the oldest slices are \
             dropped (and reported)")
  in
  let run calibrated params out capacity =
    calibrated @@ fun () ->
    if capacity < 1 then
      D.fail (D.error D.Cli "--trace-capacity must be >= 1, got %d" capacity);
    let input = R.input (or_fail params) in
    let tl = Gpu_obs.Timeline.create ~capacity () in
    Gpu_obs.Span.set_enabled true;
    let r = Gpu_model.Workflow.analyze ~spec ~measure:true ~timeline:tl input in
    let oc = open_out_bin out in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        Gpu_obs.Timeline.write_json
          ~scale:(1.0 /. float_of_int Gpu_timing.Engine.ticks_per_cycle)
          ~spans:(Gpu_obs.Span.completed ())
          oc tl);
    Fmt.pr "%a@." Gpu_model.Workflow.pp r;
    (match r.Gpu_model.Workflow.measured with
    | Some m -> Fmt.pr "%a@." Gpu_timing.Engine.pp_stage_attribution m
    | None -> ());
    let added = Gpu_obs.Timeline.added tl in
    let dropped = Gpu_obs.Timeline.dropped tl in
    Fmt.pr "wrote %s: %d timeline slices (%d dropped), %d workflow spans@."
      out (added - dropped) dropped
      (List.length (Gpu_obs.Span.completed ()));
    Option.iter print_diag (Gpu_obs.Timeline.drop_warning tl)
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run the workflow with span + engine-timeline tracing and export \
          Chrome trace-event JSON")
    Term.(
      const run $ calibrated D.Cli $ params_term ~with_n:true () $ out
      $ capacity)

(* --- report ---------------------------------------------------------------- *)

(* [--format] picks the output in [report] and [sweep-devices], so there
   the spmv storage layout is [--spmv-format]. *)
let render_fmt =
  Arg.(
    value
    & opt (enum Gpu_report.Render.formats) Gpu_report.Render.Md
    & info [ "format" ] ~docv:"FMT" ~doc:"Report format: md, html or json")

let report_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the report to $(docv) instead of stdout")
  in
  let top =
    Arg.(
      value & opt int 5
      & info [ "top" ] ~docv:"N" ~doc:"Hotspot rows per table")
  in
  let ledger_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "ledger" ] ~docv:"FILE"
          ~doc:
            "Accuracy-ledger JSONL file (default: \
             <cache-dir>/ledger/<workload>.jsonl)")
  in
  let no_ledger =
    Arg.(
      value & flag
      & info [ "no-ledger" ]
          ~doc:"Skip reading and appending the accuracy ledger")
  in
  let no_whatif =
    Arg.(
      value & flag
      & info [ "no-whatif" ]
          ~doc:"Skip the architectural-variant what-if section")
  in
  let run calibrated params fmt top out ledger_path no_ledger no_whatif =
    calibrated @@ fun () ->
    if top < 1 then D.fail (D.error D.Cli "--top must be >= 1, got %d" top);
    let params = or_fail params in
    let workload_name = R.label params in
    let input = R.input params in
    (* A timeline on the measured run populates the engine's per-stage
       busy counters for the report's stage summary. *)
    let tl = Gpu_obs.Timeline.create () in
    let base =
      Gpu_model.Workflow.analyze ~timeline:tl ~spec ~measure:true input
    in
    let whatif =
      if no_whatif then []
      else
        Gpu_model.Whatif.run ~baseline:base
          (fun spec -> Gpu_model.Workflow.analyze ~spec input)
          variant_specs
    in
    let attribution = Gpu_report.Attribution.of_report base in
    let ledger_file =
      if no_ledger then None
      else
        match ledger_path with
        | Some p -> Some p
        | None -> Gpu_report.Ledger.default_path ~workload:workload_name
    in
    (* Append first so the report's accuracy section includes this run. *)
    let ledger, ledger_warnings =
      match ledger_file with
      | None -> ([], [])
      | Some path ->
        let existing, warns = Gpu_report.Ledger.load ~path in
        let record =
          Gpu_report.Ledger.of_report ~workload:workload_name base
        in
        (match Gpu_report.Ledger.append ~path record with
        | Ok appended -> (existing @ [ appended ], warns)
        | Error d -> (existing, warns @ [ d ]))
    in
    let regression = Gpu_report.Ledger.regression ledger in
    List.iter print_diag ledger_warnings;
    Option.iter print_diag regression;
    let doc =
      Gpu_report.Render.render fmt
        {
          Gpu_report.Render.workload = workload_name;
          report = base;
          attribution;
          whatif;
          ledger;
          ledger_warnings;
          regression;
          top;
        }
    in
    match out with
    | None -> print_string doc
    | Some path ->
      write_file path doc;
      Fmt.epr "wrote %s@." path
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a self-contained Markdown/HTML performance report: \
          per-stage breakdown, hotspot attribution, what-if deltas and the \
          accuracy-ledger trend")
    Term.(
      const run $ calibrated D.Cli
      $ params_term ~spmv_flag:"spmv-format" ~with_n:true ()
      $ render_fmt $ top $ out $ ledger_path $ no_ledger $ no_whatif)

(* --- sweep-devices -------------------------------------------------------- *)

let sweep_devices_cmd =
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the comparison to $(docv) instead of stdout")
  in
  let run calibrated params fmt out =
    calibrated @@ fun () ->
    let params = or_fail params in
    let input = R.input params in
    (* Each non-baseline spec pays its own microbenchmark calibration on
       first contact, after which the fingerprinted on-disk cache makes
       re-sweeps cheap. *)
    let doc =
      Gpu_report.Render.render_sweep fmt ~workload:(R.label params)
        (Gpu_model.Whatif.run
           (fun spec -> Gpu_model.Workflow.analyze ~spec input)
           Gpu_hw.Spec.fleet)
    in
    match out with
    | None -> print_string doc
    | Some path ->
      write_file path doc;
      Fmt.epr "wrote %s@." path
  in
  Cmd.v
    (Cmd.info "sweep-devices"
       ~doc:
         "Analyze one workload across the whole device fleet (baseline, \
          Section-6 variants and the later-generation profiles) and render \
          a per-device comparison: predicted time, speedup, component \
          totals and bottleneck-classification shifts")
    Term.(
      const run $ calibrated D.Cli $ params_term ~spmv_flag:"spmv-format" ()
      $ render_fmt $ out)

(* --- serve ----------------------------------------------------------------- *)

let serve_cmd =
  let host =
    Arg.(
      value
      & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"TCP listen address")
  in
  let port =
    Arg.(
      value
      & opt int 0
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP listen port; 0 picks an ephemeral port (printed on \
                startup)")
  in
  let unix_path =
    Arg.(
      value
      & opt (some string) None
      & info [ "unix" ] ~docv:"PATH"
          ~doc:"Listen on a Unix-domain socket instead of TCP")
  in
  let queue =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:"Admission cap: in-flight requests beyond this are refused \
                with an overloaded response (backpressure)")
  in
  let default_deadline =
    Arg.(
      value
      & opt (some int) None
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Deadline applied to requests that carry none")
  in
  let max_request_kb =
    Arg.(
      value & opt int 1024
      & info [ "max-request-kb" ] ~docv:"KB"
          ~doc:"Longest accepted request line")
  in
  let max_working_set_mb =
    Arg.(
      value & opt int 2048
      & info [ "max-working-set-mb" ] ~docv:"MB"
          ~doc:"Reject requests whose estimated simulation footprint \
                exceeds this memory budget")
  in
  let drain_timeout =
    Arg.(
      value & opt float 30.0
      & info [ "drain-timeout" ] ~docv:"SECONDS"
          ~doc:"Shutdown bound on in-flight work; exceeding it exits 1")
  in
  let access_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "access-log" ] ~docv:"FILE"
          ~doc:"Append one structured JSONL record (level, component, \
                trace_id, request attrs) per answered request; also \
                receives calibration and pool warnings")
  in
  let no_ledger =
    Arg.(
      value & flag
      & info [ "no-ledger" ]
          ~doc:"Do not append accuracy-ledger records for completed \
                analyses")
  in
  let run with_metrics apply_calibration_opts host port unix_path queue
      default_deadline max_request_kb max_working_set_mb drain_timeout
      access_log no_ledger =
    with_metrics @@ fun () ->
    guard D.Cli @@ fun () ->
    if queue < 1 then
      D.fail (D.error D.Cli "--queue must be >= 1, got %d" queue);
    if max_request_kb < 1 then
      D.fail
        (D.error D.Cli "--max-request-kb must be >= 1, got %d" max_request_kb);
    if drain_timeout <= 0. then
      D.fail (D.error D.Cli "--drain-timeout must be positive");
    (* [Server.create] installs its own calibration-diag sink (the
       degradation tracker), so only the options are applied. *)
    apply_calibration_opts ();
    let endpoint =
      match unix_path with
      | Some path -> Gpu_serve.Protocol.Unix_socket path
      | None -> Gpu_serve.Protocol.Tcp (host, port)
    in
    let limits =
      {
        Gpu_serve.Budget.queue_cap = queue;
        default_deadline_ms = default_deadline;
        max_request_bytes = max_request_kb * 1024;
        max_working_set_bytes = max_working_set_mb * 1024 * 1024;
        drain_timeout_s = drain_timeout;
      }
    in
    match
      Gpu_serve.Server.create
        {
          Gpu_serve.Server.endpoint;
          limits;
          access_log;
          write_ledger = not no_ledger;
        }
    with
    | Error d -> D.fail d
    | Ok t ->
      (* A peer closing mid-write must surface as EPIPE (handled), not
         kill the daemon. *)
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      let on_stop = Sys.Signal_handle (fun _ -> Gpu_serve.Server.stop t) in
      Sys.set_signal Sys.sigterm on_stop;
      Sys.set_signal Sys.sigint on_stop;
      Fmt.pr "gpuperf serve: listening on %s@."
        (Gpu_serve.Protocol.endpoint_name
           (Gpu_serve.Server.bound_endpoint t));
      (match Gpu_serve.Server.run t with
      | Ok () -> ()
      | Error d -> D.fail d)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the fault-tolerant analysis daemon (line-delimited JSON; \
          HTTP GET /metrics, /healthz and /dashboard on the same \
          socket).  Exits 0 on a clean SIGTERM/SIGINT drain, 1 on a \
          fatal fault or drain timeout.")
    Term.(
      const run $ with_metrics $ calibration_opts $ host $ port $ unix_path
      $ queue $ default_deadline $ max_request_kb $ max_working_set_mb
      $ drain_timeout $ access_log $ no_ledger)

(* --- trace-serve ----------------------------------------------------------- *)

(* Capture the serve path itself: boot an in-process daemon, drive a few
   requests through the real wire protocol, then export every captured
   request's span tree as a named sibling track (pid 0, tids 1..) next
   to the workflow span track — one Perfetto file showing how each
   request's latency tiles into queue-wait / analysis stages / render. *)
let trace_serve_cmd =
  let out =
    Arg.(
      value
      & opt string "serve-trace.json"
      & info [ "trace-out"; "o" ] ~docv:"FILE"
          ~doc:
            "Output file for the trace-event JSON (open in \
             chrome://tracing or Perfetto); each captured request is one \
             named track")
  in
  let requests =
    Arg.(
      value & opt int 3
      & info [ "requests" ] ~docv:"N"
          ~doc:"Requests to drive through the in-process daemon")
  in
  let measure =
    Arg.(
      value & flag
      & info [ "measure" ]
          ~doc:
            "Also run the timing simulator per request (adds the \
             timing-replay stage to the tracks)")
  in
  let run with_metrics apply_calibration_opts params measure requests out =
    with_metrics @@ fun () ->
    guard D.Cli @@ fun () ->
    if requests < 1 then
      D.fail (D.error D.Cli "--requests must be >= 1, got %d" requests);
    (* the daemon installs its own calibration-diag sink, as in [serve] *)
    apply_calibration_opts ();
    let params = or_fail params in
    let module SP = Gpu_serve.Protocol in
    Gpu_obs.Span.set_enabled true;
    let cfg =
      {
        Gpu_serve.Server.endpoint = SP.Tcp ("127.0.0.1", 0);
        limits = Gpu_serve.Budget.default_limits;
        access_log = None;
        write_ledger = false;
      }
    in
    match Gpu_serve.Server.create cfg with
    | Error d -> D.fail d
    | Ok t -> (
      let runner = Domain.spawn (fun () -> Gpu_serve.Server.run t) in
      let stop_join () =
        Gpu_serve.Server.stop t;
        Domain.join runner
      in
      let resps =
        match Gpu_serve.Client.connect (Gpu_serve.Server.bound_endpoint t) with
        | Error d ->
          ignore (stop_join ());
          D.fail d
        | Ok c ->
          Fun.protect
            ~finally:(fun () -> Gpu_serve.Client.close c)
            (fun () ->
              List.init requests (fun i ->
                  Gpu_serve.Client.request ~timeout_s:300.0 c
                    {
                      SP.id = Printf.sprintf "req-%d" i;
                      params;
                      device = "baseline";
                      format = SP.Json;
                      deadline_ms = None;
                      measure;
                      sample = None;
                    }))
      in
      let run_result = stop_join () in
      List.iter
        (function
          | Error d -> print_diag d
          | Ok (r : SP.response) ->
            Fmt.pr "%s: %s in %.2f ms (trace %s)@." r.SP.r_id
              (SP.status_name r.SP.status)
              r.SP.elapsed_ms
              (Option.value ~default:"-" r.SP.trace_id);
            List.iter
              (fun (stage, us) -> Fmt.pr "  %-16s %12.1f us@." stage us)
              r.SP.stage_breakdown)
        resps;
      let tracks =
        Gpu_serve.Server.recent_traces t
        |> List.map (fun (label, ctx) ->
               ( Printf.sprintf "%s [%s]" label (Gpu_obs.Trace_ctx.id ctx),
                 Gpu_obs.Trace_ctx.spans ctx ))
      in
      let tl = Gpu_obs.Timeline.create ~capacity:1 () in
      let oc = open_out_bin out in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          Gpu_obs.Timeline.write_json
            ~spans:(Gpu_obs.Span.completed ())
            ~tracks oc tl);
      Fmt.pr "wrote %s: %d request tracks, %d workflow spans@." out
        (List.length tracks)
        (List.length (Gpu_obs.Span.completed ()));
      match run_result with Ok () -> () | Error d -> D.fail d)
  in
  Cmd.v
    (Cmd.info "trace-serve"
       ~doc:
         "Boot an in-process analysis daemon, drive requests through the \
          wire protocol, and export each captured request's span tree as \
          a Perfetto track next to the workflow spans")
    Term.(
      const run $ with_metrics $ calibration_opts
      $ params_term ~with_n:true () $ measure $ requests $ out)

(* --- main ------------------------------------------------------------------ *)

(* Every subcommand evaluates to [(unit, Diag.t) result]; the mapping to
   process exit codes lives in exactly one place. *)
let () =
  let doc = "quantitative GPU performance analysis (Zhang & Owens, HPCA'11)" in
  let info = Cmd.info "gpuperf" ~version:"1.0.0" ~doc in
  let group =
    Cmd.group info
      [
        occupancy_cmd; microbench_cmd; analyze_cmd; whatif_cmd;
        sweep_devices_cmd; disasm_cmd; asm_cmd; coalesce_cmd; check_cmd;
        trace_cmd; report_cmd; serve_cmd; trace_serve_cmd;
      ]
  in
  exit
    (match Cmd.eval_value group with
    | Ok (`Ok (Ok ())) | Ok `Version | Ok `Help -> 0
    | Ok (`Ok (Error d)) ->
      print_diag d;
      1
    | Error `Exn -> 1
    | Error (`Parse | `Term) -> 2)
