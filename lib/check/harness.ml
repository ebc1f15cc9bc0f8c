(* The checking-harness driver behind [gpuperf check]: runs every
   property at a seed-derived deterministic budget, shrinks failing
   kernel cases to minimal reproducers, and dumps them in Case's
   replayable format.

   Budget split for [cases = N]: N coalesce-oracle and N bank-oracle
   comparisons (cheap, pure), N/5 engine audits (each a full
   multi-cluster simulation of a small heterogeneous grid), N/25
   model-vs-engine differentials (each a calibrated-table lookup plus a
   homogeneous engine run; the first one pays for table calibration
   unless the on-disk cache is warm). *)

type config = {
  seed : int;
  cases : int;
  tol : float;
  out_dir : string option;  (** where failing reproducers are dumped *)
  spec : Gpu_hw.Spec.t;
}

type failure = {
  property : string;
  case_index : int;
  detail : string;
  reproducer : string option;  (** path of the dumped shrunk case *)
}

type summary = {
  coalesce_cases : int;
  bank_cases : int;
  atomic_cases : int;
  audit_cases : int;
  audit_fast_forwarded : int;
  diff_cases : int;
  shrink_evals : int;
  failures : failure list;
}

let ok summary = summary.failures = []

(* Property tags keep the per-case sub-streams apart; appending a new
   property never reshuffles existing ones. *)
let tag_coalesce = 1
let tag_bank = 2
let tag_audit = 3
let tag_diff = 4
let tag_atomic = 5

let audit_budget cases = max 1 (cases / 5)
let diff_budget cases = max 1 (cases / 25)

let dump_reproducer cfg ~property ~index c =
  match cfg.out_dir with
  | None -> None
  | Some dir -> (
    try
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      let path =
        Filename.concat dir
          (Printf.sprintf "%s-seed%d-case%d.txt" property cfg.seed index)
      in
      let oc = open_out path in
      output_string oc (Case.to_string c);
      close_out oc;
      Some path
    with Sys_error _ -> None)

let run ?(progress = fun _ -> ()) cfg =
  let failures = ref [] in
  let shrink_evals = ref 0 in
  let record f = failures := f :: !failures in
  let spec = cfg.spec in
  (* memory-system oracles *)
  progress
    (Printf.sprintf "oracles: %d coalesce + %d bank + %d atomic comparisons"
       cfg.cases cfg.cases cfg.cases);
  for i = 0 to cfg.cases - 1 do
    let r = Gen.sub_rng ~seed:cfg.seed ~tag:tag_coalesce i in
    match Oracle.coalesce_agrees (Gen.gen_coalesce_access r) with
    | Ok () -> ()
    | Error detail ->
      record
        { property = "coalesce-oracle"; case_index = i; detail;
          reproducer = None }
  done;
  for i = 0 to cfg.cases - 1 do
    let r = Gen.sub_rng ~seed:cfg.seed ~tag:tag_bank i in
    match Oracle.bank_agrees (Gen.gen_bank_access r) with
    | Ok () -> ()
    | Error detail ->
      record
        { property = "bank-oracle"; case_index = i; detail;
          reproducer = None }
  done;
  for i = 0 to cfg.cases - 1 do
    let r = Gen.sub_rng ~seed:cfg.seed ~tag:tag_atomic i in
    match Oracle.atomic_agrees (Gen.gen_atomic_access r) with
    | Ok () -> ()
    | Error detail ->
      record
        { property = "atomic-oracle"; case_index = i; detail;
          reproducer = None }
  done;
  (* engine invariant audit, with shrinking *)
  let naudit = audit_budget cfg.cases in
  progress (Printf.sprintf "engine audit: %d random grids" naudit);
  (* A grid fast-forwarded when one of its audit's replays kept a skip:
     the audit then compared a fast-forwarded replay with its timeline
     run. *)
  let fast_forwards = Gpu_obs.Metrics.counter "engine.fast_forwards" in
  let fast_forwarded = ref 0 in
  for i = 0 to naudit - 1 do
    let r = Gen.sub_rng ~seed:cfg.seed ~tag:tag_audit i in
    let c = Gen.gen_audit_case r in
    let before = Gpu_obs.Metrics.value fast_forwards in
    let verdict = Audit.check ~spec c in
    if Gpu_obs.Metrics.value fast_forwards > before then incr fast_forwarded;
    match verdict with
    | Ok () -> ()
    | Error _ ->
      let shrunk, evals = Shrink.minimize ~fails:(Audit.fails ~spec) c in
      shrink_evals := !shrink_evals + evals;
      let detail =
        match Audit.check ~spec shrunk with
        | Error d -> d
        | Ok () -> "shrinking lost the failure (flaky case?)"
      in
      record
        {
          property = "engine-audit";
          case_index = i;
          detail;
          reproducer = dump_reproducer cfg ~property:"engine-audit" ~index:i
              shrunk;
        }
  done;
  (* model-vs-engine differential, with shrinking *)
  let ndiff = diff_budget cfg.cases in
  progress
    (Printf.sprintf
       "model differential: %d uniform grids, tolerance %.2fx" ndiff cfg.tol);
  for i = 0 to ndiff - 1 do
    let r = Gen.sub_rng ~seed:cfg.seed ~tag:tag_diff i in
    let c = Gen.gen_diff_case ~spec r in
    let tables = Gpu_microbench.Tables.for_spec spec in
    match Diff.check ~spec ~tables ~tol:cfg.tol c with
    | Ok _ -> ()
    | Error _ ->
      let shrunk, evals =
        Shrink.minimize ~max_evals:100
          ~fails:(Diff.fails ~spec ~tables ~tol:cfg.tol)
          c
      in
      shrink_evals := !shrink_evals + evals;
      let detail =
        match Diff.check ~spec ~tables ~tol:cfg.tol shrunk with
        | Error d -> d
        | Ok _ -> "shrinking lost the failure (flaky case?)"
      in
      record
        {
          property = "model-diff";
          case_index = i;
          detail;
          reproducer =
            dump_reproducer cfg ~property:"model-diff" ~index:i shrunk;
        }
  done;
  {
    coalesce_cases = cfg.cases;
    bank_cases = cfg.cases;
    atomic_cases = cfg.cases;
    audit_cases = naudit;
    audit_fast_forwarded = !fast_forwarded;
    diff_cases = ndiff;
    shrink_evals = !shrink_evals;
    failures = List.rev !failures;
  }

(* --- replay -------------------------------------------------------------- *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

(* Re-run a dumped reproducer through every property that applies to it:
   the audit always, the differential when the case is uniform. *)
let replay ~spec ~tol path : (string, string) result =
  match Case.of_string (read_file path) with
  | Error m -> Error (Printf.sprintf "%s: unparsable case: %s" path m)
  | Ok c -> (
    let audit = Audit.check ~spec c in
    let diff =
      if c.Case.uniform then
        Some
          (Diff.check ~spec ~tables:(Gpu_microbench.Tables.for_spec spec)
             ~tol c)
      else None
    in
    match (audit, diff) with
    | Ok (), (None | Some (Ok _)) ->
      Ok
        (Fmt.str "@[<v>%a passes:@,audit ok%a@]"
           Fmt.(styled `Bold string)
           path
           (fun ppf -> function
             | Some (Ok r) -> Fmt.pf ppf "@,diff ok: %a" Diff.pp_report r
             | _ -> ())
           diff)
    | Error d, _ -> Error d
    | _, Some (Error d) -> Error d)
