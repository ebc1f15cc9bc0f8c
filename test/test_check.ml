(* Tests for the differential checking harness (lib/check) and the
   timing-engine accounting regressions it was built to keep out:

   - a warp whose final event is a barrier must retire when the
     barrier-release path runs from [warp_finished] (pre-fix: re-processed
     past the end of its trace);
   - empty-trace warps must route through the normal retirement path
     (pre-fix: their warp slots leaked and an all-empty block pinned the SM
     forever, deadlocking the pending queue). *)

module Trace = Gpu_sim.Trace
module Engine = Gpu_timing.Engine
module I = Gpu_isa.Instr
module Case = Gpu_check.Case
module Gen = Gpu_check.Gen
module Oracle = Gpu_check.Oracle
module Audit = Gpu_check.Audit
module Diff = Gpu_check.Diff
module Shrink = Gpu_check.Shrink
module Harness = Gpu_check.Harness

let (_ : string) = Private_cache.use "check"

let spec = Gpu_hw.Spec.gtx285

let alu_event ?(dst = 10) ?(srcs = [||]) cls =
  { Trace.cls; dst; srcs; mem = Trace.No_mem; bar = false }

let bar_event =
  { Trace.cls = I.Class_ctrl; dst = Trace.no_reg; srcs = [||];
    mem = Trace.No_mem; bar = true }

let dependent_chain n =
  Array.init n (fun _ -> alu_event ~dst:10 ~srcs:[| 10 |] I.Class_ii)

(* --- Engine regression: barrier as a warp's final event ----------------- *)

(* Warp 1's only event is a barrier; warp 0 never barriers and finishes
   later.  The finish releases warp 1 from the barrier with its trace
   exhausted: the release path must retire it, not re-queue it. *)
let test_barrier_final_release () =
  let w0 = dependent_chain 50 in
  let w1 = [| bar_event |] in
  let r =
    Engine.run ~spec ~max_resident_blocks:8
      [| { Trace.block = 0; warps = [| w0; w1 |] } |]
  in
  Alcotest.(check int) "both warps launched" 2 r.Engine.warps_launched;
  Alcotest.(check int) "both warps retired" 2 r.Engine.warps_retired;
  Alcotest.(check int) "block retired" 1 r.Engine.blocks_retired

(* Same shape released from inside [process]: the last barrier arrival
   frees parked warps that have no events left.  Two of the three parked
   warps end at the barrier, which historically double-released the parked
   list. *)
let test_barrier_final_release_in_process () =
  let w_bar_only = [| bar_event |] in
  let w_more = [| bar_event; alu_event ~dst:11 I.Class_ii |] in
  let r =
    Engine.run ~spec ~max_resident_blocks:8
      [| { Trace.block = 0; warps = [| w_bar_only; w_bar_only; w_more |] } |]
  in
  Alcotest.(check int) "all warps retired" 3 r.Engine.warps_retired;
  Alcotest.(check int) "block retired" 1 r.Engine.blocks_retired

(* --- Engine regression: empty-trace warps -------------------------------- *)

(* Block 0 (all-empty warps) and block 30 land on the same SM.  With one
   resident block, block 0 must release the SM so block 30 can launch. *)
let test_all_empty_block_releases_sm () =
  let n = 31 in
  let blocks =
    Array.init n (fun b ->
        let warps =
          if b = 0 then [| [||]; [||] |]
          else if b = 30 then [| dependent_chain 100 |]
          else [| [| alu_event I.Class_ii |] |]
        in
        { Trace.block = b; warps })
  in
  let r = Engine.run ~spec ~max_resident_blocks:1 blocks in
  Alcotest.(check int) "no block left pending" 0 r.Engine.blocks_unlaunched;
  Alcotest.(check int) "every block retired" n r.Engine.blocks_retired;
  Alcotest.(check int) "every warp retired" r.Engine.warps_launched
    r.Engine.warps_retired;
  (* block 30's 100-long dependent chain must actually have run *)
  Alcotest.(check bool)
    (Printf.sprintf "%d cycles include the dependent chain" r.Engine.cycles)
    true
    (r.Engine.cycles >= 100 * spec.Gpu_hw.Spec.alu_latency * 9 / 10)

(* Empty warps inside a live block must return their warp slots under
   early release, or later blocks stay blocked on slot accounting. *)
let test_empty_warp_slot_return () =
  let blocks =
    Array.init 60 (fun b ->
        {
          Trace.block = b;
          warps =
            Array.init 4 (fun w ->
                if w = 0 then dependent_chain 30 else [||]);
        })
  in
  let r =
    Engine.run
      ~spec:(Gpu_hw.Spec.with_early_release spec)
      ~max_resident_blocks:2 blocks
  in
  Alcotest.(check int) "no block left pending" 0 r.Engine.blocks_unlaunched;
  Alcotest.(check int) "every warp retired" r.Engine.warps_launched
    r.Engine.warps_retired

(* --- memory oracle agreement sweeps -------------------------------------- *)

let sweep_oracle ~tag ~gen ~agrees ~pp n =
  for i = 0 to n - 1 do
    let a = gen (Gen.sub_rng ~seed:4242 ~tag i) in
    match agrees a with
    | Ok () -> ()
    | Error m ->
      Alcotest.failf "case %d: %s@.on %a" i m pp a
  done

let test_coalesce_oracle () =
  sweep_oracle ~tag:1 ~gen:Gen.gen_coalesce_access
    ~agrees:Oracle.coalesce_agrees ~pp:Oracle.pp_access 200

let test_bank_oracle () =
  sweep_oracle ~tag:2 ~gen:Gen.gen_bank_access ~agrees:Oracle.bank_agrees
    ~pp:Oracle.pp_access 200

let test_atomic_oracle () =
  sweep_oracle ~tag:5 ~gen:Gen.gen_atomic_access
    ~agrees:Oracle.atomic_agrees ~pp:Oracle.pp_access 200

(* --- audit sweep ---------------------------------------------------------- *)

let test_audit_sweep () =
  for i = 0 to 39 do
    let c = Gen.gen_audit_case (Gen.sub_rng ~seed:4242 ~tag:3 i) in
    match Audit.check ~spec c with
    | Ok () -> ()
    | Error m -> Alcotest.failf "audit case %d: %s" i m
  done

(* --- serialization roundtrip ---------------------------------------------- *)

let test_roundtrip () =
  let one name c =
    match Case.of_string (Case.to_string c) with
    | Error m -> Alcotest.failf "%s does not parse back: %s" name m
    | Ok c' ->
      if c' <> c then
        Alcotest.failf "%s changed across the roundtrip:@.%a" name Case.pp c
  in
  for i = 0 to 99 do
    one
      (Printf.sprintf "audit case %d" i)
      (Gen.gen_audit_case (Gen.sub_rng ~seed:99 ~tag:3 i))
  done;
  for i = 0 to 19 do
    one
      (Printf.sprintf "diff case %d" i)
      (Gen.gen_diff_case ~spec (Gen.sub_rng ~seed:99 ~tag:4 i))
  done

let test_parse_rejects_garbage () =
  (match Case.of_string "garbage" with
  | Ok _ -> Alcotest.fail "garbage parsed"
  | Error _ -> ());
  match Case.of_string "" with
  | Ok _ -> Alcotest.fail "empty input parsed"
  | Error _ -> ()

(* --- shrinking ------------------------------------------------------------ *)

(* A synthetic predicate ("fails whenever any Class_iii event exists")
   must shrink a large random case to the minimal one: a single block,
   single warp, single stage, single event. *)
let has_class_iii c =
  Array.exists
    (fun (b : Case.block) ->
      Array.exists
        (function
          | Case.Empty -> false
          | Case.Stages stages ->
            Array.exists
              (Array.exists (function
                | Case.Alu { cls = I.Class_iii; _ } -> true
                | _ -> false))
              stages)
        b.Case.warps)
    c.Case.blocks

let test_shrink_to_minimum () =
  (* find a seed whose audit case contains a Class_iii event *)
  let rec seed_case i =
    if i > 200 then Alcotest.fail "no generated case has a Class_iii event"
    else
      let c = Gen.gen_audit_case (Gen.sub_rng ~seed:5 ~tag:3 i) in
      if has_class_iii c then c else seed_case (i + 1)
  in
  let c0 = seed_case 0 in
  let shrunk, evals = Shrink.minimize ~fails:has_class_iii c0 in
  Alcotest.(check bool) "shrunk case still fails" true (has_class_iii shrunk);
  Alcotest.(check bool)
    (Printf.sprintf "evals (%d) within the cap" evals)
    true (evals <= 400);
  Alcotest.(check int) "one block" 1 (Case.num_blocks shrunk);
  Alcotest.(check int) "one warp" 1 (Case.num_warps shrunk);
  Alcotest.(check int) "one event" 1 (Case.num_events shrunk);
  (* every candidate a shrinker proposes must be a *different* case *)
  List.iter
    (fun cand ->
      if cand = c0 then Alcotest.fail "shrink candidate equals its input")
    (Shrink.candidates c0)

(* --- model differential (uses the calibrated tables) ---------------------- *)

let tables = lazy (Gpu_microbench.Tables.for_spec spec)

let test_diff_band () =
  let tables = Lazy.force tables in
  for i = 0 to 3 do
    let c = Gen.gen_diff_case ~spec (Gen.sub_rng ~seed:4242 ~tag:4 i) in
    match Diff.check ~spec ~tables ~tol:Diff.default_tolerance c with
    | Ok _ -> ()
    | Error m -> Alcotest.failf "diff case %d: %s" i m
  done

let test_diff_requires_uniform () =
  let c = Gen.gen_audit_case (Gen.sub_rng ~seed:4242 ~tag:3 0) in
  let tables = Lazy.force tables in
  match Diff.check ~spec ~tables ~tol:Diff.default_tolerance c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-uniform case accepted by the differential"

(* --- non-baseline fleet profile -------------------------------------------- *)

(* The full property sweep (memory oracles, engine audits, model
   differentials) must hold on a later-generation profile too: 32 banks,
   full-warp coalescing, 128-byte transactions, 2-SM clusters — the
   configuration the GT200 constants used to be hard-coded against. *)
let test_volta_sweep () =
  let summary =
    Harness.run
      {
        Harness.seed = 4242;
        cases = 50;
        tol = Diff.default_tolerance;
        out_dir = None;
        spec = Gpu_hw.Spec.volta_like;
      }
  in
  (match summary.Harness.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "volta-like: %s case %d failed: %s" f.Harness.property
      f.Harness.case_index f.Harness.detail);
  Alcotest.(check bool) "volta-like sweep passes" true (Harness.ok summary);
  Alcotest.(check int)
    "volta-like ran the diff budget" (Harness.diff_budget 50)
    summary.Harness.diff_cases

(* --- seed corpus ---------------------------------------------------------- *)

let corpus_seeds () =
  (* dune copies the dep next to the test binary; resolve it from there
     so the test also runs via [dune exec] from the workspace root *)
  let file =
    Filename.concat (Filename.dirname Sys.executable_name) "check_seeds.txt"
  in
  let ic = open_in file in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line -> (
      let line = String.trim line in
      if line = "" || line.[0] = '#' then go acc
      else
        match int_of_string_opt line with
        | Some s -> go (s :: acc)
        | None -> Alcotest.failf "%s: bad seed line %S" file line)
  in
  go []

(* Every corpus seed's audit stream must cover the two historical
   engine-bug shapes: an empty-trace warp (slot-return path) and a warp
   whose final stage is empty, i.e. whose trace ends on a barrier
   (barrier-release retirement path). *)
let covers_bug_shapes seed =
  let empty = ref false and barrier_final = ref false in
  for i = 0 to 19 do
    let c = Gen.gen_audit_case (Gen.sub_rng ~seed ~tag:3 i) in
    Array.iter
      (fun (b : Case.block) ->
        Array.iter
          (function
            | Case.Empty -> empty := true
            | Case.Stages stages ->
              let n = Array.length stages in
              if n >= 2 && Array.length stages.(n - 1) = 0 then
                barrier_final := true)
          b.Case.warps)
      c.Case.blocks
  done;
  (!empty, !barrier_final)

let test_corpus () =
  let seeds = corpus_seeds () in
  Alcotest.(check bool) "corpus is non-empty" true (seeds <> []);
  List.iter
    (fun seed ->
      let empty, barrier_final = covers_bug_shapes seed in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d generates empty-trace warps" seed)
        true empty;
      Alcotest.(check bool)
        (Printf.sprintf "seed %d generates barrier-final warps" seed)
        true barrier_final;
      let summary =
        Harness.run
          {
            Harness.seed;
            cases = 50;
            tol = Diff.default_tolerance;
            out_dir = None;
            spec;
          }
      in
      (match summary.Harness.failures with
      | [] -> ()
      | f :: _ ->
        Alcotest.failf "seed %d: %s case %d failed: %s" seed
          f.Harness.property f.Harness.case_index f.Harness.detail);
      Alcotest.(check bool)
        (Printf.sprintf "seed %d sweep passes" seed)
        true (Harness.ok summary);
      Alcotest.(check int)
        (Printf.sprintf "seed %d ran the coalesce budget" seed)
        50 summary.Harness.coalesce_cases;
      Alcotest.(check int)
        (Printf.sprintf "seed %d ran the atomic budget" seed)
        50 summary.Harness.atomic_cases;
      Alcotest.(check int)
        (Printf.sprintf "seed %d ran the audit budget" seed)
        (Harness.audit_budget 50) summary.Harness.audit_cases;
      Alcotest.(check int)
        (Printf.sprintf "seed %d ran the diff budget" seed)
        (Harness.diff_budget 50) summary.Harness.diff_cases)
    seeds

let () =
  Alcotest.run "check"
    [
      ( "engine regressions",
        [
          Alcotest.test_case "barrier-final warp retires (via finish)" `Quick
            test_barrier_final_release;
          Alcotest.test_case "barrier-final warp retires (via barrier)"
            `Quick test_barrier_final_release_in_process;
          Alcotest.test_case "all-empty block releases its SM" `Quick
            test_all_empty_block_releases_sm;
          Alcotest.test_case "empty warps return their slots" `Quick
            test_empty_warp_slot_return;
        ] );
      ( "oracles",
        [
          Alcotest.test_case "coalescer agrees with the oracle" `Quick
            test_coalesce_oracle;
          Alcotest.test_case "bank analyzer agrees with the oracle" `Quick
            test_bank_oracle;
          Alcotest.test_case "atomic serialization agrees with the oracle"
            `Quick test_atomic_oracle;
        ] );
      ( "audit",
        [ Alcotest.test_case "random grids pass the audit" `Quick
            test_audit_sweep ] );
      ( "serialization",
        [
          Alcotest.test_case "cases roundtrip exactly" `Quick test_roundtrip;
          Alcotest.test_case "garbage is rejected" `Quick
            test_parse_rejects_garbage;
        ] );
      ( "shrinking",
        [ Alcotest.test_case "greedy minimization reaches one event" `Quick
            test_shrink_to_minimum ] );
      ( "differential",
        [
          Alcotest.test_case "calibrated domain stays in the band" `Slow
            test_diff_band;
          Alcotest.test_case "non-uniform cases are rejected" `Quick
            test_diff_requires_uniform;
        ] );
      ( "fleet",
        [ Alcotest.test_case "volta-like profile sweeps clean" `Slow
            test_volta_sweep ] );
      ( "corpus",
        [ Alcotest.test_case "every corpus seed sweeps clean" `Slow
            test_corpus ] );
    ]
