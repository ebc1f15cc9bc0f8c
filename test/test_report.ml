(* Tests for lib/report: hotspot attribution must tile into the model's
   stage component times, the accuracy ledger must survive rotation and
   corruption, and rendering must be a pure function of its inputs
   (golden-file comparison, byte-stable across runs). *)

module Workflow = Gpu_model.Workflow
module Model = Gpu_model.Model
module Component = Gpu_model.Component
module Attribution = Gpu_report.Attribution
module Ledger = Gpu_report.Ledger
module Render = Gpu_report.Render
module Jsonx = Gpu_report.Jsonx

let cache_dir = Private_cache.use "report"

(* One calibrated, measured report shared by every test: a small matmul
   with a timeline so the engine's per-stage busy counters populate. *)
let report =
  lazy
    (let tl = Gpu_obs.Timeline.create () in
     Workflow.analyze ~measure:true ~timeline:tl
       (Gpu_workloads.Matmul.input ~n:128 ~tile:16))

(* Words allocated by [f ()], counted as test_timing counts them: minor +
   major - promoted, the minor count read from the allocation pointer. *)
let words_allocated f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  f ();
  words () -. w0

(* --- attribution --------------------------------------------------------- *)

let test_attribution_tiles () =
  let r = Lazy.force report in
  let attr = Attribution.of_report r in
  Alcotest.(check bool) "sites were collected" true attr.Attribution.covered;
  List.iter2
    (fun (sa : Model.stage_analysis) (st : Attribution.stage) ->
      List.iter
        (fun c ->
          let expect = Component.time_of sa.Model.times c in
          let sum =
            List.fold_left
              (fun acc (row : Attribution.row) ->
                acc +. row.Attribution.seconds)
              0.0 (Attribution.rows st c)
          in
          let tol = 1e-6 *. Float.max expect 1e-12 in
          if Float.abs (sum -. expect) > tol then
            Alcotest.failf
              "stage %d %s: attribution rows sum to %.17g, stage time is \
               %.17g"
              sa.Model.index (Component.name c) sum expect)
        Component.all)
    r.Workflow.analysis.Model.stages attr.Attribution.stages

let test_attribution_rows_ordered () =
  let r = Lazy.force report in
  let attr = Attribution.of_report r in
  List.iter
    (fun st ->
      List.iter
        (fun c ->
          let rows = Attribution.rows st c in
          let rec ordered = function
            | (a : Attribution.row) :: (b : Attribution.row) :: rest ->
              (a.Attribution.seconds > b.Attribution.seconds
              || (a.Attribution.seconds = b.Attribution.seconds
                 && a.Attribution.pc < b.Attribution.pc))
              && ordered (b :: rest)
            | _ -> true
          in
          Alcotest.(check bool) "descending seconds, ties by pc" true
            (ordered rows))
        Component.all)
    attr.Attribution.stages

let test_attribution_srcmap () =
  let r = Lazy.force report in
  let attr = Attribution.of_report r in
  let srcs =
    List.concat_map
      (fun st ->
        List.map (fun (row : Attribution.row) -> row.Attribution.src)
          (Attribution.rows st Component.Instruction_pipeline))
      attr.Attribution.stages
  in
  Alcotest.(check bool) "every instruction row carries a source path" true
    (srcs <> [] && List.for_all (fun s -> s <> "" && s <> "<asm>") srcs)

(* Building an attribution disassembles nothing: a row's instruction text
   is formatted only when a rendered row forces it.  Tridiag 64x256 has
   17 stages and 696 sites; formatting every site's text would allocate
   539 k words. *)
let test_attribution_words () =
  let r =
    Workflow.analyze (Gpu_workloads.Tridiag.input ~nsys:64 ~n:256 ~padded:false)
  in
  let words = words_allocated (fun () -> ignore (Attribution.of_report r)) in
  if words > 100_000. then
    Alcotest.failf
      "tridiag 64x256's attribution allocated %.0f words (budget 100 000)"
      words

let test_top_folds () =
  let mk pc seconds =
    {
      Attribution.pc;
      src = "s";
      instr = lazy "i";
      cls = Gpu_isa.Instr.Class_ii;
      count = 1;
      seconds;
      share = 0.0;
    }
  in
  let rows = [ mk 0 4.0; mk 1 3.0; mk 2 2.0; mk 3 1.0 ] in
  let shown, folded = Attribution.top 2 rows in
  Alcotest.(check int) "two shown" 2 (List.length shown);
  (match folded with
  | Some (n, secs) ->
    Alcotest.(check int) "two folded" 2 n;
    Alcotest.(check (float 1e-9)) "folded seconds" 3.0 secs
  | None -> Alcotest.fail "expected a folded remainder");
  let _, none = Attribution.top 4 rows in
  Alcotest.(check bool) "nothing folds when all fit" true (none = None)

(* --- ledger -------------------------------------------------------------- *)

let temp_ledger () =
  let path = Filename.temp_file "gpuperf_ledger" ".jsonl" in
  Sys.remove path;
  path

let mk_record ?(error = Some 0.05) run =
  {
    Ledger.schema = Ledger.schema_version;
    run;
    workload = "matmul";
    fingerprint = "f";
    spec_name = "GTX 285";
    git = "v-test";
    host = "testhost";
    grid = 64;
    block = 64;
    predicted_s = 1.0e-4;
    measured_s = Option.map (fun e -> 1.0e-4 /. (1.0 +. e)) error;
    error;
    components = [];
    trace_id = None;
  }

let cleanup path =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ path; path ^ ".1" ]

let test_ledger_roundtrip () =
  let r = Ledger.of_report ~git:"v-test" ~host:"h" ~workload:"matmul"
      (Lazy.force report)
  in
  match Ledger.of_json_line (Ledger.to_json r) with
  | None -> Alcotest.fail "round-trip parse failed"
  | Some r' ->
    Alcotest.(check string) "workload" r.Ledger.workload r'.Ledger.workload;
    Alcotest.(check string) "fingerprint" r.Ledger.fingerprint
      r'.Ledger.fingerprint;
    Alcotest.(check (float 1e-15)) "predicted" r.Ledger.predicted_s
      r'.Ledger.predicted_s;
    Alcotest.(check int) "four components" 4
      (List.length r'.Ledger.components);
    Alcotest.(check bool) "error preserved" true
      (match (r.Ledger.error, r'.Ledger.error) with
      | Some a, Some b -> Float.abs (a -. b) < 1e-12
      | None, None -> true
      | _ -> false)

let test_ledger_append_assigns_runs () =
  let path = temp_ledger () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let r1 = Result.get_ok (Ledger.append ~path (mk_record 0)) in
  let r2 = Result.get_ok (Ledger.append ~path (mk_record 0)) in
  Alcotest.(check int) "first run id" 1 r1.Ledger.run;
  Alcotest.(check int) "second run id" 2 r2.Ledger.run;
  let records, warnings = Ledger.load ~path in
  Alcotest.(check int) "two records" 2 (List.length records);
  Alcotest.(check int) "no warnings" 0 (List.length warnings)

let test_ledger_rotation_continues_runs () =
  let path = temp_ledger () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let append () =
    Result.get_ok (Ledger.append ~max_records:3 ~path (mk_record 0))
  in
  for _ = 1 to 3 do ignore (append ()) done;
  Alcotest.(check bool) "no rotation yet" false
    (Sys.file_exists (path ^ ".1"));
  let r4 = append () in
  Alcotest.(check bool) "rotated at the cap" true
    (Sys.file_exists (path ^ ".1"));
  Alcotest.(check int) "run id survives rotation" 4 r4.Ledger.run;
  let live, _ = Ledger.load ~path in
  Alcotest.(check int) "live file restarts" 1 (List.length live);
  let r5 = append () in
  Alcotest.(check int) "and keeps counting" 5 r5.Ledger.run

let test_ledger_corrupt_line_recovery () =
  let path = temp_ledger () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  ignore (Result.get_ok (Ledger.append ~path (mk_record 0)));
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "{ not json\n";
  output_string oc "{\"schema\":999}\n";
  close_out oc;
  ignore (Result.get_ok (Ledger.append ~path (mk_record 0)));
  let records, warnings = Ledger.load ~path in
  Alcotest.(check int) "good records survive" 2 (List.length records);
  Alcotest.(check int) "each bad line warns" 2 (List.length warnings);
  List.iter
    (fun (r : Ledger.record) ->
      Alcotest.(check int) "schema preserved" Ledger.schema_version
        r.Ledger.schema)
    records

(* A writer that died mid-record leaves a torn last line.  The next
   append ends it first, so its record is neither glued to the torn one
   nor lost, and the append after it takes a fresh run id. *)
let test_ledger_torn_line () =
  let path = temp_ledger () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let second = Ledger.to_json (mk_record 2) in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (Ledger.to_json (mk_record 1));
      output_char oc '\n';
      output_string oc (String.sub second 0 100));
  let append () =
    (Result.get_ok (Ledger.append ~path (mk_record 0))).Ledger.run
  in
  let a = append () in
  let b = append () in
  Alcotest.(check (list int)) "appended run ids" [ 2; 3 ] [ a; b ];
  let records, warnings = Ledger.load ~path in
  Alcotest.(check (list int)) "runs read back" [ 1; 2; 3 ]
    (List.map (fun r -> r.Ledger.run) records);
  Alcotest.(check int) "the torn line warns" 1 (List.length warnings)

let test_ledger_append_unwritable () =
  match Ledger.append ~path:"/dev/null/nope/ledger.jsonl" (mk_record 0) with
  | Ok _ -> Alcotest.fail "append into /dev/null should fail"
  | Error d ->
    Alcotest.(check bool) "warning, not error" true
      (d.Gpu_diag.Diag.severity = Gpu_diag.Diag.Warning)

let test_ledger_summary_and_regression () =
  let records =
    [
      mk_record ~error:(Some (-0.04)) 1;
      mk_record ~error:(Some 0.05) 2;
      mk_record ~error:(Some 0.06) 3;
    ]
  in
  let s = Ledger.summarize records in
  Alcotest.(check int) "runs" 3 s.Ledger.runs;
  (match s.Ledger.median_abs_error with
  | Some m -> Alcotest.(check (float 1e-12)) "median |error|" 0.05 m
  | None -> Alcotest.fail "expected a median");
  Alcotest.(check bool) "within band: no regression" true
    (Ledger.regression records = None);
  let drifted = records @ [ mk_record ~error:(Some 0.30) 4 ] in
  (match Ledger.regression drifted with
  | Some d ->
    Alcotest.(check bool) "warning severity" true
      (d.Gpu_diag.Diag.severity = Gpu_diag.Diag.Warning)
  | None -> Alcotest.fail "expected a regression warning");
  Alcotest.(check bool) "under 3 measured runs stays silent" true
    (Ledger.regression [ mk_record ~error:(Some 0.9) 1 ] = None)

(* --- the tail index ------------------------------------------------------- *)

(* A record the size of a real one: four components, each with a busy
   time and an error. *)
let full_record =
  let comp c =
    { Ledger.comp = c; c_predicted_s = 2.5e-5; c_busy_s = Some 2.4e-5;
      c_error = Some 0.0417 }
  in
  {
    (mk_record 0) with
    Ledger.components =
      List.map comp [ "instruction"; "shared"; "atomic"; "global" ];
    trace_id = Some "0123456789abcdef";
  }

(* An append answers from the tail index, so its cost does not grow with
   the ledger: a full load of 500 records allocates over a million words. *)
let test_ledger_append_words () =
  let path = temp_ledger () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  let append () = Result.get_ok (Ledger.append ~path full_record) in
  for _ = 1 to 500 do
    ignore (append ())
  done;
  let words = words_allocated (fun () -> ignore (append ())) in
  let records, _ = Ledger.load ~path in
  Alcotest.(check (list int)) "run ids" (List.init 501 succ)
    (List.map (fun r -> r.Ledger.run) records);
  if words > 20_000. then
    Alcotest.failf
      "one append to a 500-record ledger allocated %.0f words (budget 20 000)"
      words

(* The append the tail index replaced, kept as the reference: it loads
   the live file (and the rotated one when the live one has no valid
   record) before every append, and ends a torn last line before writing
   its own. *)
let reference_append ~max_records ~path record =
  let last_run = List.fold_left (fun acc r -> max acc r.Ledger.run) 0 in
  let existing, _ = Ledger.load ~path in
  let prior =
    match existing with
    | [] -> last_run (fst (Ledger.load ~path:(path ^ ".1")))
    | l -> last_run l
  in
  if List.length existing >= max_records then Sys.rename path (path ^ ".1");
  let torn =
    Sys.file_exists path
    && In_channel.with_open_bin path (fun ic ->
           let n = In_channel.length ic in
           n > 0L
           && (In_channel.seek ic (Int64.pred n);
               In_channel.input_char ic <> Some '\n'))
  in
  let record = { record with Ledger.run = prior + 1 } in
  let oc = open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      if torn then output_char oc '\n';
      output_string oc (Ledger.to_json record);
      output_char oc '\n');
  record

type step =
  | Append
  | Append_nan  (** predicted_s = nan is written as null: no read-back *)
  | External of int  (** another writer's valid record with this run id *)
  | Raw of string  (** another writer's corrupt, blank or torn line *)
  | Delete  (** the live file disappears *)

let pp_step = function
  | Append -> "append"
  | Append_nan -> "append-nan"
  | External r -> Printf.sprintf "external %d" r
  | Raw s -> Printf.sprintf "raw %S" s
  | Delete -> "delete"

let external_line run = Ledger.to_json (mk_record run) ^ "\n"

let gen_steps =
  let open QCheck.Gen in
  let torn =
    let line = external_line 7 in
    map
      (fun k -> Raw (String.sub line 0 k))
      (int_range 1 (String.length line - 1))
  in
  pair (int_range 1 4)
    (list_size (int_range 1 40)
       (frequency
          [
            (8, return Append);
            (1, return Append_nan);
            ( 2,
              map
                (fun r -> External r)
                (oneof
                   [
                     int_range (-2) 40;
                     (* 2^53 reads back; past it a run id does not *)
                     oneofl [ 9_007_199_254_740_992; max_int ];
                   ]) );
            ( 1,
              oneofl
                [ Raw "{ not json\n"; Raw "{\"schema\":999}\n"; Raw "\n" ] );
            (1, torn);
            (1, return Delete);
          ]))

let read_opt path =
  if Sys.file_exists path then
    Some (In_channel.with_open_bin path In_channel.input_all)
  else None

(* Random interleavings of appends with other writers' appends, torn
   lines and deletions, at small rotation caps: the tail-indexed append
   returns the run ids the reference does, rotates at the same points and
   leaves the same bytes in the live and rotated files. *)
let prop_tail_index_matches_full_load =
  let dir = Filename.concat cache_dir "tail-index" in
  let ref_path = Filename.concat dir "reference.jsonl"
  and new_path = Filename.concat dir "indexed.jsonl" in
  QCheck.Test.make ~count:300 ~name:"tail index agrees with a full load"
    (QCheck.make
       ~print:(fun (cap, steps) ->
         Printf.sprintf "max_records %d: %s" cap
           (String.concat "; " (List.map pp_step steps)))
       ~shrink:QCheck.Shrink.(pair nil list)
       gen_steps)
    (fun (max_records, steps) ->
      if not (Sys.file_exists cache_dir) then Sys.mkdir cache_dir 0o755;
      if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
      cleanup ref_path;
      cleanup new_path;
      let both f = f ref_path; f new_path in
      let raw s path =
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
        in
        output_string oc s;
        close_out oc
      in
      let append record =
        let want =
          (reference_append ~max_records ~path:ref_path record).Ledger.run
        in
        match Ledger.append ~max_records ~path:new_path record with
        | Ok got when got.Ledger.run = want -> ()
        | Ok got ->
          QCheck.Test.fail_reportf "run id %d, reference %d" got.Ledger.run
            want
        | Error d ->
          QCheck.Test.fail_reportf "append failed: %s"
            (Gpu_diag.Diag.to_string d)
      in
      List.iteri
        (fun i step ->
          (match step with
          | Append -> append (mk_record 0)
          | Append_nan ->
            append { (mk_record 0) with Ledger.predicted_s = Float.nan }
          | External run -> both (raw (external_line run))
          | Raw s -> both (raw s)
          | Delete -> both (fun p -> if Sys.file_exists p then Sys.remove p));
          List.iter
            (fun suffix ->
              if read_opt (ref_path ^ suffix) <> read_opt (new_path ^ suffix)
              then
                QCheck.Test.fail_reportf "after step %d (%s): %s differs" i
                  (pp_step step)
                  (if suffix = "" then "live file" else "rotated file"))
            [ ""; ".1" ])
        steps;
      true)

(* --- jsonx --------------------------------------------------------------- *)

let test_jsonx_roundtrip () =
  let src =
    "{\"a\":[1,2.5,-3e2],\"b\":\"q\\\"\\u00e9\\n\",\"c\":{\"d\":null,\"e\":true}}"
  in
  match Jsonx.parse src with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok v ->
    (match Option.bind (Jsonx.member "a" v) Jsonx.to_list with
    | Some [ x; _; _ ] ->
      Alcotest.(check (float 0.0)) "int element" 1.0
        (Option.get (Jsonx.to_float x))
    | _ -> Alcotest.fail "a is a 3-list");
    Alcotest.(check string) "escapes decode" "q\"\xc3\xa9\n"
      (Option.get (Option.bind (Jsonx.member "b" v) Jsonx.to_string));
    (match Jsonx.parse (Jsonx.encode v) with
    | Ok v' ->
      Alcotest.(check bool) "encode/parse round-trips" true (v = v')
    | Error m -> Alcotest.failf "re-parse: %s" m)

let test_jsonx_rejects () =
  List.iter
    (fun bad ->
      match Jsonx.parse bad with
      | Ok _ -> Alcotest.failf "accepted %S" bad
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":1} trailing"; "nul"; "\"unterminated" ]

(* --- rendering ----------------------------------------------------------- *)

let fixed_ledger =
  [
    mk_record ~error:(Some (-0.05)) 1;
    mk_record ~error:(Some 0.04) 2;
    mk_record ~error:(Some 0.12) 3;
  ]

let render_inputs () =
  let r = Lazy.force report in
  {
    Render.workload = "matmul";
    report = r;
    attribution = Attribution.of_report r;
    whatif =
      [
        {
          Gpu_model.Whatif.device = "banks17";
          report =
            {
              r with
              analysis =
                {
                  r.Workflow.analysis with
                  Model.predicted_seconds = 9.5e-5;
                  bottleneck = Gpu_model.Component.Shared_memory;
                };
            };
          speedup = 1.05;
          shifted = true;
        };
      ];
    ledger = fixed_ledger;
    ledger_warnings = [];
    regression = Ledger.regression fixed_ledger;
    top = 3;
  }

let golden_path = "report_golden.md"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_golden_md () =
  let doc = Render.render Render.Md (render_inputs ()) in
  let doc' = Render.render Render.Md (render_inputs ()) in
  Alcotest.(check bool) "rendering is byte-deterministic" true (doc = doc');
  let expect = read_file golden_path in
  if doc <> expect then begin
    let actual = Filename.temp_file "report_golden" ".actual.md" in
    let oc = open_out_bin actual in
    output_string oc doc;
    close_out oc;
    Alcotest.failf
      "markdown render differs from %s (actual written to %s; copy it over \
       the golden file if the change is intended)"
      golden_path actual
  end

let gpuperf =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "gpuperf.exe"))

(* Runs each [gpuperf] command line in turn, through the private cache,
   and compares their stdout, concatenated, with [golden], a capture. *)
let check_cli_golden golden commands =
  let out = Filename.temp_file "cli_golden" ".actual.txt" in
  List.iter
    (fun args ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s >>%s 2>/dev/null" gpuperf args
             (Filename.quote out))
      in
      Alcotest.(check int) (args ^ ": exit code") 0 code)
    commands;
  if read_file out <> read_file golden then
    Alcotest.failf "gpuperf stdout differs from %s (actual in %s)" golden out;
  Sys.remove out

(* [gpuperf whatif] prints the device comparison itself. *)
let test_whatif_cli_golden () =
  check_cli_golden "whatif_golden.txt"
    [ "whatif histogram --variant banks17 --variant volta-like" ]

(* [gpuperf analyze] on every served workload, measured where the
   replay is cheap. *)
let test_analyze_cli_golden () =
  check_cli_golden "analyze_golden.txt"
    [
      "analyze matmul --tile 32";
      "analyze tridiag --measure";
      "analyze tridiag --padded --measure";
      "analyze spmv --format bell+im";
      "analyze reduce --measure";
      "analyze reduce --atomic --measure";
      "analyze histogram --measure";
      "analyze degree --measure";
    ]

let count_sub s sub =
  let n = String.length sub and l = String.length s in
  let rec go i acc =
    if i + n > l then acc
    else if String.sub s i n = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_html_structure () =
  let doc = Render.render Render.Html (render_inputs ()) in
  let doc' = Render.render Render.Html (render_inputs ()) in
  Alcotest.(check bool) "html render is byte-deterministic" true (doc = doc');
  List.iter
    (fun (o, c) ->
      Alcotest.(check int)
        (Printf.sprintf "%s balances %s" o c)
        (count_sub doc o) (count_sub doc c))
    [
      ("<table", "</table>"); ("<tr>", "</tr>"); ("<h2>", "</h2>");
      ("<h3>", "</h3>"); ("<dl>", "</dl>"); ("<svg ", "</svg>");
      ("<html", "</html>"); ("<body>", "</body>");
    ];
  (* the compiler's "<entry>" source label must arrive escaped *)
  Alcotest.(check int) "no raw <entry>" 0 (count_sub doc "<entry>");
  Alcotest.(check bool) "escaped entry label present" true
    (count_sub doc "&lt;entry&gt;" > 0);
  Alcotest.(check bool) "single document" true
    (count_sub doc "<!DOCTYPE html>" = 1)

let test_md_has_required_sections () =
  let doc = Render.render Render.Md (render_inputs ()) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (count_sub doc needle > 0))
    [
      "## Per-stage component breakdown"; "## Hotspots";
      "## What-if: architectural variants"; "## Timing-replay stage summary";
      "## Accuracy ledger"; "model accuracy regressed";
    ]

(* The one name table the CLI's --format and the wire's "format" read. *)
let test_format_names () =
  Alcotest.(check (list string)) "names" [ "md"; "html"; "json" ]
    (List.map fst Render.formats);
  Alcotest.(check bool) "each format once" true
    (List.map snd Render.formats = [ Render.Md; Render.Html; Render.Json ])

let test_json_render () =
  let doc = Render.render Render.Json (render_inputs ()) in
  Alcotest.(check string)
    "byte-stable" doc
    (Render.render Render.Json (render_inputs ()));
  let json =
    match Jsonx.parse (String.trim doc) with
    | Ok j -> j
    | Error m -> Alcotest.failf "render json unparsable: %s" m
  in
  (* encode ∘ parse stable *)
  Alcotest.(check string)
    "encode/parse stable" (String.trim doc) (Jsonx.encode json);
  List.iter
    (fun key ->
      Alcotest.(check bool) (key ^ " present") true
        (Jsonx.member key json <> None))
    [
      "workload"; "predicted_s"; "bottleneck"; "confidence"; "occupancy";
      "stages"; "hotspots"; "whatif"; "accuracy";
    ];
  (* the whatif row from the inputs survives *)
  match Jsonx.member "whatif" json with
  | Some (Jsonx.List [ row ]) ->
    Alcotest.(check bool) "variant name" true
      (Jsonx.member "variant" row = Some (Jsonx.Str "banks17"))
  | _ -> Alcotest.fail "expected exactly one whatif row"

let test_report_json_agrees_with_render () =
  (* The serve daemon's response body is [report_json]; every field it
     emits must appear identically in the full [render Json] document. *)
  let r = Lazy.force report in
  let body = Render.report_json ~workload:"matmul" r in
  let full =
    match Jsonx.parse (String.trim (Render.render Render.Json (render_inputs ()))) with
    | Ok j -> j
    | Error m -> Alcotest.failf "unparsable: %s" m
  in
  match body with
  | Jsonx.Obj fields ->
    List.iter
      (fun (k, v) ->
        match Jsonx.member k full with
        | Some v' ->
          Alcotest.(check string)
            ("field " ^ k ^ " agrees")
            (Jsonx.encode v) (Jsonx.encode v')
        | None -> Alcotest.failf "field %s missing from the document" k)
      fields
  | _ -> Alcotest.fail "report_json is not an object"

let () =
  Alcotest.run "report"
    [
      ( "attribution",
        [
          Alcotest.test_case "tiles into stage component times" `Quick
            test_attribution_tiles;
          Alcotest.test_case "rows ordered" `Quick
            test_attribution_rows_ordered;
          Alcotest.test_case "rows carry source paths" `Quick
            test_attribution_srcmap;
          Alcotest.test_case "top folds the tail" `Quick test_top_folds;
          Alcotest.test_case "instruction text is lazy" `Quick
            test_attribution_words;
        ] );
      ( "ledger",
        [
          Alcotest.test_case "record round-trips" `Quick
            test_ledger_roundtrip;
          Alcotest.test_case "append assigns run ids" `Quick
            test_ledger_append_assigns_runs;
          Alcotest.test_case "rotation keeps counting" `Quick
            test_ledger_rotation_continues_runs;
          Alcotest.test_case "corrupt lines recover" `Quick
            test_ledger_corrupt_line_recovery;
          Alcotest.test_case "torn last line is ended" `Quick
            test_ledger_torn_line;
          Alcotest.test_case "unwritable path degrades" `Quick
            test_ledger_append_unwritable;
          Alcotest.test_case "summary and regression" `Quick
            test_ledger_summary_and_regression;
        ] );
      ( "tail index",
        [
          Alcotest.test_case "append allocation is flat" `Quick
            test_ledger_append_words;
          QCheck_alcotest.to_alcotest ~speed_level:`Quick
            ~rand:(Random.State.make [| 21 |])
            prop_tail_index_matches_full_load;
        ] );
      ( "jsonx",
        [
          Alcotest.test_case "round-trip" `Quick test_jsonx_roundtrip;
          Alcotest.test_case "rejects malformed input" `Quick
            test_jsonx_rejects;
        ] );
      ( "render",
        [
          Alcotest.test_case "markdown matches golden" `Quick test_golden_md;
          Alcotest.test_case "html structure" `Quick test_html_structure;
          Alcotest.test_case "required sections" `Quick
            test_md_has_required_sections;
          Alcotest.test_case "format names" `Quick test_format_names;
          Alcotest.test_case "json document" `Quick test_json_render;
          Alcotest.test_case "report_json agrees with render" `Quick
            test_report_json_agrees_with_render;
          Alcotest.test_case "whatif stdout matches golden" `Quick
            test_whatif_cli_golden;
          Alcotest.test_case "analyze stdout matches golden" `Quick
            test_analyze_cli_golden;
        ] );
    ]
