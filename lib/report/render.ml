(* Report rendering.  The document is first built as a format-neutral
   block list (headings, paragraphs, tables, bar charts), then serialized
   to GitHub-flavored Markdown or a standalone HTML page.  Keeping the
   two serializers tiny and the content construction shared means the md
   and html reports can never drift apart section-wise. *)

module Model = Gpu_model.Model
module Component = Gpu_model.Component
module Workflow = Gpu_model.Workflow
module Whatif = Gpu_model.Whatif
module Engine = Gpu_timing.Engine

type format = Md | Html | Json

let formats = [ ("md", Md); ("html", Html); ("json", Json) ]

type inputs = {
  workload : string;
  report : Workflow.report;
  attribution : Attribution.t;
  whatif : Whatif.outcome list;
  ledger : Ledger.record list;
  ledger_warnings : Gpu_diag.Diag.t list;
  regression : Gpu_diag.Diag.t option;
  top : int;
}

(* --- format-neutral document model -------------------------------------- *)

type align = L | R

type block =
  | Heading of int * string
  | Para of string
  | KeyValues of (string * string) list
  | Table of {
      headers : string list;
      aligns : align list;
      rows : string list list;
    }
  | Bars of (string * float * string) list
      (* label, value in [0,1] of the chart max, annotation *)
  | Note of string (* a warning/callout line *)

(* --- shared formatting --------------------------------------------------- *)

let ms s = Printf.sprintf "%.4g ms" (1e3 *. s)

let us s =
  if s = 0.0 then "0"
  else if s >= 1e-3 then ms s
  else Printf.sprintf "%.4g µs" (1e6 *. s)

let pct x = Printf.sprintf "%.1f%%" (100.0 *. x)

let signed_pct x = Printf.sprintf "%+.1f%%" (100.0 *. x)

let opt_pct = function Some x -> signed_pct x | None -> "—"

(* Eight-level unicode sparkline of |error| per run. *)
let sparkline values =
  let ticks = [| "▁"; "▂"; "▃"; "▄"; "▅"; "▆"; "▇"; "█" |] in
  let hi = List.fold_left (fun a v -> Float.max a v) 0.0 values in
  if hi <= 0.0 then String.concat "" (List.map (fun _ -> ticks.(0)) values)
  else
    String.concat ""
      (List.map
         (fun v ->
           let i =
             int_of_float (Float.round (v /. hi *. 7.0))
           in
           ticks.(max 0 (min 7 i)))
         values)

(* --- document construction ----------------------------------------------- *)

let count_header = function
  | Component.Instruction_pipeline -> "issued"
  | Component.Shared_memory | Component.Atomic -> "txns"
  | Component.Global_memory -> "bytes"

let summary_section inp =
  let r = inp.report in
  let a = r.analysis in
  let occ = a.Model.occupancy in
  [
    Heading (1, Printf.sprintf "gpuperf report — %s" inp.workload);
    Para
      (Printf.sprintf
         "Kernel `%s` on %s — grid %d × %d threads, %d resident \
          block%s/SM (%s)."
         r.Workflow.kernel_name a.Model.spec.Gpu_hw.Spec.name
         a.Model.grid a.Model.block a.Model.resident_blocks
         (if a.Model.resident_blocks = 1 then "" else "s")
         (if a.Model.serialized then "stages serialized"
          else "stages overlapped"));
    KeyValues
      (List.concat
         [
           [
             ("predicted", ms a.Model.predicted_seconds);
             ( "no-overlap bound",
               ms a.Model.no_overlap_seconds );
           ];
           (match Workflow.measured_seconds r with
           | Some m -> [ ("measured (timing sim)", ms m) ]
           | None -> []);
           (match Workflow.prediction_error r with
           | Some e -> [ ("model error", signed_pct e) ]
           | None -> []);
           [
             ("bottleneck", Component.name a.Model.bottleneck);
             ( "occupancy",
               Printf.sprintf "%d blocks, %d warps/SM (limited by %s)"
                 occ.Gpu_hw.Occupancy.blocks
                 occ.Gpu_hw.Occupancy.active_warps
                 occ.Gpu_hw.Occupancy.limiter );
             ("predicted GFLOPS",
              Printf.sprintf "%.1f" a.Model.predicted_gflops);
             ( "confidence",
               match a.Model.confidence with
               | Model.Calibrated -> "calibrated"
               | Model.Degraded -> "degraded (outside calibrated domain)" );
           ];
         ]);
  ]

let breakdown_section inp =
  let a = inp.report.Workflow.analysis in
  let hi =
    List.fold_left
      (fun acc (st : Model.stage_analysis) ->
        Float.max acc (Component.max_time st.Model.times))
      0.0 a.Model.stages
  in
  let hi = if hi > 0.0 then hi else 1.0 in
  Heading (2, "Per-stage component breakdown")
  :: List.concat_map
       (fun (st : Model.stage_analysis) ->
         let t = st.Model.times in
         [
           Heading
             ( 3,
               Printf.sprintf "Stage %d — bottleneck: %s (%d warps/SM)"
                 st.Model.index
                 (Component.name st.Model.bottleneck)
                 st.Model.active_warps );
           Bars
             (List.map
                (fun c ->
                  let v = Component.time_of t c in
                  ( Component.short_name c,
                    v /. hi,
                    Printf.sprintf "%s (%s)" (us v)
                      (pct
                         (let m = Component.max_time t in
                          if m > 0.0 then v /. m else 0.0)) ))
                Component.all);
         ])
       a.Model.stages

let hotspot_tables inp =
  let blocks = ref [] in
  let push b = blocks := b :: !blocks in
  push (Heading (2, "Hotspots"));
  if not inp.attribution.Attribution.covered then
    push
      (Note
         "Per-pc attribution is unavailable for these statistics (no \
          site counters were collected).")
  else
    List.iter
      (fun (st : Attribution.stage) ->
        List.iter
          (fun c ->
            let rows = Attribution.rows st c in
            let total = Component.time_of st.Attribution.times c in
            if rows <> [] && total > 0.0 then begin
              push
                (Heading
                   ( 3,
                     Printf.sprintf "Stage %d · %s — %s"
                       st.Attribution.index (Component.name c) (us total)
                   ));
              let shown, folded = Attribution.top inp.top rows in
              let table_rows =
                List.map
                  (fun (r : Attribution.row) ->
                    [
                      string_of_int r.Attribution.pc;
                      r.Attribution.src;
                      Lazy.force r.Attribution.instr;
                      Gpu_isa.Instr.cost_class_name r.Attribution.cls;
                      string_of_int r.Attribution.count;
                      us r.Attribution.seconds;
                      pct r.Attribution.share;
                    ])
                  shown
                @
                match folded with
                | None -> []
                | Some (n, secs) ->
                  [
                    [
                      "…";
                      Printf.sprintf "(%d more site%s)" n
                        (if n = 1 then "" else "s");
                      "";
                      "";
                      "";
                      us secs;
                      pct (if total > 0.0 then secs /. total else 0.0);
                    ];
                  ]
              in
              push
                (Table
                   {
                     headers =
                       [
                         "pc"; "source"; "instruction"; "class";
                         count_header c; "time"; "share";
                       ];
                     aligns = [ R; L; L; L; R; R; R ];
                     rows = table_rows;
                   })
            end)
          Component.all)
      inp.attribution.Attribution.stages;
  List.rev !blocks

let efficiency_section inp =
  let a = inp.report.Workflow.analysis in
  [
    Heading (2, "Memory behavior");
    KeyValues
      [
        ("computational density", pct a.Model.computational_density);
        ("coalescing efficiency", pct a.Model.coalescing_efficiency);
        ( "bank-conflict penalty",
          Printf.sprintf "%.2fx" a.Model.bank_conflict_penalty );
        ( "atomic-contention penalty",
          Printf.sprintf "%.2fx" a.Model.atomic_contention_penalty );
      ];
  ]

let whatif_section inp =
  match inp.whatif with
  | [] -> []
  | outcomes ->
    let a = inp.report.Workflow.analysis in
    [
      Heading (2, "What-if: architectural variants");
      Table
        {
          headers = [ "variant"; "predicted"; "speedup"; "bottleneck" ];
          aligns = [ L; R; R; L ];
          rows =
            [ "baseline"; ms a.Model.predicted_seconds; "1.00x";
              Component.name a.Model.bottleneck ]
            :: List.map
                 (fun (o : Whatif.outcome) ->
                   let a = o.report.Workflow.analysis in
                   [
                     o.device;
                     ms a.Model.predicted_seconds;
                     Printf.sprintf "%.2fx" o.speedup;
                     Component.name a.Model.bottleneck;
                   ])
                 outcomes;
        };
    ]

let timeline_section inp =
  match inp.report.Workflow.measured with
  | None -> []
  | Some m when Array.length m.Engine.stages_busy = 0 -> []
  | Some m ->
    let tpc = Engine.ticks_per_cycle in
    let cycles t = (t + tpc - 1) / tpc in
    [
      Heading (2, "Timing-replay stage summary");
      Para
        (Printf.sprintf
           "Busy cycles per pipeline over the %d simulated SM%s (%d \
            cluster%s), per barrier stage."
           m.Engine.sms_simulated
           (if m.Engine.sms_simulated = 1 then "" else "s")
           m.Engine.clusters_simulated
           (if m.Engine.clusters_simulated = 1 then "" else "s"));
      Table
        {
          headers = [ "stage"; "alu"; "smem"; "atomic"; "gmem"; "busiest" ];
          aligns = [ R; R; R; R; R; L ];
          rows =
            Array.to_list
              (Array.mapi
                 (fun i (sb : Engine.stage_busy) ->
                   let alu = cycles sb.Engine.alu_ticks in
                   let smem = cycles sb.Engine.smem_ticks in
                   let atomic = cycles sb.Engine.atomic_ticks in
                   let gmem = cycles sb.Engine.gmem_ticks in
                   let busiest =
                     List.fold_left
                       (fun (bn, bv) (n, v) ->
                         if v > bv then (n, v) else (bn, bv))
                       ("alu", alu)
                       [ ("smem", smem); ("atomic", atomic); ("gmem", gmem) ]
                     |> fst
                   in
                   [
                     string_of_int i;
                     string_of_int alu;
                     string_of_int smem;
                     string_of_int atomic;
                     string_of_int gmem;
                     busiest;
                   ])
                 m.Engine.stages_busy);
        };
    ]

let accuracy_section inp =
  let blocks = ref [] in
  let push b = blocks := b :: !blocks in
  push (Heading (2, "Accuracy ledger"));
  (match inp.ledger with
  | [] ->
    push
      (Note
         "No ledger records yet — run with --measure (the report command \
          does so by default) and a resolvable cache directory to start \
          tracking accuracy.")
  | records ->
    let s = Ledger.summarize records in
    push
      (KeyValues
         (List.concat
            [
              [ ("runs", string_of_int s.Ledger.runs) ];
              (match s.Ledger.median_abs_error with
              | Some m -> [ ("median |error|", pct m) ]
              | None -> []);
              [ ("latest error", opt_pct s.Ledger.latest_error) ];
            ]));
    let errors =
      List.filter_map
        (fun (r : Ledger.record) -> Option.map Float.abs r.Ledger.error)
        records
    in
    if List.length errors >= 2 then
      push
        (Para
           (Printf.sprintf "trend (oldest → newest |error|): %s"
              (sparkline errors)));
    let tail =
      let n = List.length records in
      if n <= 10 then records
      else List.filteri (fun i _ -> i >= n - 10) records
    in
    push
      (Table
         {
           headers =
             [ "run"; "git"; "grid"; "block"; "predicted"; "measured";
               "error" ];
           aligns = [ R; L; R; R; R; R; R ];
           rows =
             List.map
               (fun (r : Ledger.record) ->
                 [
                   string_of_int r.Ledger.run;
                   r.Ledger.git;
                   string_of_int r.Ledger.grid;
                   string_of_int r.Ledger.block;
                   ms r.Ledger.predicted_s;
                   (match r.Ledger.measured_s with
                   | Some m -> ms m
                   | None -> "—");
                   opt_pct r.Ledger.error;
                 ])
               tail;
         }));
  (match inp.regression with
  | Some d -> push (Note d.Gpu_diag.Diag.message)
  | None -> ());
  List.iter
    (fun (d : Gpu_diag.Diag.t) -> push (Note d.Gpu_diag.Diag.message))
    inp.ledger_warnings;
  List.rev !blocks

let warnings_section inp =
  match inp.report.Workflow.analysis.Model.warnings with
  | [] -> []
  | warnings ->
    Heading (2, "Model warnings")
    :: List.map
         (fun (d : Gpu_diag.Diag.t) -> Note d.Gpu_diag.Diag.message)
         warnings

let document inp =
  List.concat
    [
      summary_section inp;
      breakdown_section inp;
      hotspot_tables inp;
      efficiency_section inp;
      whatif_section inp;
      timeline_section inp;
      accuracy_section inp;
      warnings_section inp;
    ]

(* --- Markdown serialization ---------------------------------------------- *)

(* Pipes would break table cells; everything else passes through. *)
let md_cell s =
  String.concat "\\|" (String.split_on_char '|' s)

let bar_width = 24

let md_bar frac =
  let n = max 0 (min bar_width (int_of_float (Float.round (frac *. float_of_int bar_width)))) in
  let b = Buffer.create (3 * bar_width) in
  for _ = 1 to n do Buffer.add_string b "█" done;
  for _ = n + 1 to bar_width do Buffer.add_string b "░" done;
  Buffer.contents b

let to_markdown blocks =
  let b = Buffer.create 4096 in
  List.iter
    (fun block ->
      (match block with
      | Heading (n, text) ->
        Buffer.add_string b (String.make n '#');
        Buffer.add_char b ' ';
        Buffer.add_string b text
      | Para text -> Buffer.add_string b text
      | KeyValues kvs ->
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b '\n';
            Buffer.add_string b (Printf.sprintf "- **%s**: %s" k v))
          kvs
      | Table { headers; aligns; rows } ->
        Buffer.add_string b
          ("| " ^ String.concat " | " (List.map md_cell headers) ^ " |\n");
        Buffer.add_string b
          ("|"
          ^ String.concat "|"
              (List.map
                 (function L -> " --- " | R -> " ---: ")
                 aligns)
          ^ "|");
        List.iter
          (fun row ->
            Buffer.add_char b '\n';
            Buffer.add_string b
              ("| " ^ String.concat " | " (List.map md_cell row) ^ " |"))
          rows
      | Bars bars ->
        List.iteri
          (fun i (label, frac, annot) ->
            if i > 0 then Buffer.add_char b '\n';
            Buffer.add_string b
              (Printf.sprintf "    %-6s %s %s" label (md_bar frac) annot))
          bars
      | Note text -> Buffer.add_string b ("> ⚠ " ^ text));
      Buffer.add_string b "\n\n")
    blocks;
  Buffer.contents b

(* --- HTML serialization --------------------------------------------------- *)

let html_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '&' -> Buffer.add_string b "&amp;"
      | '<' -> Buffer.add_string b "&lt;"
      | '>' -> Buffer.add_string b "&gt;"
      | '"' -> Buffer.add_string b "&quot;"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let svg_bar frac annot =
  let w = 240 in
  let filled =
    max 0 (min w (int_of_float (Float.round (frac *. float_of_int w))))
  in
  Printf.sprintf
    "<svg width=\"%d\" height=\"14\" role=\"img\"><rect width=\"%d\" \
     height=\"14\" fill=\"#e8e8e8\"/><rect width=\"%d\" height=\"14\" \
     fill=\"#4078c0\"/></svg> <span class=\"annot\">%s</span>"
    w w filled (html_escape annot)

let html_style =
  "body{font-family:system-ui,sans-serif;max-width:60rem;margin:2rem \
   auto;padding:0 1rem;color:#222}table{border-collapse:collapse;margin:0.5rem \
   0}th,td{border:1px solid #ccc;padding:0.25rem 0.5rem;font-size:0.9rem}\
   th{background:#f5f5f5}td.r,th.r{text-align:right}code{background:#f0f0f0;\
   padding:0 0.2rem}.note{background:#fff3cd;border-left:4px solid \
   #e0a800;padding:0.4rem 0.8rem;margin:0.5rem 0}.bars{font-size:0.9rem}\
   .bars td{border:none;padding:0.1rem 0.4rem}.annot{color:#555;\
   font-size:0.85rem}dl{display:grid;grid-template-columns:max-content \
   1fr;gap:0.2rem 1rem}dt{font-weight:600}dd{margin:0}"

(* Markdown-style `code` spans in paragraph text become <code>. *)
let html_inline text =
  let parts = String.split_on_char '`' (html_escape text) in
  let b = Buffer.create (String.length text + 16) in
  List.iteri
    (fun i part ->
      if i mod 2 = 1 then begin
        Buffer.add_string b "<code>";
        Buffer.add_string b part;
        Buffer.add_string b "</code>"
      end
      else Buffer.add_string b part)
    parts;
  Buffer.contents b

let to_html ~title blocks =
  let b = Buffer.create 8192 in
  Buffer.add_string b
    (Printf.sprintf
       "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta \
        charset=\"utf-8\"/>\n<title>%s</title>\n<style>%s</style>\n</head>\n<body>\n"
       (html_escape title) html_style);
  List.iter
    (fun block ->
      (match block with
      | Heading (n, text) ->
        let n = min n 6 in
        Buffer.add_string b
          (Printf.sprintf "<h%d>%s</h%d>" n (html_escape text) n)
      | Para text ->
        Buffer.add_string b ("<p>" ^ html_inline text ^ "</p>")
      | KeyValues kvs ->
        Buffer.add_string b "<dl>";
        List.iter
          (fun (k, v) ->
            Buffer.add_string b
              (Printf.sprintf "<dt>%s</dt><dd>%s</dd>" (html_escape k)
                 (html_escape v)))
          kvs;
        Buffer.add_string b "</dl>"
      | Table { headers; aligns; rows } ->
        let cls = function L -> "" | R -> " class=\"r\"" in
        Buffer.add_string b "<table><thead><tr>";
        List.iter2
          (fun h a ->
            Buffer.add_string b
              (Printf.sprintf "<th%s>%s</th>" (cls a) (html_escape h)))
          headers aligns;
        Buffer.add_string b "</tr></thead><tbody>";
        List.iter
          (fun row ->
            Buffer.add_string b "<tr>";
            List.iter2
              (fun cell a ->
                Buffer.add_string b
                  (Printf.sprintf "<td%s>%s</td>" (cls a)
                     (html_escape cell)))
              row aligns;
            Buffer.add_string b "</tr>")
          rows;
        Buffer.add_string b "</tbody></table>"
      | Bars bars ->
        Buffer.add_string b "<table class=\"bars\">";
        List.iter
          (fun (label, frac, annot) ->
            Buffer.add_string b
              (Printf.sprintf "<tr><td>%s</td><td>%s</td></tr>"
                 (html_escape label) (svg_bar frac annot)))
          bars;
        Buffer.add_string b "</table>"
      | Note text ->
        Buffer.add_string b
          ("<div class=\"note\">" ^ html_escape text ^ "</div>"));
      Buffer.add_char b '\n')
    blocks;
  Buffer.add_string b "</body>\n</html>\n";
  Buffer.contents b

(* --- JSON serialization --------------------------------------------------- *)

(* The machine-readable rendering the serve daemon returns: the same
   content selection as the md/html documents, as structured Jsonx values
   instead of prose.  Numbers pass through Jsonx.encode's deterministic
   formatter, so identical inputs give byte-identical documents here too. *)

let diag_json (d : Gpu_diag.Diag.t) =
  Jsonx.Obj
    ([
       ("severity", Jsonx.Str (Gpu_diag.Diag.severity_name d.severity));
       ("stage", Jsonx.Str (Gpu_diag.Diag.stage_name d.stage));
       ("message", Jsonx.Str d.message);
     ]
    @ match d.hint with None -> [] | Some h -> [ ("hint", Jsonx.Str h) ])

let jint i = Jsonx.Num (float_of_int i)

let confidence_name = function
  | Model.Calibrated -> "calibrated"
  | Model.Degraded -> "degraded"

let times_json (t : Component.times) =
  Jsonx.Obj
    [
      ("instruction_s", Jsonx.Num t.Component.instruction);
      ("shared_s", Jsonx.Num t.Component.shared);
      ("atomic_s", Jsonx.Num t.Component.atomic);
      ("global_s", Jsonx.Num t.Component.global);
    ]

let report_json ~workload (r : Workflow.report) =
  let a = r.Workflow.analysis in
  let occ = a.Model.occupancy in
  Jsonx.Obj
    (List.concat
       [
         [
           ("workload", Jsonx.Str workload);
           ("kernel", Jsonx.Str r.Workflow.kernel_name);
           ("device", Jsonx.Str a.Model.spec.Gpu_hw.Spec.name);
           ("grid", jint a.Model.grid);
           ("block", jint a.Model.block);
           ("predicted_s", Jsonx.Num a.Model.predicted_seconds);
           ("no_overlap_s", Jsonx.Num a.Model.no_overlap_seconds);
           ("predicted_gflops", Jsonx.Num a.Model.predicted_gflops);
           ("bottleneck", Jsonx.Str (Component.name a.Model.bottleneck));
           ("confidence", Jsonx.Str (confidence_name a.Model.confidence));
           ( "occupancy",
             Jsonx.Obj
               [
                 ("blocks", jint occ.Gpu_hw.Occupancy.blocks);
                 ("active_warps", jint occ.Gpu_hw.Occupancy.active_warps);
                 ("limiter", Jsonx.Str occ.Gpu_hw.Occupancy.limiter);
               ] );
           ("resident_blocks", jint a.Model.resident_blocks);
           ("serialized", Jsonx.Bool a.Model.serialized);
           ( "computational_density",
             Jsonx.Num a.Model.computational_density );
           ( "coalescing_efficiency",
             Jsonx.Num a.Model.coalescing_efficiency );
           ( "bank_conflict_penalty",
             Jsonx.Num a.Model.bank_conflict_penalty );
           ( "stages",
             Jsonx.List
               (List.map
                  (fun (st : Model.stage_analysis) ->
                    Jsonx.Obj
                      [
                        ("index", jint st.Model.index);
                        ( "bottleneck",
                          Jsonx.Str (Component.name st.Model.bottleneck) );
                        ("active_warps", jint st.Model.active_warps);
                        ("times", times_json st.Model.times);
                      ])
                  a.Model.stages) );
         ];
         (match Workflow.measured_seconds r with
         | Some m -> [ ("measured_s", Jsonx.Num m) ]
         | None -> []);
         (match Workflow.prediction_error r with
         | Some e -> [ ("model_error", Jsonx.Num e) ]
         | None -> []);
         [
           ( "warnings",
             Jsonx.List (List.map diag_json a.Model.warnings) );
         ];
       ])

let attribution_json top (att : Attribution.t) =
  if not att.Attribution.covered then Jsonx.Null
  else
    Jsonx.List
      (List.concat_map
         (fun (st : Attribution.stage) ->
           List.filter_map
             (fun c ->
               let rows = Attribution.rows st c in
               if rows = [] then None
               else
                 let shown, folded = Attribution.top top rows in
                 Some
                   (Jsonx.Obj
                      (List.concat
                         [
                           [
                             ("stage", jint st.Attribution.index);
                             ("component", Jsonx.Str (Component.name c));
                             ( "rows",
                               Jsonx.List
                                 (List.map
                                    (fun (r : Attribution.row) ->
                                      Jsonx.Obj
                                        [
                                          ("pc", jint r.Attribution.pc);
                                          ("src", Jsonx.Str r.Attribution.src);
                                          ( "instr",
                                            Jsonx.Str
                                              (Lazy.force
                                                 r.Attribution.instr) );
                                          ( "class",
                                            Jsonx.Str
                                              (Gpu_isa.Instr.cost_class_name
                                                 r.Attribution.cls) );
                                          ("count", jint r.Attribution.count);
                                          ( "seconds",
                                            Jsonx.Num r.Attribution.seconds );
                                          ("share", Jsonx.Num r.Attribution.share);
                                        ])
                                    shown) );
                           ];
                           (match folded with
                           | None -> []
                           | Some (n, secs) ->
                             [
                               ("folded_rows", jint n);
                               ("folded_seconds", Jsonx.Num secs);
                             ]);
                         ])))
             Component.all)
         att.Attribution.stages)

let json_of_inputs inp =
  let base =
    match report_json ~workload:inp.workload inp.report with
    | Jsonx.Obj fields -> fields
    | _ -> assert false
  in
  Jsonx.Obj
    (base
    @ List.concat
        [
          [ ("hotspots", attribution_json inp.top inp.attribution) ];
          (match inp.whatif with
          | [] -> []
          | outcomes ->
            [
              ( "whatif",
                Jsonx.List
                  (List.map
                     (fun (o : Whatif.outcome) ->
                       let a = o.report.Workflow.analysis in
                       Jsonx.Obj
                         [
                           ("variant", Jsonx.Str o.device);
                           ("predicted_s", Jsonx.Num a.Model.predicted_seconds);
                           ("speedup", Jsonx.Num o.speedup);
                           ( "bottleneck",
                             Jsonx.Str (Component.name a.Model.bottleneck) );
                         ])
                     outcomes) );
            ]);
          (match inp.ledger with
          | [] -> []
          | records ->
            let s = Ledger.summarize records in
            [
              ( "accuracy",
                Jsonx.Obj
                  (List.concat
                     [
                       [ ("runs", jint s.Ledger.runs) ];
                       (match s.Ledger.median_abs_error with
                       | Some m -> [ ("median_abs_error", Jsonx.Num m) ]
                       | None -> []);
                       (match s.Ledger.latest_error with
                       | Some e -> [ ("latest_error", Jsonx.Num e) ]
                       | None -> []);
                     ]) );
            ]);
        ])

let render fmt inp =
  let blocks = document inp in
  match fmt with
  | Md -> to_markdown blocks
  | Html ->
    to_html ~title:(Printf.sprintf "gpuperf report — %s" inp.workload)
      blocks
  | Json -> Jsonx.encode (json_of_inputs inp) ^ "\n"

(* --- device-sweep comparison ---------------------------------------------- *)

(* One workload, the whole fleet: the sweep document reuses the same
   block-document machinery, so Md/Html/Json cannot drift section-wise
   and identical inputs give byte-identical documents. *)

let stage_bottlenecks (a : Model.t) =
  List.map
    (fun (st : Model.stage_analysis) ->
      Component.short_name st.Model.bottleneck)
    a.Model.stages

let sweep_document workload (outcomes : Whatif.outcome list) =
  let shifts = List.filter (fun (o : Whatif.outcome) -> o.shifted) outcomes in
  [
    Heading (1, Printf.sprintf "gpuperf device sweep — %s" workload);
    Para
      (Printf.sprintf
         "One workload, %d device profiles.  Speedups are relative to the \
          baseline prediction; the shift column marks devices whose \
          bottleneck class differs from the baseline's.  %s"
         (List.length outcomes)
         (match shifts with
         | [] -> "No device shifts the bottleneck."
         | l ->
           Printf.sprintf "Bottleneck shifts on: %s."
             (String.concat ", "
                (List.map (fun (o : Whatif.outcome) -> o.device) l))));
    Table
      {
        headers =
          [ "device"; "spec"; "predicted"; "speedup"; "bottleneck";
            "shift"; "GFLOPS"; "confidence" ];
        aligns = [ L; L; R; R; L; L; R; L ];
        rows =
          List.map
            (fun (o : Whatif.outcome) ->
              let a = o.report.Workflow.analysis in
              [
                o.device;
                a.Model.spec.Gpu_hw.Spec.name;
                ms a.Model.predicted_seconds;
                Printf.sprintf "%.2fx" o.speedup;
                Component.name a.Model.bottleneck;
                (if o.shifted then "yes" else "");
                Printf.sprintf "%.1f" a.Model.predicted_gflops;
                confidence_name a.Model.confidence;
              ])
            outcomes;
      };
    Heading (2, "Per-component time totals");
    Para
      "Unoverlapped per-component seconds summed over barrier stages, \
       with each stage's bottleneck class in stage order.";
    Table
      {
        headers =
          [ "device"; "instr"; "smem"; "atomic"; "gmem";
            "stage bottlenecks" ];
        aligns = [ L; R; R; R; R; L ];
        rows =
          List.map
            (fun (o : Whatif.outcome) ->
              let a = o.report.Workflow.analysis in
              let t = a.Model.totals in
              [
                o.device;
                us t.Component.instruction;
                us t.Component.shared;
                us t.Component.atomic;
                us t.Component.global;
                String.concat " → " (stage_bottlenecks a);
              ])
            outcomes;
      };
  ]

let sweep_json workload (outcomes : Whatif.outcome list) =
  Jsonx.Obj
    [
      ("workload", Jsonx.Str workload);
      ( "devices",
        Jsonx.List
          (List.map
             (fun (o : Whatif.outcome) ->
               let a = o.report.Workflow.analysis in
               Jsonx.Obj
                 [
                   ("device", Jsonx.Str o.device);
                   ("spec", Jsonx.Str a.Model.spec.Gpu_hw.Spec.name);
                   ("predicted_s", Jsonx.Num a.Model.predicted_seconds);
                   ("speedup", Jsonx.Num o.speedup);
                   ( "bottleneck",
                     Jsonx.Str (Component.name a.Model.bottleneck) );
                   ("bottleneck_shifted", Jsonx.Bool o.shifted);
                   ("predicted_gflops", Jsonx.Num a.Model.predicted_gflops);
                   ( "confidence",
                     Jsonx.Str (confidence_name a.Model.confidence) );
                   ("times", times_json a.Model.totals);
                   ( "stage_bottlenecks",
                     Jsonx.List
                       (List.map
                          (fun s -> Jsonx.Str s)
                          (stage_bottlenecks a)) );
                 ])
             outcomes) );
    ]

let render_sweep fmt ~workload outcomes =
  let blocks = sweep_document workload outcomes in
  match fmt with
  | Md -> to_markdown blocks
  | Html ->
    to_html
      ~title:(Printf.sprintf "gpuperf device sweep — %s" workload)
      blocks
  | Json -> Jsonx.encode (sweep_json workload outcomes) ^ "\n"
