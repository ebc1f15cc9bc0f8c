(** Self-contained Markdown / HTML report generation — the paper-style
    per-stage breakdown (Figures 4-8) plus hotspot attribution, what-if
    deltas, timeline stage summary and the accuracy-ledger trend, with no
    external dependencies (unicode bars in Markdown, inline SVG bars in
    HTML).

    Rendering is a pure function of {!inputs}: no timestamps, hostnames
    or randomness enter the body, so identical inputs give byte-identical
    documents (golden-testable). *)

type format = Md | Html | Json

(** Every format with its name: the one table behind the CLI's
    [--format] values and the serve wire's ["format"] field. *)
val formats : (string * format) list

(** {2 Block documents}

    The format-neutral intermediate every report renders through.  It is
    exposed so other surfaces — the serve daemon's [/dashboard] page —
    build documents from the same engine and inherit its styling and
    escaping instead of hand-writing HTML. *)

(** Table column alignment. *)
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
      (** label, value in [0,1] of the chart max, annotation *)
  | Note of string  (** a warning/callout line *)

val to_markdown : block list -> string

(** A self-contained HTML page (inline CSS, inline SVG bars). *)
val to_html : title:string -> block list -> string

(** Eight-level unicode sparkline. *)
val sparkline : float list -> string

type inputs = {
  workload : string;
  report : Gpu_model.Workflow.report;
  attribution : Attribution.t;
  whatif : Gpu_model.Whatif.outcome list;
      (** devices compared with [report]; empty section when [] *)
  ledger : Ledger.record list;
      (** chronological, the current run last; empty = no accuracy
          section body *)
  ledger_warnings : Gpu_diag.Diag.t list;
  regression : Gpu_diag.Diag.t option;
  top : int;  (** hotspot rows shown per table *)
}

val render : format -> inputs -> string

(** {2 JSON building blocks}

    The serve daemon's response bodies reuse these directly, so a
    request answered over the wire and a [gpuperf report --format json]
    document agree field-for-field. *)

(** [{severity, stage, message, hint?}] *)
val diag_json : Gpu_diag.Diag.t -> Jsonx.t

(** The analysis core of a report as one JSON object: launch geometry,
    predicted/measured times, bottleneck, confidence, occupancy,
    efficiency ratios, per-stage component times and model warnings. *)
val report_json :
  workload:string -> Gpu_model.Workflow.report -> Jsonx.t

(** Everything {!render} would show, as JSON ({!report_json} plus
    hotspots, what-if rows and the accuracy summary). *)
val json_of_inputs : inputs -> Jsonx.t

(** {2 Device-sweep comparison}

    [gpuperf sweep-devices] analyzes one workload on every fleet profile
    and renders the comparison; like {!render}, the document is a pure
    function of its inputs. *)

(** [render_sweep fmt ~workload outcomes]: one row per device, in
    [outcomes] order (the baseline first), with its prediction, speedup,
    bottleneck shift and per-component totals. *)
val render_sweep :
  format -> workload:string -> Gpu_model.Whatif.outcome list -> string
