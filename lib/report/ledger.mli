(** Append-only model-accuracy ledger: one JSONL record per analysis run,
    stored under the calibration cache directory, tracking model-predicted
    versus timing-engine-measured time (total and per component) across a
    repository's history.

    Records are schema-versioned and deliberately carry no wall-clock
    timestamp: the monotonic [run] id orders them, and identical inputs
    produce byte-identical records, so report rendering stays
    golden-testable.  Corrupt lines (a crashed writer, manual edits) are
    skipped with a warning, never fatal.  When a file reaches
    [max_records] lines it rotates to [path ^ ".1"], and run ids continue
    across the rotation. *)

val schema_version : int

(** One component's predicted time and, when the timing engine ran, its
    per-unit busy time and relative error. *)
type component = {
  comp : string;  (** "instruction" | "shared" | "global" *)
  c_predicted_s : float;
  c_busy_s : float option;
      (** engine busy cycles / simulated units / clock *)
  c_error : float option;  (** (predicted - busy) / busy *)
}

type record = {
  schema : int;
  run : int;  (** monotonic per ledger file, assigned by {!append} *)
  workload : string;
  fingerprint : string;  (** digest of spec + kernel + launch geometry *)
  spec_name : string;
  git : string;  (** git describe --always --dirty, or "unknown" *)
  host : string;
  grid : int;
  block : int;
  predicted_s : float;
  measured_s : float option;  (** timing-engine seconds *)
  error : float option;  (** (predicted - measured) / measured *)
  components : component list;
  trace_id : string option;
      (** the originating request's trace id when the record came from
          the serve path; [None] for CLI runs.  Optional and additive —
          the schema version stays 1 and old readers ignore it. *)
}

(** [<cache dir>/ledger/<workload>.jsonl], or [None] when no cache
    directory resolves (see {!Gpu_microbench.Calib_cache.dir}). *)
val default_path : workload:string -> string option

(** [(git describe, hostname)] of the live environment — what
    {!of_report} defaults to.  The serve daemon samples this once at
    startup so per-request ledger writes never fork a git process. *)
val environment : unit -> string * string

(** Build a record (with [run = 0]; {!append} assigns the real id) from a
    workflow report.  [git]/[host] default to the live environment —
    override them for deterministic tests.  [trace_id] stamps serve-path
    records with the originating request. *)
val of_report :
  ?git:string -> ?host:string -> ?trace_id:string -> workload:string ->
  Gpu_model.Workflow.report -> record

val to_json : record -> string

(** Parse one JSONL line; [None] on malformed JSON, missing fields, or a
    schema-version mismatch. *)
val of_json_line : string -> record option

(** Append, assigning the next monotonic run id (max existing id + 1,
    consulting the rotated file when the live one is empty).  Creates
    parent directories.  At [max_records] lines (default 512) the live
    file rotates to [path ^ ".1"] first.  Returns the record as written.
    I/O failures degrade to an [Error] diagnostic.

    The id and the record count come from a per-process tail index when
    the file is exactly as this process's last append to [path] left it
    (same device, inode, size and mtime), so an append costs the same at
    any ledger size; in every other case from a full {!load}, which makes
    ids, rotation points and file bytes those of loading every time.  The
    index keeps each indexed file open between appends.  Appends within
    one process are serialized. *)
val append :
  ?max_records:int -> path:string -> record ->
  (record, Gpu_diag.Diag.t) result

(** All valid records in file order, plus one warning per skipped corrupt
    or schema-mismatched line.  A missing file is just zero records. *)
val load : path:string -> record list * Gpu_diag.Diag.t list

type summary = {
  runs : int;
  median_abs_error : float option;  (** of runs that measured *)
  latest_error : float option;
}

val summarize : record list -> summary

(** [Some warning] when the latest run's |error| drifted more than [band]
    (absolute, default 0.05 = five points) above the ledger's median
    |error| — the signal that a model or engine change regressed
    accuracy.  [None] with fewer than 3 measured runs. *)
val regression : ?band:float -> record list -> Gpu_diag.Diag.t option
