(* The model-accuracy ledger: append-only JSONL under the calibration
   cache directory.  Each workflow run that also replayed the timing
   engine appends one record of predicted vs measured time, so accuracy
   drift across code changes is observable instead of anecdotal.

   Design constraints:
   - no wall-clock timestamps: the monotonic run id orders records and
     keeps rendering byte-deterministic for golden tests;
   - corrupt lines skip with a warning (a crashed writer truncates at
     worst one line; the ledger survives);
   - rotation by rename at a line cap bounds the file, and run ids
     continue across it (the rotated file is consulted when the live one
     is empty);
   - an append does not reload the file its own last append left
     untouched: the tail index below remembers what that file holds. *)

module D = Gpu_diag.Diag
module J = Gpu_obs.Json_text

let schema_version = 1

type component = {
  comp : string;
  c_predicted_s : float;
  c_busy_s : float option;
  c_error : float option;
}

type record = {
  schema : int;
  run : int;
  workload : string;
  fingerprint : string;
  spec_name : string;
  git : string;
  host : string;
  grid : int;
  block : int;
  predicted_s : float;
  measured_s : float option;
  error : float option;
  components : component list;
  trace_id : string option;
      (* serve-path records carry the request's trace id; CLI records
         none.  Additive and optional, so schema stays 1. *)
}

let default_path ~workload =
  Option.map
    (fun dir -> Filename.concat (Filename.concat dir "ledger")
        (workload ^ ".jsonl"))
    (Gpu_microbench.Calib_cache.dir ())

(* --- environment stamps ------------------------------------------------- *)

let git_describe () =
  match
    Unix.open_process_in "git describe --always --dirty 2>/dev/null"
  with
  | exception _ -> "unknown"
  | ic -> (
    let line = try String.trim (input_line ic) with End_of_file -> "" in
    match Unix.close_process_in ic with
    | Unix.WEXITED 0 when line <> "" -> line
    | _ | (exception _) -> "unknown")

let hostname () = try Unix.gethostname () with _ -> "unknown"

let environment () = (git_describe (), hostname ())

(* --- building a record from a report ------------------------------------ *)

let relative_error ~predicted ~measured =
  match measured with
  | Some m when m > 0.0 -> Some ((predicted -. m) /. m)
  | Some _ | None -> None

let of_report ?git ?host ?trace_id ~workload (r : Gpu_model.Workflow.report) =
  let a = r.analysis in
  let spec = a.Gpu_model.Model.spec in
  let fingerprint =
    Digest.to_hex
      (Digest.string
         (String.concat "\x00"
            [
              Gpu_hw.Spec.canonical spec;
              r.kernel_name;
              string_of_int r.launch.grid;
              string_of_int r.launch.block;
            ]))
  in
  (* Per-component "measured" time: the engine's busy cycles averaged
     over the units it simulated, on the core clock — the engine-side
     analog of the model's per-component charge. *)
  let clock_hz = spec.Gpu_hw.Spec.core_clock_ghz *. 1e9 in
  let busy cycles units =
    Option.map
      (fun (m : Gpu_timing.Engine.result) ->
        float_of_int (cycles m) /. float_of_int (max 1 (units m))
        /. clock_hz)
      r.measured
  in
  let totals = a.Gpu_model.Model.totals in
  let comp name predicted busy_s =
    {
      comp = name;
      c_predicted_s = predicted;
      c_busy_s = busy_s;
      c_error = relative_error ~predicted ~measured:busy_s;
    }
  in
  let predicted_s = a.Gpu_model.Model.predicted_seconds in
  let measured_s = Gpu_model.Workflow.measured_seconds r in
  {
    schema = schema_version;
    run = 0;
    workload;
    fingerprint;
    spec_name = spec.Gpu_hw.Spec.name;
    git = (match git with Some g -> g | None -> git_describe ());
    host = (match host with Some h -> h | None -> hostname ());
    grid = r.launch.grid;
    block = r.launch.block;
    predicted_s;
    measured_s;
    error = relative_error ~predicted:predicted_s ~measured:measured_s;
    components =
      [
        comp "instruction" totals.Gpu_model.Component.instruction
          (busy
             (fun m -> m.Gpu_timing.Engine.alu_busy_cycles)
             (fun m -> m.Gpu_timing.Engine.sms_simulated));
        comp "shared" totals.Gpu_model.Component.shared
          (busy
             (fun m -> m.Gpu_timing.Engine.smem_busy_cycles)
             (fun m -> m.Gpu_timing.Engine.sms_simulated));
        comp "atomic" totals.Gpu_model.Component.atomic
          (busy
             (fun m -> m.Gpu_timing.Engine.atomic_busy_cycles)
             (fun m -> m.Gpu_timing.Engine.sms_simulated));
        comp "global" totals.Gpu_model.Component.global
          (busy
             (fun m -> m.Gpu_timing.Engine.gmem_busy_cycles)
             (fun m -> m.Gpu_timing.Engine.clusters_simulated));
      ];
    trace_id;
  }

(* --- JSON ---------------------------------------------------------------- *)

let opt_number = function Some v -> J.number v | None -> "null"

let to_json r =
  let b = Buffer.create 256 in
  let field ?(first = false) k v =
    if not first then Buffer.add_char b ',';
    Buffer.add_string b (J.quoted k);
    Buffer.add_char b ':';
    Buffer.add_string b v
  in
  Buffer.add_char b '{';
  field ~first:true "schema" (string_of_int r.schema);
  field "run" (string_of_int r.run);
  field "workload" (J.quoted r.workload);
  field "fingerprint" (J.quoted r.fingerprint);
  field "spec" (J.quoted r.spec_name);
  field "git" (J.quoted r.git);
  field "host" (J.quoted r.host);
  field "grid" (string_of_int r.grid);
  field "block" (string_of_int r.block);
  field "predicted_s" (J.number r.predicted_s);
  field "measured_s" (opt_number r.measured_s);
  field "error" (opt_number r.error);
  (match r.trace_id with
  | Some t -> field "trace_id" (J.quoted t)
  | None -> ());
  field "components"
    ("["
    ^ String.concat ","
        (List.map
           (fun c ->
             Printf.sprintf
               "{%s:%s,%s:%s,%s:%s,%s:%s}" (J.quoted "comp")
               (J.quoted c.comp)
               (J.quoted "predicted_s")
               (J.number c.c_predicted_s)
               (J.quoted "busy_s") (opt_number c.c_busy_s)
               (J.quoted "error") (opt_number c.c_error))
           r.components)
    ^ "]");
  Buffer.add_char b '}';
  Buffer.contents b

let of_json_line line =
  let ( let* ) = Option.bind in
  let* v = Result.to_option (Jsonx.parse line) in
  let* schema = Option.bind (Jsonx.member "schema" v) Jsonx.to_int in
  if schema <> schema_version then None
  else
    let* run = Option.bind (Jsonx.member "run" v) Jsonx.to_int in
    let* workload =
      Option.bind (Jsonx.member "workload" v) Jsonx.to_string
    in
    let* fingerprint =
      Option.bind (Jsonx.member "fingerprint" v) Jsonx.to_string
    in
    let* spec_name = Option.bind (Jsonx.member "spec" v) Jsonx.to_string in
    let* git = Option.bind (Jsonx.member "git" v) Jsonx.to_string in
    let* host = Option.bind (Jsonx.member "host" v) Jsonx.to_string in
    let* grid = Option.bind (Jsonx.member "grid" v) Jsonx.to_int in
    let* block = Option.bind (Jsonx.member "block" v) Jsonx.to_int in
    let* predicted_s =
      Option.bind (Jsonx.member "predicted_s" v) Jsonx.to_float
    in
    let opt_f k = Option.bind (Jsonx.member k v) Jsonx.to_float in
    let components =
      match Option.bind (Jsonx.member "components" v) Jsonx.to_list with
      | None -> []
      | Some l ->
        List.filter_map
          (fun c ->
            let* comp = Option.bind (Jsonx.member "comp" c) Jsonx.to_string in
            let* c_predicted_s =
              Option.bind (Jsonx.member "predicted_s" c) Jsonx.to_float
            in
            Some
              {
                comp;
                c_predicted_s;
                c_busy_s = Option.bind (Jsonx.member "busy_s" c) Jsonx.to_float;
                c_error = Option.bind (Jsonx.member "error" c) Jsonx.to_float;
              })
          l
    in
    Some
      {
        schema;
        run;
        workload;
        fingerprint;
        spec_name;
        git;
        host;
        grid;
        block;
        predicted_s;
        measured_s = opt_f "measured_s";
        error = opt_f "error";
        components;
        trace_id = Option.bind (Jsonx.member "trace_id" v) Jsonx.to_string;
      }

(* --- file I/O ------------------------------------------------------------ *)

let read_lines path =
  if not (Sys.file_exists path) then []
  else
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec go acc =
          match input_line ic with
          | line -> go (line :: acc)
          | exception End_of_file -> List.rev acc
        in
        go [])

let load ~path =
  let lines = read_lines path in
  let records = ref [] in
  let warnings = ref [] in
  List.iteri
    (fun i line ->
      if String.trim line <> "" then
        match of_json_line line with
        | Some r -> records := r :: !records
        | None ->
          warnings :=
            D.make
              ~location:(D.Line (i + 1))
              D.Warning D.Model
              (Printf.sprintf
                 "ledger %s: skipping corrupt or incompatible record" path)
            :: !warnings)
    lines;
  (List.rev !records, List.rev !warnings)

let rec mkdir_p dir =
  if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
  then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let last_run records =
  List.fold_left (fun acc r -> max acc r.run) 0 records

(* --- the tail index ------------------------------------------------------ *)

(* What this process's last append to a path left there: the file's
   identity after the write, and its valid-record count and largest run
   id as [load] would find them.  The entry keeps the file open, which
   pins its inode: a file deleted and recreated at the path cannot reuse
   the inode number while the entry lives, so an equal device and inode
   mean the same file, and an equal size and mtime mean nothing was
   appended to it since. *)
type tail = {
  fd : Unix.file_descr;  (** open for appending *)
  dev : int;
  ino : int;
  size : int;
  mtime : float;
  count : int;
  last : int;
}

let tails : (string, tail) Hashtbl.t = Hashtbl.create 8
let tails_lock = Mutex.create ()

(* A process appends to a handful of ledgers (one per workload label);
   past this many paths the index starts over rather than hold more
   descriptors. *)
let max_tails = 32

let close_noerr fd = try Unix.close fd with Unix.Unix_error _ -> ()

let unchanged path t =
  match Unix.stat path with
  | st ->
    st.Unix.st_dev = t.dev && st.Unix.st_ino = t.ino
    && st.Unix.st_size = t.size && st.Unix.st_mtime = t.mtime
  | exception Unix.Unix_error _ -> false

(* The live file as the next append needs it: valid-record count,
   largest run id (0 without a valid record), size in bytes, and whether
   it ends a line, which an empty file does.  One that does not ends in a
   torn line, which the append ends before writing its record. *)
type live = { l_count : int; l_last : int; l_size : int; ends_line : bool }

let load_live path =
  (* The size is taken before the load: a writer appending in between
     makes the size check after our write fail, never pass. *)
  let size =
    match Unix.stat path with
    | st -> st.Unix.st_size
    | exception Unix.Unix_error _ -> 0
  in
  let records, _ = load ~path in
  let ends_line =
    size = 0
    ||
    try
      In_channel.with_open_bin path (fun ic ->
          In_channel.seek ic (Int64.of_int (size - 1));
          In_channel.input_char ic = Some '\n')
    with Sys_error _ -> false
  in
  { l_count = List.length records; l_last = last_run records; l_size = size;
    ends_line }

let append ?(max_records = 512) ~path record =
  try
    Mutex.protect tails_lock @@ fun () ->
    mkdir_p (Filename.dirname path);
    (* The entry leaves the table while this append runs; its descriptor
       is closed below or goes back in a new entry. *)
    let cached = Hashtbl.find_opt tails path in
    Hashtbl.remove tails path;
    let live, kept =
      match cached with
      | Some t when unchanged path t ->
        ( { l_count = t.count; l_last = t.last; l_size = t.size;
            ends_line = true },
          Some t.fd )
      | _ ->
        Option.iter (fun t -> close_noerr t.fd) cached;
        (load_live path, None)
    in
    (* Run ids survive rotation: an empty live file falls back on the
       rotated one for the last id. *)
    let prior =
      if live.l_count > 0 then live.l_last
      else
        let rotated, _ = load ~path:(path ^ ".1") in
        last_run rotated
    in
    let live, kept =
      if live.l_count >= max_records then begin
        Option.iter close_noerr kept;
        Sys.rename path (path ^ ".1");
        ({ l_count = 0; l_last = 0; l_size = 0; ends_line = true }, None)
      end
      else (live, kept)
    in
    let fd =
      match kept with
      | Some fd -> fd
      | None ->
        Unix.openfile path
          [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
          0o644
    in
    let record = { record with run = prior + 1 } in
    let json = to_json record in
    (* After a torn last line (a writer that died mid-record) the record
       starts a line of its own: glued to the torn one, it would read back
       as one corrupt line, and the next append would reuse its run id. *)
    let line = (if live.ends_line then "" else "\n") ^ json ^ "\n" in
    let st =
      match
        ignore (Unix.write_substring fd line 0 (String.length line));
        Unix.fstat fd
      with
      | st -> st
      | exception e ->
        close_noerr fd;
        raise e
    in
    (* Keep the entry only when the file is exactly the one [live]
       described plus this line, and the line reads back as a record, so
       the entry agrees with what [load] would find. *)
    (match of_json_line json with
    | Some written when st.Unix.st_size = live.l_size + String.length line ->
      if Hashtbl.length tails >= max_tails then begin
        Hashtbl.iter (fun _ t -> close_noerr t.fd) tails;
        Hashtbl.reset tails
      end;
      Hashtbl.replace tails path
        {
          fd;
          dev = st.Unix.st_dev;
          ino = st.Unix.st_ino;
          size = st.Unix.st_size;
          mtime = st.Unix.st_mtime;
          count = live.l_count + 1;
          last = max live.l_last written.run;
        }
    | Some _ | None -> close_noerr fd);
    Ok record
  with
  | Sys_error m ->
    Error
      (D.make D.Warning D.Model
         ~hint:"set GPUPERF_CACHE_DIR to a writable directory"
         (Printf.sprintf "ledger %s: cannot append (%s)" path m))
  | Unix.Unix_error (e, _, arg) ->
    Error
      (D.make D.Warning D.Model
         ~hint:"set GPUPERF_CACHE_DIR to a writable directory"
         (Printf.sprintf "ledger %s: cannot append (%s: %s)" path
            (Unix.error_message e) arg))

(* --- summaries ----------------------------------------------------------- *)

type summary = {
  runs : int;
  median_abs_error : float option;
  latest_error : float option;
}

let median = function
  | [] -> None
  | l ->
    let a = Array.of_list l in
    Array.sort compare a;
    let n = Array.length a in
    Some
      (if n mod 2 = 1 then a.(n / 2)
       else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0)

let summarize records =
  let errors =
    List.filter_map (fun r -> Option.map Float.abs r.error) records
  in
  let latest_error =
    match List.rev records with
    | [] -> None
    | r :: _ -> r.error
  in
  { runs = List.length records; median_abs_error = median errors;
    latest_error }

let regression ?(band = 0.05) records =
  let measured = List.filter (fun r -> r.error <> None) records in
  if List.length measured < 3 then None
  else
    let s = summarize records in
    match (s.median_abs_error, s.latest_error) with
    | Some med, Some latest when Float.abs latest > med +. band ->
      Some
        (D.make D.Warning D.Model
           ~hint:
             "a model or engine change likely shifted accuracy; compare \
              the per-component errors of the last two ledger records"
           (Printf.sprintf
              "model accuracy regressed: latest error %+.1f%% vs ledger \
               median |error| %.1f%% (band %.0f points, %d runs)"
              (100.0 *. latest) (100.0 *. med) (100.0 *. band) s.runs))
    | _ -> None
