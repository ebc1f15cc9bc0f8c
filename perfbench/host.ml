(* Host-side measurements and the run's private directories. *)

let now () = Unix.gettimeofday ()

(* VmHWM of a process from /proc, in MB (1 MB = 2^20 bytes). *)
let peak_rss_mb ?(pid = "self") () =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
            (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> failwith "VmHWM not found"
      in
      find ())

(* User + system CPU seconds of this process. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* User + system CPU seconds of another process (fields 14 and 15 of
   /proc/<pid>/stat, in clock ticks of 1/100 s). *)
let proc_cpu_s pid =
  let ic = open_in (Printf.sprintf "/proc/%d/stat" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let line = input_line ic in
      (* the command name may hold spaces; fields resume after ')' *)
      let rest =
        let i = String.rindex line ')' in
        String.sub line (i + 2) (String.length line - i - 2)
      in
      let f = Array.of_list (String.split_on_char ' ' rest) in
      (* [rest] starts at field 3 *)
      float_of_int (int_of_string f.(11) + int_of_string f.(12)) /. 100.)

(* Steal and total CPU ticks of the whole host, from the first line of
   /proc/stat ([None] where it cannot be read).  Steal is time a virtual
   machine's CPUs were ready to run but not given a physical CPU: on a
   shared host it is the main source of run-to-run noise. *)
let cpu_ticks () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | Some line -> (
    match List.filter (( <> ) "") (String.split_on_char ' ' line) with
    | "cpu" :: user :: nice :: system :: idle :: iowait :: irq :: softirq :: steal :: _ ->
      let ticks = List.map int_of_string [ user; nice; system; idle; iowait; irq; softirq; steal ] in
      Some (int_of_string steal, List.fold_left ( + ) 0 ticks)
    | _ -> None)
  | None -> None
  | exception (Sys_error _ | Failure _) -> None

(* The CPUs this process may run on, as /proc/self/status lists them. *)
let cpus_allowed () =
  match
    In_channel.with_open_text "/proc/self/status" (fun ic ->
        let rec find () =
          match In_channel.input_line ic with
          | Some l when String.starts_with ~prefix:"Cpus_allowed_list:" l ->
            String.trim (String.sub l 18 (String.length l - 18))
          | Some _ -> find ()
          | None -> "?"
        in
        find ())
  with
  | s -> s
  | exception Sys_error _ -> "?"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

(* Point the calibration cache (and the serve ledger under it) at a fresh
   empty directory; the library re-reads the variable on every lookup. *)
let fresh_cache dir =
  rm_rf dir;
  mkdir_p dir;
  Unix.putenv "GPUPERF_CACHE_DIR" dir

let counter name =
  Option.value ~default:0
    (List.assoc_opt name (Gpu_obs.Metrics.snapshot_counters ()))

let ms_of_s s = s *. 1e3

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)
