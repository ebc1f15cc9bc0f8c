(* The benchmark's entry point: one workload per run.

     main.exe --workload paper-replay|fleet-cold|serve-mix --seed N
              --seconds S --trace 0|1 [--daemon PATH] [--out DIR]
              [--started UNIX_TIME] [--decls BENCHMARK.json]

   Prints its measurements by name and, as its last line, one JSON object
   with the end-to-end metrics (--trace 0) or the per-layer ones
   (--trace 1) that BENCHMARK.json declares.  Exits 1 when an output
   check fails, 2 on bad usage. *)

open Perfbench

let workloads =
  [ ("paper-replay", Paper.run); ("fleet-cold", Fleet.run); ("serve-mix", Serve_mix.run) ]

let usage () =
  prerr_endline
    "usage: main.exe --workload paper-replay|fleet-cold|serve-mix --seed N --seconds S \
     --trace 0|1 [--daemon PATH] [--out DIR] [--started UNIX_TIME] [--decls PATH]";
  exit 2

let record_path out workload = Filename.concat out ("e2e-" ^ workload ^ ".txt")

let save_record path values =
  let oc = open_out path in
  List.iter (fun (n, v) -> Printf.fprintf oc "%s %.17g\n" n v) values;
  close_out oc

let load_record path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
    let rec go acc =
      match input_line ic with
      | line -> (
        match String.split_on_char ' ' line with
        | [ n; v ] -> go (match float_of_string_opt v with Some v -> (n, v) :: acc | None -> acc)
        | _ -> go acc)
      | exception End_of_file -> close_in ic; List.rev acc
    in
    Some (go [])

(* Self time per span name, largest first. *)
let print_self_times tr =
  let all = Spans.spans tr in
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let prev = Option.value ~default:(0., 0) (Hashtbl.find_opt tbl s.Spans.name) in
      Hashtbl.replace tbl s.Spans.name
        (fst prev +. Spans.self_us all s, snd prev + 1))
    all;
  let rows = Hashtbl.fold (fun n (us, c) acc -> (n, us, c) :: acc) tbl [] in
  Common.say "self time by span (ms, count):";
  List.iter
    (fun (n, us, c) -> Common.say "  %-28s %12.3f %6d" n (us /. 1e3) c)
    (List.sort (fun (_, a, _) (_, b, _) -> Float.compare b a) rows)

let () =
  let started = ref (Unix.gettimeofday ()) in
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and traced = ref (-1) in
  let daemon = ref "_build/default/bin/gpuperf.exe" and out = ref ".perfbench" in
  let decls_path = ref "BENCHMARK.json" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int traced, "0|1");
      ("--daemon", Arg.Set_string daemon, "PATH");
      ("--out", Arg.Set_string out, "DIR");
      ("--started", Arg.Set_float started, "UNIX_TIME");
      ("--decls", Arg.Set_string decls_path, "PATH");
    ]
  in
  (try Arg.parse_argv Sys.argv spec (fun _ -> raise (Arg.Bad "positional")) ""
   with Arg.Bad _ | Arg.Help _ -> usage ());
  let run =
    match List.assoc_opt !workload workloads with Some r -> r | None -> usage ()
  in
  if !seed < 0 || !seconds <= 0. || (!traced <> 0 && !traced <> 1) then usage ();
  let declared =
    try Metrics_decl.load !decls_path
    with Failure m ->
      prerr_endline ("perfbench: " ^ m);
      exit 2
  in
  let trace = if !traced = 1 then Some (Spans.create ()) else None in
  let run_dir =
    Filename.concat !out (Printf.sprintf "run-%s-%d" !workload (Unix.getpid ()))
  in
  Host.mkdir_p run_dir;
  Host.fresh_cache (Filename.concat run_dir "cache");
  Common.say "perfbench %s seed=%d seconds=%g trace=%d" !workload !seed !seconds !traced;
  (* The in-process workloads run on one domain: with a second, each
     waits for the other at every minor collection, so a moment in which
     the host slows one CPU stalls both. *)
  Gpu_parallel.Pool.set_jobs 1;
  Common.say "host jobs=1 cpus=%s nproc=%d ocaml=%s" (Host.cpus_allowed ())
    (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  let pace = Pace.create () in
  Pace.start pace;
  let ctx =
    {
      Common.seed = !seed;
      seconds = !seconds;
      trace;
      started = !started;
      run_dir;
      daemon = !daemon;
      pace;
    }
  in
  let t = Common.tally () in
  let ticks = Host.cpu_ticks () in
  let outcome =
    match
      Fun.protect
        ~finally:(fun () ->
          Pace.stop pace;
          Host.rm_rf run_dir)
        (fun () -> run ctx t)
    with
    | o -> o
    | exception e ->
      prerr_endline ("perfbench: " ^ Printexc.to_string e);
      exit 1
  in
  let fastest, median, slowest, n = Pace.summary pace in
  Common.say
    "pace: reference work %.3f ms median, %.3f fastest, %.3f slowest over %d samples (nominal %.3f)"
    median fastest slowest n (Pace.nominal_s *. 1e3);
  (match (ticks, Host.cpu_ticks ()) with
  | Some (steal0, all0), Some (steal1, all1) when all1 > all0 ->
    Common.say "host steal %.1f%% of CPU time during the run"
      (100. *. float_of_int (steal1 - steal0) /. float_of_int (all1 - all0))
  | _ -> ());
  let decls, idle =
    match trace with
    | None -> (declared.Metrics_decl.end_to_end, None)
    | Some _ -> (declared.Metrics_decl.per_layer, Some 0.)
  in
  let selected =
    match Metrics_decl.select ?idle decls outcome.Common.values with
    | s -> s
    | exception Invalid_argument m ->
      prerr_endline ("perfbench: " ^ m);
      exit 1
  in
  let record = record_path !out !workload in
  (match trace with
  | None -> save_record record outcome.Common.values
  | Some tr ->
    let path =
      Filename.concat !out (Printf.sprintf "trace-%s-seed%d.json" !workload !seed)
    in
    Spans.write_perfetto tr path;
    Common.say "trace %s (%d spans, Perfetto JSON)" path (List.length (Spans.spans tr));
    print_self_times tr;
    (match load_record record with
    | None -> Common.say "tracing overhead: no untraced run recorded in %s" !out
    | Some base ->
      List.iter
        (fun (n, v) ->
          match List.assoc_opt n base with
          | Some b ->
            Common.say "tracing overhead %s: traced %.4f - untraced %.4f = %+.4f" n v b (v -. b)
          | None -> ())
        outcome.Common.timed));
  List.iter
    (fun ((d : Metrics_decl.decl), v) ->
      Common.say "metric %-26s %18.6f %-7s (%s is better)%s" d.name v d.unit_ d.better
        (match List.assoc_opt d.name outcome.Common.notes with
        | Some note -> "  " ^ note
        | None -> ""))
    selected;
  Common.say "fail_frac %.6f = %d failed / %d attempted (the result's failed and attempted)"
    (if t.Common.attempted = 0 then 0.
     else float_of_int t.Common.failed /. float_of_int t.Common.attempted)
    t.Common.failed t.Common.attempted;
  let correct = t.Common.problems = [] && t.Common.attempted > 0 in
  if not correct then
    Common.say "%d output checks failed" (List.length t.Common.problems);
  print_endline
    (Metrics_decl.result_line ~correct ~attempted:(max 1 t.Common.attempted)
       ~failed:t.Common.failed selected);
  exit (if correct then 0 else 1)
