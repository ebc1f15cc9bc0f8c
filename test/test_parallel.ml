(* Tests for the domain pool and the calibration cache: deterministic
   result ordering, exception funneling, the single-flight [Memo] table,
   bit-identical serial vs parallel calibration, single-flight
   global-memory memoization, and the on-disk cache round-trip with
   fingerprint/corruption rejection. *)

module Pool = Gpu_parallel.Pool
module Memo = Gpu_parallel.Memo
module Tables = Gpu_microbench.Tables
module Calib_cache = Gpu_microbench.Calib_cache
module Spec = Gpu_hw.Spec
module I = Gpu_isa.Instr
module Diag = Gpu_diag.Diag

let cache_dir = Private_cache.use "parallel"

let spec = Spec.gtx285

(* Run [f] on a pool of [n] jobs, then restore the job count. *)
let with_jobs n f =
  let jobs = Pool.current_jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs jobs) f

(* --- pool ----------------------------------------------------------------- *)

let test_init_matches_serial () =
  let f i = (i * 7919) mod 104729 in
  List.iter
    (fun jobs ->
      Alcotest.(check (array int))
        (Printf.sprintf "parallel_init jobs=%d" jobs)
        (Array.init 100 f)
        (Pool.parallel_init ~jobs 100 f))
    [ 1; 2; 4; 7 ]

let test_map_preserves_order () =
  let xs = List.init 57 (fun i -> i) in
  Alcotest.(check (list int))
    "parallel_map order" (List.map succ xs)
    (Pool.parallel_map ~jobs:4 succ xs)

let test_empty_and_tiny () =
  Alcotest.(check (list int)) "empty" [] (Pool.parallel_map ~jobs:4 succ []);
  Alcotest.(check (array int))
    "singleton" [| 42 |]
    (Pool.parallel_init ~jobs:4 1 (fun _ -> 42))

exception Boom of int

let test_exception_propagates () =
  Alcotest.check_raises "worker exception reaches caller" (Boom 13)
    (fun () ->
      ignore
        (Pool.parallel_init ~jobs:4 64 (fun i ->
             if i = 13 then raise (Boom 13) else i)));
  (* the pool must still be usable afterwards *)
  Alcotest.(check (array int))
    "pool survives a failed batch"
    (Array.init 16 (fun i -> i))
    (Pool.parallel_init ~jobs:4 16 (fun i -> i))

let test_nested_calls () =
  let grids =
    Pool.parallel_map ~jobs:4
      (fun n -> Pool.parallel_init n (fun i -> (n * 100) + i))
      [ 3; 5; 2 ]
  in
  Alcotest.(check (list (array int)))
    "nested parallel calls run inline"
    [
      Array.init 3 (fun i -> 300 + i);
      Array.init 5 (fun i -> 500 + i);
      Array.init 2 (fun i -> 200 + i);
    ]
    grids

(* A funneled exception must not leak worker domains or queue slots: the
   pool after a failed batch is indistinguishable from a fresh one. *)
let test_no_leaks_after_exception () =
  (* Materialize the pool and record its steady state. *)
  ignore (Pool.parallel_init ~jobs:4 32 (fun i -> i));
  let workers = Pool.worker_count () in
  (try
     ignore
       (Pool.parallel_init ~jobs:4 64 (fun i ->
            if i mod 5 = 0 then raise (Boom i) else i))
   with Boom _ -> ());
  Alcotest.(check int)
    "no worker domains lost or spawned" workers (Pool.worker_count ());
  Alcotest.(check int) "no queue slots left behind" 0 (Pool.queue_length ());
  Alcotest.(check (array int))
    "pool still computes correctly"
    (Array.init 48 (fun i -> i * 3))
    (Pool.parallel_init ~jobs:4 48 (fun i -> i * 3))

(* Regression for a batch leaving its unclaimed helper entries queued
   after it returned.  The interleaving is forced: every worker is parked
   on a latch, so the caller drains the whole batch alone and no helper
   entry is ever claimed; [run] must withdraw them before returning. *)
let test_unclaimed_helpers_withdrawn () =
  let jobs = Pool.current_jobs () in
  Pool.set_jobs 3;
  ignore (Pool.parallel_init 2 Fun.id);
  let workers = Pool.worker_count () in
  let parked = Atomic.make 0 and release = Atomic.make false in
  let finally () =
    Atomic.set release true;
    ignore (Pool.drain_async ~timeout_s:10.0 ());
    Pool.set_jobs jobs
  in
  Fun.protect ~finally @@ fun () ->
  for _ = 1 to workers do
    Pool.async (fun () ->
        Atomic.incr parked;
        while not (Atomic.get release) do
          Unix.sleepf 0.001
        done)
  done;
  let deadline = Unix.gettimeofday () +. 10.0 in
  while Atomic.get parked < workers && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.001
  done;
  Alcotest.(check int) "every worker parked" workers (Atomic.get parked);
  Alcotest.(check (array int))
    "caller computes the batch alone"
    (Array.init 64 (fun i -> i * i))
    (Pool.parallel_init 64 (fun i -> i * i));
  Alcotest.(check int) "no helper entries left queued" 0 (Pool.queue_length ());
  Atomic.set release true;
  Alcotest.(check bool) "parked tasks drain" true (Pool.drain_async ())

let test_async_drain () =
  let hits = Atomic.make 0 in
  for _ = 1 to 20 do
    Pool.async (fun () -> Atomic.incr hits)
  done;
  Alcotest.(check bool) "drain completes" true (Pool.drain_async ());
  Alcotest.(check int) "every task ran" 20 (Atomic.get hits);
  Alcotest.(check int) "nothing pending" 0 (Pool.pending_async ());
  Alcotest.(check int) "queue empty" 0 (Pool.queue_length ())

let test_async_swallows_exceptions () =
  let after = Atomic.make 0 in
  Pool.async (fun () -> failwith "async task crash");
  Pool.async (fun () -> Atomic.incr after);
  Alcotest.(check bool) "drain completes" true (Pool.drain_async ());
  Alcotest.(check int) "later task still ran" 1 (Atomic.get after);
  (* and the pool remains usable for synchronous batches *)
  Alcotest.(check (list int))
    "pool alive" [ 2; 4; 6 ]
    (Pool.parallel_map ~jobs:2 (fun x -> 2 * x) [ 1; 2; 3 ])

(* A task whose failure warning cannot be written (the default log sink
   is on a full disk) must still finish: no exception escapes into the
   worker, and the drain sees it done. *)
let test_async_unwritable_log () =
  if not (Sys.file_exists "/dev/full") then Alcotest.skip ();
  let module Log = Gpu_obs.Log in
  (* the sink is left open: its unflushable line would fail a close *)
  Log.set_default (Some (Log.open_file "/dev/full"));
  Fun.protect ~finally:(fun () -> Log.set_default None) @@ fun () ->
  Pool.async (fun () -> failwith "async task crash");
  Alcotest.(check bool) "drain completes" true
    (Pool.drain_async ~timeout_s:2.0 ());
  Alcotest.(check int) "nothing pending" 0 (Pool.pending_async ())

let test_drain_timeout () =
  let release = Atomic.make false in
  Pool.async (fun () -> while not (Atomic.get release) do Unix.sleepf 0.002 done);
  Alcotest.(check bool)
    "timed-out drain reports false" false
    (Pool.drain_async ~timeout_s:0.05 ());
  Atomic.set release true;
  Alcotest.(check bool) "then drains fully" true (Pool.drain_async ())

let test_memo_once () =
  let calls = Atomic.make 0 in
  let m =
    Memo.once (fun () ->
        Atomic.incr calls;
        (* give contenders a window to pile up on the memo *)
        ignore (Pool.parallel_init ~jobs:2 64 (fun i -> i * i));
        1729)
  in
  let values = Pool.parallel_map ~jobs:4 (fun _ -> m ()) [ (); (); (); () ] in
  Alcotest.(check (list int)) "all callers see the value" [ 1729; 1729; 1729; 1729 ] values;
  Alcotest.(check int) "body ran once" 1 (Atomic.get calls);
  let attempts = ref 0 in
  let flaky =
    Memo.once (fun () ->
        incr attempts;
        if !attempts = 1 then raise (Boom 1) else !attempts)
  in
  Alcotest.check_raises "a failure reaches its caller" (Boom 1) (fun () ->
      ignore (flaky ()));
  Alcotest.(check int) "and is retried, not cached" 2 (flaky ());
  Alcotest.(check int) "then the value is shared" 2 (flaky ())

(* --- the keyed single-flight table ------------------------------------------

   Every wait below goes through [Watchdog]: a domain stuck on a lock
   fails its test after 2 s instead of hanging the suite. *)

(* A latch a computation parks on, so a test can hold it in flight. *)
let park started release =
  Atomic.set started true;
  if not (Watchdog.wait_until ~timeout:10.0 (fun () -> Atomic.get release))
  then failwith "latch never released"

let test_memo_one_per_key () =
  let keys = 16 in
  let counts = Array.init keys (fun _ -> Atomic.make 0) in
  let t = Memo.create () in
  let f k =
    Atomic.incr counts.(k);
    Unix.sleepf 0.001 (* a window for the other domains to pile up *);
    k * k
  in
  let racers =
    List.init 4 (fun d ->
        Watchdog.spawn (fun () ->
            List.init keys (fun i ->
                let k = (i + (d * 5)) mod keys in
                (k, Memo.get t k f))))
  in
  List.iteri
    (fun d r ->
      List.iter
        (fun (k, v) -> Alcotest.(check int) "value" (k * k) v)
        (Watchdog.await_ok (Printf.sprintf "racer %d" d) r))
    racers;
  Array.iteri
    (fun k c ->
      Alcotest.(check int) (Printf.sprintf "key %d computed once" k) 1
        (Atomic.get c))
    counts

let test_memo_failure_retried () =
  let t = Memo.create () in
  let attempts = Atomic.make 0 in
  let started = Atomic.make false and release = Atomic.make false in
  let f _ =
    if Atomic.fetch_and_add attempts 1 = 0 then begin
      park started release;
      raise (Boom 1)
    end
    else 42
  in
  let first = Watchdog.spawn (fun () -> Memo.get t "k" f) in
  Alcotest.(check bool) "first computation started" true
    (Watchdog.wait_until (fun () -> Atomic.get started));
  let waiter = Watchdog.spawn (fun () -> Memo.get t "k" f) in
  Unix.sleepf 0.05 (* let the waiter block on the running computation *);
  Atomic.set release true;
  (match Watchdog.await "failing computation" first with
  | Error (Boom 1) -> ()
  | Error e -> Alcotest.failf "unexpected %s" (Printexc.to_string e)
  | Ok _ -> Alcotest.fail "the failing computation returned");
  Alcotest.(check int) "the waiter retries" 42
    (Watchdog.await_ok "waiter" waiter);
  Alcotest.(check int) "the retry is then shared" 42
    (Memo.get t "k" (fun _ -> Alcotest.fail "recomputed"));
  Alcotest.(check int) "two attempts in all" 2 (Atomic.get attempts)

let test_memo_clear_in_flight () =
  let t = Memo.create () in
  let started = Atomic.make false and release = Atomic.make false in
  let slow =
    Watchdog.spawn (fun () ->
        Memo.get t 1 (fun _ ->
            park started release;
            "one"))
  in
  Alcotest.(check bool) "computation started" true
    (Watchdog.wait_until (fun () -> Atomic.get started));
  (match Watchdog.run "clear" (fun () -> Memo.clear t) with
  | Error (Invalid_argument _) -> ()
  | Error e -> Alcotest.failf "clear raised %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "clear during a computation succeeded");
  Alcotest.(check (list (pair int string))) "nothing finished yet" []
    (Memo.finished t);
  Atomic.set release true;
  Alcotest.(check string) "the computation completes" "one"
    (Watchdog.await_ok "in-flight computation" slow);
  Alcotest.(check string) "and is shared" "one"
    (Watchdog.await_ok "lookup"
       (Watchdog.spawn (fun () -> Memo.get t 1 (fun _ -> "again"))));
  Memo.clear t;
  Alcotest.(check string) "a cleared table computes afresh" "again"
    (Memo.get t 1 (fun _ -> "again"))

let test_memo_seed_and_snapshot () =
  let t = Memo.create ~seed:[ (1, "a"); (2, "b") ] () in
  Alcotest.(check string) "seeded entries are finished" "a"
    (Memo.get t 1 (fun _ -> Alcotest.fail "seeded key recomputed"));
  Alcotest.(check string) "a miss computes" "c" (Memo.get t 3 (fun _ -> "c"));
  let published = ref None in
  let on_fresh v = published := Some (v, List.assoc_opt 4 (Memo.finished t)) in
  ignore (Memo.get t 4 ~on_fresh (fun _ -> "d"));
  Alcotest.(check (option (pair string (option string))))
    "on_fresh runs after its value is published" (Some ("d", Some "d"))
    !published;
  ignore
    (Memo.get t 4
       ~on_fresh:(fun _ -> Alcotest.fail "a hit ran on_fresh")
       (fun _ -> "d"));
  Alcotest.(check (list (pair int string)))
    "snapshot of the finished entries"
    [ (1, "a"); (2, "b"); (3, "c"); (4, "d") ]
    (List.sort compare (Memo.finished t))

(* Clearing the per-spec tables while a calibration is in flight raises,
   and must leave that calibration and later lookups working.  The first
   calibration diagnostic parks the calibrating domain, so the clear
   lands mid-calibration. *)
let test_tables_clear_in_flight () =
  Tables.clear_process_cache ();
  Tables.set_disk_cache false;
  let started = Atomic.make false and release = Atomic.make false in
  Tables.set_on_diag (fun _ ->
      if not (Atomic.get started) then park started release);
  Fun.protect
    ~finally:(fun () ->
      Atomic.set release true;
      Tables.set_on_diag (fun _ -> ());
      Tables.set_disk_cache true)
  @@ fun () ->
  let calibrating = Watchdog.spawn (fun () -> Tables.for_spec spec) in
  Alcotest.(check bool) "calibration started" true
    (Watchdog.wait_until (fun () -> Atomic.get started));
  (match Watchdog.run "clear_process_cache" Tables.clear_process_cache with
  | Error (Invalid_argument _) -> ()
  | Error e -> Alcotest.failf "clear raised %s" (Printexc.to_string e)
  | Ok () -> Alcotest.fail "clear during a calibration succeeded");
  Atomic.set release true;
  let t = Watchdog.await_ok "in-flight for_spec" calibrating in
  let t' = Watchdog.await_ok "later for_spec" (Watchdog.spawn (fun () ->
      Tables.for_spec spec)) in
  Alcotest.(check bool) "the later call shares the calibration" true (t == t');
  (* this calibration never reached the disk: later tests start cold *)
  Tables.clear_process_cache ()

(* --- job-count validation (one validator for --jobs and GPUPERF_JOBS) ---- *)

let test_parse_jobs () =
  List.iter
    (fun (s, expect) ->
      match Pool.parse_jobs s with
      | Ok n -> Alcotest.(check int) ("parse_jobs " ^ s) expect n
      | Error m -> Alcotest.failf "parse_jobs rejected %S: %s" s m)
    [ ("1", 1); ("4", 4); ("64", 64) ];
  List.iter
    (fun s ->
      match Pool.parse_jobs s with
      | Ok n -> Alcotest.failf "parse_jobs accepted %S as %d" s n
      | Error _ -> ())
    [ "0"; "-3"; ""; "bogus"; "2.5"; "1e3" ]

(* The CLI must reject an invalid job count identically whether it comes
   from --jobs or from GPUPERF_JOBS: usage error, exit 2, before any
   calibration starts.  Regression: --jobs 0 used to exit 1 (a late Cli
   diagnostic) and an invalid GPUPERF_JOBS was silently ignored. *)
let gpuperf_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "gpuperf.exe"))

let run_gpuperf ?(env = "") args =
  Sys.command
    (Printf.sprintf "%s %s %s >/dev/null 2>&1" env gpuperf_exe args)

let test_cli_jobs_flag () =
  Alcotest.(check int) "--jobs 0 is a usage error" 2
    (run_gpuperf "microbench --jobs 0");
  Alcotest.(check int) "--jobs -3 is a usage error" 2
    (run_gpuperf "microbench --jobs=-3");
  Alcotest.(check int) "-j bogus is a usage error" 2
    (run_gpuperf "check -j bogus")

let test_cli_jobs_env () =
  Alcotest.(check int) "GPUPERF_JOBS=0 is a usage error" 2
    (run_gpuperf ~env:"GPUPERF_JOBS=0" "microbench");
  Alcotest.(check int) "GPUPERF_JOBS=bogus is a usage error" 2
    (run_gpuperf ~env:"GPUPERF_JOBS=bogus" "microbench");
  (* A valid env value must be accepted: this run fails later in the
     toolchain (bad tile -> analysis diagnostic, exit 1, before any
     calibration), proving the env var passed validation. *)
  Alcotest.(check int) "GPUPERF_JOBS=2 is accepted" 1
    (run_gpuperf ~env:"GPUPERF_JOBS=2" "analyze matmul --tile 7")

(* --- calibration determinism --------------------------------------------- *)

let check_tables_identical msg a b =
  List.iter
    (fun cls ->
      for w = 1 to Tables.max_warps do
        let x = Tables.instr_throughput a cls ~warps:w in
        let y = Tables.instr_throughput b cls ~warps:w in
        if x <> y then
          Alcotest.failf "%s: %s at %d warps: %h <> %h" msg
            (I.cost_class_name cls) w x y
      done)
    Tables.arithmetic_classes;
  for w = 1 to Tables.max_warps do
    let x = Tables.smem_bandwidth a ~warps:w in
    let y = Tables.smem_bandwidth b ~warps:w in
    if x <> y then Alcotest.failf "%s: smem at %d warps: %h <> %h" msg w x y
  done

let test_serial_parallel_identical () =
  let serial = with_jobs 1 (fun () -> Tables.build spec) in
  let parallel = with_jobs 4 (fun () -> Tables.build spec) in
  check_tables_identical "serial vs parallel calibration" serial parallel

let test_gmem_single_flight () =
  let t = with_jobs 1 (fun () -> Tables.build spec) in
  let before = (Tables.counters ()).Tables.gmem_measurements in
  let query () =
    Tables.gmem_bandwidth t ~blocks:3 ~threads:64 ~txns_per_thread:4
  in
  let domains = List.init 4 (fun _ -> Domain.spawn query) in
  let results = List.map Domain.join domains in
  let after = (Tables.counters ()).Tables.gmem_measurements in
  Alcotest.(check int) "concurrent misses measure once" 1 (after - before);
  (match results with
  | r :: rest ->
    List.iter
      (fun r' -> Alcotest.(check (float 0.0)) "all callers agree" r r')
      rest
  | [] -> assert false);
  Alcotest.(check (float 0.0))
    "memo hit returns the same value" (List.hd results) (query ());
  Alcotest.(check int)
    "hit does not re-measure" (after - before)
    ((Tables.counters ()).Tables.gmem_measurements - before)

(* --- on-disk cache -------------------------------------------------------- *)

let payload =
  {
    Calib_cache.instr =
      [| [| 1.5; 2.25 |]; [| 0.1; 1e-3 |]; [| 3.0; 4.0 |]; [| 5.5; 6.5 |] |];
    smem = [| 0x1.91eb851eb851fp+7; 186.5 |];
    gmem = [ ((1, 64, 4), 12.75); ((30, 512, 256), 127.125) ];
  }

let fp = Calib_cache.fingerprint ~constants:"test-constants v1" spec

let roundtrip_path = Filename.concat cache_dir "roundtrip.txt"

(* --- transient-failure retries ------------------------------------------- *)

let test_retrying_transient () =
  let failures = ref 2 and calls = ref 0 and warnings = ref [] in
  let v =
    Calib_cache.retrying
      ~on_retry:(fun d -> warnings := d :: !warnings)
      ~what:"read" ~path:"/tmp/x"
      (fun () ->
        incr calls;
        if !failures > 0 then begin
          decr failures;
          raise (Unix.Unix_error (Unix.EINTR, "read", "/tmp/x"))
        end;
        1729)
  in
  Alcotest.(check int) "eventually succeeds" 1729 v;
  Alcotest.(check int) "two failures + one success" 3 !calls;
  Alcotest.(check int) "one warning per retry" 2 (List.length !warnings);
  List.iter
    (fun d ->
      Alcotest.(check bool)
        "retry diag is a Cache warning" true
        (d.Diag.severity = Diag.Warning && d.Diag.stage = Diag.Cache))
    !warnings

let test_retrying_exhausted () =
  let calls = ref 0 in
  Alcotest.check_raises "persistent EAGAIN re-raises"
    (Unix.Unix_error (Unix.EAGAIN, "write", "p"))
    (fun () ->
      Calib_cache.retrying ~attempts:3
        ~on_retry:(fun _ -> ())
        ~what:"write" ~path:"p"
        (fun () ->
          incr calls;
          raise (Unix.Unix_error (Unix.EAGAIN, "write", "p"))));
  Alcotest.(check int) "tried exactly [attempts] times" 3 !calls

let test_retrying_non_transient () =
  let calls = ref 0 in
  Alcotest.check_raises "ENOSPC is not retried"
    (Unix.Unix_error (Unix.ENOSPC, "write", "p"))
    (fun () ->
      Calib_cache.retrying
        ~on_retry:(fun _ -> ())
        ~what:"write" ~path:"p"
        (fun () ->
          incr calls;
          raise (Unix.Unix_error (Unix.ENOSPC, "write", "p"))));
  Alcotest.(check int) "no retries" 1 !calls

let test_save_takes_write_lock () =
  let path = Filename.concat cache_dir "locked.txt" in
  (match
     Calib_cache.save ~path ~fingerprint:fp ~spec_name:spec.Spec.name payload
   with
  | Ok () -> ()
  | Error d -> Alcotest.failf "save failed: %s" (Diag.to_string d));
  Alcotest.(check bool)
    "lock file exists next to the table" true
    (Sys.file_exists (Calib_cache.lock_path path));
  (* lock released: a second save must not deadlock *)
  match
    Calib_cache.save ~path ~fingerprint:fp ~spec_name:spec.Spec.name payload
  with
  | Ok () -> ()
  | Error d -> Alcotest.failf "re-save failed: %s" (Diag.to_string d)

let test_cache_roundtrip () =
  (match
     Calib_cache.save ~path:roundtrip_path ~fingerprint:fp
       ~spec_name:spec.Spec.name payload
   with
  | Ok () -> ()
  | Error d -> Alcotest.failf "save failed: %s" (Diag.to_string d));
  match Calib_cache.load ~path:roundtrip_path ~fingerprint:fp () with
  | `Hit p ->
    Alcotest.(check (array (array (float 0.0))))
      "instr bit-exact" payload.Calib_cache.instr p.Calib_cache.instr;
    Alcotest.(check (array (float 0.0)))
      "smem bit-exact" payload.Calib_cache.smem p.Calib_cache.smem;
    Alcotest.(check int)
      "gmem points survive"
      (List.length payload.Calib_cache.gmem)
      (List.length p.Calib_cache.gmem);
    List.iter2
      (fun (k, v) (k', v') ->
        if k <> k' || v <> v' then Alcotest.fail "gmem entry mismatch")
      payload.Calib_cache.gmem p.Calib_cache.gmem
  | `Miss -> Alcotest.fail "expected a hit, got a miss"
  | `Rejected d -> Alcotest.failf "rejected: %s" (Diag.to_string d)

let test_cache_miss_and_rejection () =
  (match
     Calib_cache.load
       ~path:(Filename.concat cache_dir "never-written.txt")
       ~fingerprint:fp ()
   with
  | `Miss -> ()
  | `Hit _ | `Rejected _ -> Alcotest.fail "missing file must be a miss");
  (* stale fingerprint: the spec or the calibration constants changed *)
  (match
     Calib_cache.load ~path:roundtrip_path
       ~fingerprint:(Calib_cache.fingerprint ~constants:"other" spec) ()
   with
  | `Rejected d ->
    Alcotest.(check string) "stage" "cache" (Diag.stage_name d.Diag.stage)
  | `Hit _ -> Alcotest.fail "stale fingerprint must be rejected"
  | `Miss -> Alcotest.fail "file exists: not a miss");
  (* truncation *)
  let truncated = Filename.concat cache_dir "truncated.txt" in
  let contents =
    let ic = open_in_bin roundtrip_path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let oc = open_out_bin truncated in
  output_string oc (String.sub contents 0 (String.length contents / 2));
  close_out oc;
  (match Calib_cache.load ~path:truncated ~fingerprint:fp () with
  | `Rejected _ -> ()
  | `Hit _ -> Alcotest.fail "truncated file must be rejected"
  | `Miss -> Alcotest.fail "truncated file is not a miss");
  (* garbage *)
  let garbage = Filename.concat cache_dir "garbage.txt" in
  let oc = open_out_bin garbage in
  output_string oc "gpuperf-calibration 999\nnot a cache file\n";
  close_out oc;
  match Calib_cache.load ~path:garbage ~fingerprint:fp () with
  | `Rejected _ -> ()
  | `Hit _ -> Alcotest.fail "wrong version must be rejected"
  | `Miss -> Alcotest.fail "wrong version is not a miss"

(* End-to-end through Tables: calibrate (writes the cache), drop the
   in-process table, reload from disk — values identical, no re-measure. *)
let test_tables_warm_reload () =
  let diags = ref [] in
  Tables.set_on_diag (fun d -> diags := d :: !diags);
  with_jobs 2 @@ fun () ->
  let cold = Tables.for_spec spec in
  let c0 = Tables.counters () in
  Tables.clear_process_cache ();
  let warm = Tables.for_spec spec in
  let c1 = Tables.counters () in
  Alcotest.(check int)
    "warm reload skips measurement" 0
    (c1.Tables.instr_smem_measurements - c0.Tables.instr_smem_measurements);
  Alcotest.(check int)
    "warm reload loads from disk" 1 (c1.Tables.cache_loads - c0.Tables.cache_loads);
  check_tables_identical "cold vs warm tables" cold warm;
  (* now corrupt the file: the next load must warn and recalibrate *)
  let path = Option.get (Calib_cache.path_for spec) in
  let oc = open_out_bin path in
  output_string oc "gpuperf-calibration 1\nfingerprint deadbeef\n";
  close_out oc;
  diags := [];
  Tables.clear_process_cache ();
  let rebuilt = Tables.for_spec spec in
  let c2 = Tables.counters () in
  Alcotest.(check bool)
    "corrupt cache recalibrates" true
    (c2.Tables.calibrations - c1.Tables.calibrations = 1);
  Alcotest.(check bool)
    "corrupt cache warns" true
    (List.exists (fun d -> d.Diag.severity = Diag.Warning) !diags);
  check_tables_identical "recalibrated tables" cold rebuilt;
  Tables.set_on_diag (fun _ -> ())

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "init matches serial" `Quick
            test_init_matches_serial;
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "empty and tiny inputs" `Quick
            test_empty_and_tiny;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagates;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "no leaks after exception" `Quick
            test_no_leaks_after_exception;
          Alcotest.test_case "unclaimed helper entries withdrawn" `Quick
            test_unclaimed_helpers_withdrawn;
          Alcotest.test_case "async submit and drain" `Quick
            test_async_drain;
          Alcotest.test_case "async swallows exceptions" `Quick
            test_async_swallows_exceptions;
          Alcotest.test_case "async task with an unwritable log sink"
            `Quick test_async_unwritable_log;
          Alcotest.test_case "drain_async timeout" `Quick
            test_drain_timeout;
          Alcotest.test_case "memo single-flight" `Quick test_memo_once;
          Alcotest.test_case "memo table: one computation per key" `Quick
            test_memo_one_per_key;
          Alcotest.test_case "memo table: failures retried" `Quick
            test_memo_failure_retried;
          Alcotest.test_case "memo table: clear during a computation" `Quick
            test_memo_clear_in_flight;
          Alcotest.test_case "memo table: seed and snapshot" `Quick
            test_memo_seed_and_snapshot;
          Alcotest.test_case "tables: clear during a calibration" `Quick
            test_tables_clear_in_flight;
        ] );
      ( "jobs validation",
        [
          Alcotest.test_case "parse_jobs accepts/rejects" `Quick
            test_parse_jobs;
          Alcotest.test_case "--jobs usage errors exit 2" `Quick
            test_cli_jobs_flag;
          Alcotest.test_case "GPUPERF_JOBS validated identically" `Quick
            test_cli_jobs_env;
        ] );
      ( "calibration",
        [
          Alcotest.test_case "serial = parallel (bit-identical)" `Quick
            test_serial_parallel_identical;
          Alcotest.test_case "gmem single-flight" `Quick
            test_gmem_single_flight;
        ] );
      ( "retries",
        [
          Alcotest.test_case "transient failures retried" `Quick
            test_retrying_transient;
          Alcotest.test_case "attempts exhausted re-raises" `Quick
            test_retrying_exhausted;
          Alcotest.test_case "non-transient re-raises at once" `Quick
            test_retrying_non_transient;
          Alcotest.test_case "save takes the write lock" `Quick
            test_save_takes_write_lock;
        ] );
      ( "disk cache",
        [
          Alcotest.test_case "round-trip" `Quick test_cache_roundtrip;
          Alcotest.test_case "miss and rejection" `Quick
            test_cache_miss_and_rejection;
          Alcotest.test_case "warm reload through Tables" `Quick
            test_tables_warm_reload;
        ] );
    ]
