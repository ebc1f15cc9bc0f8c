(* Domain pool: the one place in the system that spawns domains.

   Design notes:
   - Worker domains run a generic task loop; a batch (one parallel_init
     or parallel_map call) enqueues one "drain" task per helper it wants,
     and every drainer (helpers plus the calling domain) pulls fixed-size
     index chunks from the batch's counter.  Results land in
     caller-allocated slots indexed by item, so ordering is deterministic
     regardless of which domain computed what.
   - Exceptions are funneled: a failing item records (index, exn,
     backtrace), further chunks stop being claimed, and the caller
     re-raises the lowest-indexed recorded exception once the batch
     drains.
   - Once every chunk is claimed, the caller withdraws the helper entries
     no worker has dequeued and waits for the dequeued ones to return, so
     a returned batch leaves nothing of itself queued or running.
   - Calls from inside a worker run serially inline (a Domain.DLS flag),
     so nested parallelism cannot oversubscribe or deadlock. *)

(* The one job-count validator: the CLI's --jobs converter, the
   GPUPERF_JOBS environment path and the bench driver all parse through
   here, so "positive integer" is decided in exactly one place. *)
let parse_jobs s =
  match int_of_string_opt (String.trim s) with
  | Some n when n >= 1 -> Ok n
  | Some n -> Error (Printf.sprintf "jobs must be a positive integer, got %d" n)
  | None -> Error (Printf.sprintf "jobs must be a positive integer, got %S" s)

let default_jobs () =
  match Sys.getenv_opt "GPUPERF_JOBS" with
  | Some s -> (
    match parse_jobs s with
    | Ok n -> n
    (* library fallback stays permissive; the CLI validates the same
       variable through cmdliner and exits 2 on garbage *)
    | Error _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

type pool = {
  lock : Mutex.t;
  work : Condition.t;
  queue : (unit -> unit) Queue.t; (* tasks are wrapped and never raise *)
  mutable shutdown : bool;
  mutable workers : unit Domain.t list;
  size : int; (* helper domains; total parallelism = size + 1 *)
}

let inside_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Scheduler-pressure gauges (DESIGN §11): the introspection reads below
   ([queue_length] / [worker_count] / [pending_async]) exist for tests,
   but /metrics and --metrics read the registry, so queue and worker
   state changes mirror into gauges.  [note_queue] must be called with
   [pool.lock] held. *)
let g_queue = Gpu_obs.Metrics.gauge "pool.queue.length"
let g_workers = Gpu_obs.Metrics.gauge "pool.workers"

let note_queue pool =
  Gpu_obs.Metrics.set_gauge g_queue (float_of_int (Queue.length pool.queue))

let rec worker_loop pool =
  Mutex.lock pool.lock;
  let rec await () =
    if pool.shutdown then Mutex.unlock pool.lock
    else
      match Queue.take_opt pool.queue with
      | Some task ->
        note_queue pool;
        Mutex.unlock pool.lock;
        task ();
        worker_loop pool
      | None ->
        Condition.wait pool.work pool.lock;
        await ()
  in
  await ()

let create ~jobs =
  let pool =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      shutdown = false;
      workers = [];
      size = max 0 (jobs - 1);
    }
  in
  pool.workers <-
    List.init pool.size (fun _ ->
        Domain.spawn (fun () ->
            Domain.DLS.set inside_worker true;
            worker_loop pool));
  Gpu_obs.Metrics.set_gauge g_workers (float_of_int pool.size);
  pool

let destroy pool =
  Mutex.lock pool.lock;
  pool.shutdown <- true;
  Condition.broadcast pool.work;
  Mutex.unlock pool.lock;
  List.iter Domain.join pool.workers;
  pool.workers <- [];
  Gpu_obs.Metrics.set_gauge g_workers 0.0

let global_lock = Mutex.create ()
let global : pool option ref = ref None
let requested : int option ref = ref None

let current_jobs () =
  match !requested with Some n -> n | None -> default_jobs ()

let set_jobs n =
  if n < 1 then invalid_arg "Pool.set_jobs: jobs must be >= 1";
  Mutex.lock global_lock;
  requested := Some n;
  (match !global with
  | Some p when p.size <> n - 1 ->
    global := None;
    destroy p
  | Some _ | None -> ());
  Mutex.unlock global_lock

let get_pool () =
  Mutex.lock global_lock;
  let p =
    match !global with
    | Some p -> p
    | None ->
      let p = create ~jobs:(current_jobs ()) in
      global := Some p;
      p
  in
  Mutex.unlock global_lock;
  p

(* --- batches ----------------------------------------------------------- *)

type batch = {
  b_lock : Mutex.t;
  b_done : Condition.t;
  total : int;
  chunk : int;
  mutable next : int; (* next unclaimed index *)
  mutable running : int; (* drainers currently inside a chunk *)
  mutable helpers : int; (* helper entries queued or running, not withdrawn *)
  mutable failed : (int * exn * Printexc.raw_backtrace) option;
}

let record_failure batch i e bt =
  Mutex.lock batch.b_lock;
  (match batch.failed with
  | Some (j, _, _) when j <= i -> ()
  | Some _ | None -> batch.failed <- Some (i, e, bt));
  batch.next <- batch.total (* stop claiming further chunks *);
  Mutex.unlock batch.b_lock

(* Batch/chunk volume counters (DESIGN §11): [pool.chunks.stolen] counts
   chunks claimed by helper domains rather than the calling one — the
   work-distribution signal a serial-vs-parallel bench wants. *)
let m_batches = Gpu_obs.Metrics.counter "pool.batches"
let m_items = Gpu_obs.Metrics.counter "pool.items"
let m_chunks = Gpu_obs.Metrics.counter "pool.chunks.claimed"
let m_steals = Gpu_obs.Metrics.counter "pool.chunks.stolen"

let drain batch f =
  let helper = Domain.DLS.get inside_worker in
  let rec claim () =
    Mutex.lock batch.b_lock;
    if batch.next >= batch.total then Mutex.unlock batch.b_lock
    else begin
      let lo = batch.next in
      let hi = min batch.total (lo + batch.chunk) in
      batch.next <- hi;
      batch.running <- batch.running + 1;
      Mutex.unlock batch.b_lock;
      Gpu_obs.Metrics.incr m_chunks;
      if helper then Gpu_obs.Metrics.incr m_steals;
      for i = lo to hi - 1 do
        (* unsynchronized peek at [failed]: worst case a few extra items
           of the already-claimed chunk run after a failure elsewhere *)
        match batch.failed with
        | Some _ -> ()
        | None -> (
          try f i
          with e -> record_failure batch i e (Printexc.get_raw_backtrace ()))
      done;
      Mutex.lock batch.b_lock;
      batch.running <- batch.running - 1;
      if batch.next >= batch.total && batch.running = 0 then
        Condition.broadcast batch.b_done;
      Mutex.unlock batch.b_lock;
      claim ()
    end
  in
  claim ()

(* Run [f 0 .. f (n-1)] over the pool; barrier until all complete. *)
let run ?jobs n f =
  if n > 0 then begin
    Gpu_obs.Metrics.incr m_batches;
    Gpu_obs.Metrics.add m_items n;
    let inline = Domain.DLS.get inside_worker in
    let pool = if inline then None else Some (get_pool ()) in
    let jobs =
      match (jobs, pool) with
      | _, None -> 1
      | Some j, Some p -> max 1 (min j (p.size + 1))
      | None, Some p -> p.size + 1
    in
    if jobs = 1 || n = 1 then
      for i = 0 to n - 1 do
        f i
      done
    else begin
      let p = Option.get pool in
      let helpers = min (jobs - 1) (min p.size (n - 1)) in
      (* a few chunks per drainer amortize queue traffic while keeping
         the tail balanced *)
      let chunk = max 1 ((n + (4 * jobs) - 1) / (4 * jobs)) in
      let batch =
        {
          b_lock = Mutex.create ();
          b_done = Condition.create ();
          total = n;
          chunk;
          next = 0;
          running = 0;
          helpers;
          failed = None;
        }
      in
      (* One closure for every helper entry, so the caller can find and
         withdraw the entries no worker claimed. *)
      let helper () =
        drain batch f;
        Mutex.lock batch.b_lock;
        batch.helpers <- batch.helpers - 1;
        if batch.helpers = 0 then Condition.broadcast batch.b_done;
        Mutex.unlock batch.b_lock
      in
      Mutex.lock p.lock;
      for _ = 1 to helpers do
        Queue.add helper p.queue
      done;
      note_queue p;
      Condition.broadcast p.work;
      Mutex.unlock p.lock;
      drain batch f;
      (* Every chunk is claimed.  Withdraw the helper entries still queued
         (they would only find nothing to do), then wait for the claimed
         ones to finish: when [run] returns, no trace of the batch is left
         in the pool, which is then indistinguishable from a fresh one. *)
      Mutex.lock p.lock;
      let withdrawn = ref 0 in
      let others = Queue.create () in
      Queue.iter
        (fun task ->
          if task == helper then incr withdrawn else Queue.add task others)
        p.queue;
      Queue.clear p.queue;
      Queue.transfer others p.queue;
      note_queue p;
      Mutex.unlock p.lock;
      Mutex.lock batch.b_lock;
      batch.helpers <- batch.helpers - !withdrawn;
      while
        not
          (batch.next >= batch.total && batch.running = 0 && batch.helpers = 0)
      do
        Condition.wait batch.b_done batch.b_lock
      done;
      let failed = batch.failed in
      Mutex.unlock batch.b_lock;
      match failed with
      | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* --- async tasks ------------------------------------------------------- *)

(* Fire-and-forget submission for the serve daemon: tasks are wrapped so
   they never raise into the worker loop, and a shared outstanding count
   lets a shutdown path drain every submitted task before exiting.  When
   the pool has no helper domains (jobs = 1) each task gets a dedicated
   short-lived domain instead, so the submitter (the daemon's event loop)
   is never blocked by its own submission. *)

let async_lock = Mutex.create ()
let async_done = Condition.create ()
let async_outstanding = ref 0
let async_extra : unit Domain.t list ref = ref []
let m_async = Gpu_obs.Metrics.counter "pool.async.submitted"
let g_async_pending = Gpu_obs.Metrics.gauge "pool.async.pending"

let async_finished () =
  Mutex.lock async_lock;
  decr async_outstanding;
  Gpu_obs.Metrics.set_gauge g_async_pending (float_of_int !async_outstanding);
  if !async_outstanding = 0 then Condition.broadcast async_done;
  Mutex.unlock async_lock

let async f =
  let task () =
    (try f ()
     with e ->
       (* [f] is responsible for its own reporting; an exception landing
          here would previously vanish — now it at least leaves a
          structured warning when a log sink is configured. *)
       Gpu_obs.Log.event Gpu_obs.Log.Warn ~component:"pool.async"
         ~attrs:[ ("exn", Gpu_obs.Log.S (Printexc.to_string e)) ]
         "async task raised past its own error handling");
    async_finished ()
  in
  Mutex.lock async_lock;
  incr async_outstanding;
  Gpu_obs.Metrics.incr m_async;
  Gpu_obs.Metrics.set_gauge g_async_pending (float_of_int !async_outstanding);
  Mutex.unlock async_lock;
  let p = get_pool () in
  if p.size = 0 then begin
    let d =
      Domain.spawn (fun () ->
          Domain.DLS.set inside_worker true;
          task ())
    in
    Mutex.lock async_lock;
    async_extra := d :: !async_extra;
    Mutex.unlock async_lock
  end
  else begin
    Mutex.lock p.lock;
    Queue.add task p.queue;
    note_queue p;
    Condition.signal p.work;
    Mutex.unlock p.lock
  end

let pending_async () =
  Mutex.lock async_lock;
  let n = !async_outstanding in
  Mutex.unlock async_lock;
  n

let drain_async ?timeout_s () =
  let deadline =
    Option.map (fun t -> Unix.gettimeofday () +. t) timeout_s
  in
  let rec wait () =
    Mutex.lock async_lock;
    if !async_outstanding = 0 then begin
      let extra = !async_extra in
      async_extra := [];
      Mutex.unlock async_lock;
      List.iter Domain.join extra;
      true
    end
    else
      match deadline with
      | None ->
        Condition.wait async_done async_lock;
        Mutex.unlock async_lock;
        wait ()
      | Some d ->
        Mutex.unlock async_lock;
        if Unix.gettimeofday () >= d then false
        else begin
          (* Mutex/Condition have no timed wait in the stdlib; a short
             poll bounds the overshoot past the deadline instead. *)
          Unix.sleepf 0.005;
          wait ()
        end
  in
  wait ()

(* --- introspection ------------------------------------------------------ *)

(* Leak checks for the daemon-lifetime requirement: a funneled task
   exception must leave every worker domain alive and the queue empty. *)

let worker_count () =
  Mutex.lock global_lock;
  let n = match !global with Some p -> List.length p.workers | None -> 0 in
  Mutex.unlock global_lock;
  n

let queue_length () =
  Mutex.lock global_lock;
  let n =
    match !global with
    | Some p ->
      Mutex.lock p.lock;
      let n = Queue.length p.queue in
      Mutex.unlock p.lock;
      n
    | None -> 0
  in
  Mutex.unlock global_lock;
  n

(* Refresh all scheduler gauges from the introspection reads — the
   serve watchdog calls this on its tick so /metrics and /dashboard see
   current pressure even across pool rebuilds. *)
let sample_gauges () =
  Gpu_obs.Metrics.set_gauge g_queue (float_of_int (queue_length ()));
  Gpu_obs.Metrics.set_gauge g_workers (float_of_int (worker_count ()));
  Gpu_obs.Metrics.set_gauge g_async_pending (float_of_int (pending_async ()))

let parallel_init ?jobs n f =
  if n < 0 then invalid_arg "Pool.parallel_init: negative length";
  let results = Array.make n None in
  run ?jobs n (fun i -> results.(i) <- Some (f i));
  Array.map (function Some v -> v | None -> assert false) results

let parallel_map ?jobs f l =
  match l with
  | [] -> []
  | [ x ] -> [ f x ]
  | l ->
    let arr = Array.of_list l in
    Array.to_list (parallel_init ?jobs (Array.length arr) (fun i -> f arr.(i)))
