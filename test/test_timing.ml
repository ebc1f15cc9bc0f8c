(* Tests for the cycle timing simulator (the GTX 285 stand-in): latency and
   throughput behaviour of the three pipelines, barrier handling, block
   scheduling and the early-release what-if. *)

module Trace = Gpu_sim.Trace
module Engine = Gpu_timing.Engine
module I = Gpu_isa.Instr

let spec = Gpu_hw.Spec.gtx285

let alu_event ?(dst = 10) ?(srcs = [||]) cls =
  { Trace.cls; dst; srcs; mem = Trace.No_mem; bar = false }

let dependent_chain n =
  (* each instruction reads the previous result *)
  Array.init n (fun _ -> alu_event ~dst:10 ~srcs:[| 10 |] I.Class_ii)

let exit_event = alu_event ~dst:Trace.no_reg ~srcs:[||] I.Class_ii

let block_of warps = { Trace.block = 0; warps }

let run ?(max_resident = 8) blocks =
  Engine.run ~spec ~max_resident_blocks:max_resident (Array.of_list blocks)

let test_dependent_chain_latency () =
  (* one warp, n dependent class II instructions: ~n * alu_latency cycles *)
  let n = 100 in
  let r = run [ block_of [| dependent_chain n |] ] in
  let expect = n * spec.Gpu_hw.Spec.alu_latency in
  Alcotest.(check bool)
    (Printf.sprintf "%d cycles close to %d" r.Engine.cycles expect)
    true
    (abs (r.Engine.cycles - expect) < expect / 5)

let test_throughput_saturates () =
  (* with >= 6 warps the class II pipe saturates: 4 cycles per warp instr *)
  let n = 200 in
  let warps = Array.init 8 (fun _ -> dependent_chain n) in
  let r = run [ block_of warps ] in
  let ideal = 8 * n * 4 in
  Alcotest.(check bool)
    (Printf.sprintf "%d cycles ~ pipe-bound %d" r.Engine.cycles ideal)
    true
    (r.Engine.cycles >= ideal && r.Engine.cycles < ideal * 12 / 10)

let test_more_warps_faster () =
  let n = 300 in
  let time w =
    (run [ block_of (Array.init w (fun _ -> dependent_chain (n / w))) ])
      .Engine.cycles
  in
  Alcotest.(check bool) "2 warps beat 1" true (time 2 < time 1);
  Alcotest.(check bool) "6 warps beat 2" true (time 6 < time 2)

let test_gmem_load_latency () =
  let w =
    [|
      {
        Trace.cls = I.Class_mem;
        dst = 5;
        srcs = [||];
        mem = Trace.Gmem_load [| (0, 64) |];
        bar = false;
      };
      (* consumer of the load *)
      alu_event ~dst:6 ~srcs:[| 5 |] I.Class_ii;
    |]
  in
  let r = run [ block_of [| w |] ] in
  Alcotest.(check bool)
    (Printf.sprintf "%d cycles covers the %d-cycle round trip"
       r.Engine.cycles spec.Gpu_hw.Spec.gmem_latency)
    true
    (r.Engine.cycles >= spec.Gpu_hw.Spec.gmem_latency)

let test_smem_conflicts_slow () =
  let access txns =
    { Trace.cls = I.Class_mem; dst = 5; srcs = [||];
      mem = Trace.Smem txns; bar = false }
  in
  let mk txns = Array.init 100 (fun _ -> access txns) in
  let t1 = (run [ block_of [| mk 2 |] ]).Engine.cycles in
  let t16 = (run [ block_of [| mk 32 |] ]).Engine.cycles in
  Alcotest.(check bool) "16-way conflicts cost much more" true
    (t16 > 4 * t1)

let test_atomic_contention_slows () =
  (* same trace shape, rising serialization: full contention (16 txns per
     half-warp group) must cost far more than conflict-free atomics *)
  let atomic txns =
    { Trace.cls = I.Class_mem; dst = 5; srcs = [||];
      mem = Trace.Smem_atomic txns; bar = false }
  in
  let mk txns = Array.init 100 (fun _ -> atomic txns) in
  let free = run [ block_of [| mk 2 |] ] in
  let contended = run [ block_of [| mk 32 |] ] in
  Alcotest.(check bool) "full contention costs much more" true
    (contended.Engine.cycles > 4 * free.Engine.cycles);
  (* the serialized transactions are charged to the atomic counter, not
     the plain shared-memory one *)
  Alcotest.(check bool) "atomic busy accounted" true
    (contended.Engine.atomic_busy_cycles > free.Engine.atomic_busy_cycles);
  Alcotest.(check int) "no plain smem busy from atomics" 0
    contended.Engine.smem_busy_cycles

let test_atomic_shares_shared_pipe () =
  (* atomics and plain shared traffic contend for one LSU pipe: a mixed
     trace must run at least as long as either half alone, and the two
     busy counters together stay within the wall clock per SM *)
  let atomic =
    { Trace.cls = I.Class_mem; dst = 5; srcs = [||];
      mem = Trace.Smem_atomic 8; bar = false }
  in
  let smem =
    { Trace.cls = I.Class_mem; dst = 6; srcs = [||];
      mem = Trace.Smem 8; bar = false }
  in
  let mixed = Array.init 100 (fun i -> if i mod 2 = 0 then atomic else smem) in
  let r = run [ block_of [| mixed |] ] in
  let only ev = run [ block_of [| Array.make 50 ev |] ] in
  let a = only atomic and s = only smem in
  Alcotest.(check bool) "mixed is no faster than its atomic half" true
    (r.Engine.cycles >= a.Engine.cycles);
  Alcotest.(check bool) "mixed is no faster than its smem half" true
    (r.Engine.cycles >= s.Engine.cycles);
  Alcotest.(check bool)
    (Printf.sprintf "shared pipe busy (%d + %d) fits in %d cycles"
       r.Engine.smem_busy_cycles r.Engine.atomic_busy_cycles r.Engine.cycles)
    true
    (r.Engine.smem_busy_cycles + r.Engine.atomic_busy_cycles
     <= r.Engine.cycles * r.Engine.sms_simulated)

let test_barrier_waits () =
  (* warp 0 does 400 instructions then a barrier; warp 1 barriers
     immediately then has one instruction: total ~ warp 0's work *)
  let bar = { (alu_event ~dst:Trace.no_reg I.Class_ctrl) with Trace.bar = true } in
  let w0 = Array.append (dependent_chain 400) [| bar; exit_event |] in
  let w1 = [| bar; alu_event ~dst:11 I.Class_ii; exit_event |] in
  let r = run [ block_of [| w0; w1 |] ] in
  Alcotest.(check bool) "warp 1 waited for warp 0" true
    (r.Engine.cycles >= 400 * 4)

let test_block_scheduling () =
  (* 120 blocks = 4 per SM: with 1 resident block they run in four waves,
     with 4 resident they overlap *)
  let blocks =
    Array.init 120 (fun b ->
        { Trace.block = b; warps = [| dependent_chain 100 |] })
  in
  let one =
    (run ~max_resident:8 [ block_of [| dependent_chain 100 |] ]).Engine.cycles
  in
  let serial =
    (Engine.run ~spec ~max_resident_blocks:1 blocks).Engine.cycles
  in
  Alcotest.(check bool) "1-resident runs blocks back to back" true
    (serial >= 4 * one * 9 / 10);
  let conc = (Engine.run ~spec ~max_resident_blocks:4 blocks).Engine.cycles in
  Alcotest.(check bool) "4-resident overlaps blocks" true (conc < serial)

let test_cluster_sharing () =
  (* global traffic from blocks in the same cluster shares one pipe *)
  let gmem_block () =
    block_of
      [|
        Array.init 50 (fun i ->
            {
              Trace.cls = I.Class_mem;
              dst = 5 + (i mod 8);
              srcs = [||];
              mem = Trace.Gmem_load [| (i * 64, 64) |];
              bar = false;
            });
      |]
  in
  (* blocks 0 and 10 land on the same cluster (b mod 10); 0 and 1 on
     different clusters *)
  let same =
    Engine.run ~spec ~max_resident_blocks:8
      [| gmem_block (); gmem_block (); gmem_block (); gmem_block ();
         gmem_block (); gmem_block (); gmem_block (); gmem_block ();
         gmem_block (); gmem_block (); gmem_block () |]
  in
  (* 11 blocks: cluster 0 carries two blocks' traffic *)
  let spread =
    Engine.run ~spec ~max_resident_blocks:8
      (Array.init 10 (fun _ -> gmem_block ()))
  in
  Alcotest.(check bool) "leftover block lengthens its cluster" true
    (same.Engine.cycles > spread.Engine.cycles)

let test_early_release () =
  (* blocks with one long warp and 7 that retire immediately, queued 8 per
     SM at 2-resident occupancy: releasing retired warps' slots lets later
     blocks launch while the stragglers run *)
  let blocks =
    Array.init 240 (fun b ->
        {
          Trace.block = b;
          warps =
            Array.init 8 (fun w ->
                if w = 0 then dependent_chain 400 else [| exit_event |]);
        })
  in
  let base =
    Engine.run ~spec ~max_resident_blocks:2 blocks
  in
  let early =
    Engine.run
      ~spec:(Gpu_hw.Spec.with_early_release spec)
      ~max_resident_blocks:2 blocks
  in
  Alcotest.(check bool)
    (Printf.sprintf "early release helps (%d -> %d cycles)" base.Engine.cycles
       early.Engine.cycles)
    true
    (early.Engine.cycles < base.Engine.cycles)

let test_homogeneous_shortcut () =
  let blocks = Array.init 40 (fun b -> { Trace.block = b; warps = [| dependent_chain 50 |] }) in
  let full = Engine.run ~spec ~max_resident_blocks:8 blocks in
  let fast = Engine.run ~homogeneous:true ~spec ~max_resident_blocks:8 blocks in
  Alcotest.(check int) "homogeneous shortcut agrees" full.Engine.cycles
    fast.Engine.cycles

(* A deliberately lopsided grid: per-block warp counts and trace lengths
   vary, every cluster gets a different load, and every third block
   synchronizes on a barrier.  Heterogeneous, so the engine simulates all
   ten clusters — the interesting path for parallel replay and sampling. *)
let heterogeneous_grid n_blocks =
  let bar =
    { (alu_event ~dst:Trace.no_reg I.Class_ctrl) with Trace.bar = true }
  in
  Array.init n_blocks (fun b ->
      let warps = 1 + (b mod 5) in
      {
        Trace.block = b;
        warps =
          Array.init warps (fun w ->
              let work = dependent_chain (20 + (13 * b mod 60) + (7 * w)) in
              let tail =
                [|
                  {
                    Trace.cls = I.Class_mem;
                    dst = 5;
                    srcs = [||];
                    mem = Trace.Gmem_load [| (64 * b, 64) |];
                    bar = false;
                  };
                  (* varying contention keeps the atomic pipe hot in some
                     clusters and idle in others *)
                  {
                    Trace.cls = I.Class_mem;
                    dst = 6;
                    srcs = [| 5 |];
                    mem = Trace.Smem_atomic (1 + (b mod 4 * 5));
                    bar = false;
                  };
                  exit_event;
                |]
              in
              if b mod 3 = 0 then
                Array.concat [ [| bar |]; work; tail ]
              else Array.append work tail);
      })

let test_parallel_bit_identical () =
  let jobs = Gpu_parallel.Pool.current_jobs () in
  Gpu_parallel.Pool.set_jobs 4;
  Fun.protect ~finally:(fun () -> Gpu_parallel.Pool.set_jobs jobs)
  @@ fun () ->
  let blocks = heterogeneous_grid 37 in
  let events =
    Array.fold_left (fun a b -> a + Trace.event_count b) 0 blocks
  in
  let warps =
    Array.fold_left
      (fun a (b : Trace.block_trace) -> a + Array.length b.Trace.warps)
      0 blocks
  in
  (* A timeline recorder forces the serial cluster loop; without one the
     clusters fan out over the domain pool.  Both must agree exactly. *)
  let tl = Gpu_obs.Timeline.create ~capacity:((4 * events) + warps + 64) () in
  let serial =
    Engine.run ~homogeneous:false ~timeline:tl ~spec ~max_resident_blocks:4
      blocks
  in
  let par =
    Engine.run ~homogeneous:false ~spec ~max_resident_blocks:4 blocks
  in
  Alcotest.(check int) "cycles" serial.Engine.cycles par.Engine.cycles;
  Alcotest.(check int) "alu busy" serial.Engine.alu_busy_cycles
    par.Engine.alu_busy_cycles;
  Alcotest.(check int) "smem busy" serial.Engine.smem_busy_cycles
    par.Engine.smem_busy_cycles;
  Alcotest.(check int) "atomic busy" serial.Engine.atomic_busy_cycles
    par.Engine.atomic_busy_cycles;
  Alcotest.(check bool) "the grid exercises the atomic pipe" true
    (serial.Engine.atomic_busy_cycles > 0);
  Alcotest.(check int) "gmem busy" serial.Engine.gmem_busy_cycles
    par.Engine.gmem_busy_cycles;
  Alcotest.(check int) "warps launched" serial.Engine.warps_launched
    par.Engine.warps_launched;
  Alcotest.(check int) "warps retired" serial.Engine.warps_retired
    par.Engine.warps_retired;
  Alcotest.(check int) "blocks retired" serial.Engine.blocks_retired
    par.Engine.blocks_retired;
  Alcotest.(check int) "blocks unlaunched" serial.Engine.blocks_unlaunched
    par.Engine.blocks_unlaunched

let test_sampled_bounds () =
  let blocks = heterogeneous_grid 40 in
  let full =
    Engine.run ~homogeneous:false ~spec ~max_resident_blocks:4 blocks
  in
  let s = { Engine.fraction = 0.3; seed = 7 } in
  let sampled =
    Engine.run ~homogeneous:false ~sample:s ~spec ~max_resident_blocks:4
      blocks
  in
  (match sampled.Engine.sampled with
  | None -> Alcotest.fail "expected a sampled estimate"
  | Some e ->
    Alcotest.(check bool) "a strict subset of clusters" true
      (e.Engine.clusters_sampled < e.Engine.clusters_total
      && e.Engine.clusters_sampled >= 1);
    Alcotest.(check bool) "fewer blocks than the grid" true
      (e.Engine.blocks_sampled < Array.length blocks);
    Alcotest.(check int) "headline cycles are the guaranteed lower bound"
      e.Engine.cycles_low sampled.Engine.cycles;
    Alcotest.(check bool)
      (Printf.sprintf "low bound %d <= full %d" e.Engine.cycles_low
         full.Engine.cycles)
      true
      (e.Engine.cycles_low <= full.Engine.cycles);
    Alcotest.(check bool)
      (Printf.sprintf "high bound %d >= full %d" e.Engine.cycles_high
         full.Engine.cycles)
      true
      (e.Engine.cycles_high >= full.Engine.cycles));
  (* Seeded sampling is reproducible: same seed, same subset, same
     extrapolation. *)
  let again =
    Engine.run ~homogeneous:false ~sample:s ~spec ~max_resident_blocks:4
      blocks
  in
  Alcotest.(check int) "seeded determinism" sampled.Engine.cycles
    again.Engine.cycles;
  (* The exact run carries no estimate. *)
  Alcotest.(check bool) "full replay is exact" true
    (full.Engine.sampled = None)

(* --- warp timeline track packing (regression) ----------------------------- *)

(* Warp tids used to be [10000 + 64*bid + wid]: on a single-cluster
   device, adjacent blocks land on the same pid, so any block with more
   than 64 warps silently collided its warps into the next block's
   tracks.  The stride now grows to the largest launched block's warp
   count; each warp's zero-length "retire" marker must land on its own
   (pid, tid) track. *)
let test_warp_tid_no_collision_past_64 () =
  let one_cluster = { spec with Gpu_hw.Spec.num_sms = 3 } in
  let nwarps = 80 in
  let blocks =
    Array.init 2 (fun b ->
        {
          Trace.block = b;
          warps = Array.init nwarps (fun _ -> [| exit_event |]);
        })
  in
  let tl = Gpu_obs.Timeline.create ~capacity:4096 () in
  let r =
    Engine.run ~homogeneous:false ~timeline:tl ~spec:one_cluster
      ~max_resident_blocks:2 blocks
  in
  Alcotest.(check int) "all warps retired" (2 * nwarps)
    r.Engine.warps_retired;
  let retire_tracks = Hashtbl.create 256 in
  Array.iter
    (fun (s : Gpu_obs.Timeline.slice) ->
      if s.Gpu_obs.Timeline.cat = "warp" && s.Gpu_obs.Timeline.name = "retire"
      then
        Hashtbl.replace retire_tracks
          (s.Gpu_obs.Timeline.pid, s.Gpu_obs.Timeline.tid)
          ())
    (Gpu_obs.Timeline.slices tl);
  Alcotest.(check int) "one distinct track per warp" (2 * nwarps)
    (Hashtbl.length retire_tracks)

(* A full 1024-thread (32-warp) block launch on the Volta-like profile
   runs clean, and — every block fitting 64 warps — the tids keep the
   historical [10000 + 64*bid + wid] layout. *)
let test_volta_like_full_block_launch () =
  let vspec = Gpu_hw.Spec.volta_like in
  let nblocks = Gpu_hw.Spec.num_clusters vspec + 1 in
  let nwarps = vspec.Gpu_hw.Spec.max_threads_per_block / 32 in
  Alcotest.(check int) "1024 threads are 32 warps" 32 nwarps;
  let blocks =
    Array.init nblocks (fun b ->
        {
          Trace.block = b;
          warps = Array.init nwarps (fun _ -> dependent_chain 4);
        })
  in
  let tl = Gpu_obs.Timeline.create ~capacity:65536 () in
  let r =
    Engine.run ~homogeneous:false ~timeline:tl ~spec:vspec
      ~max_resident_blocks:2 blocks
  in
  Alcotest.(check int) "every warp launched" (nblocks * nwarps)
    r.Engine.warps_launched;
  Alcotest.(check int) "every warp retired" (nblocks * nwarps)
    r.Engine.warps_retired;
  Alcotest.(check int) "every block retired" nblocks r.Engine.blocks_retired;
  let expected = Hashtbl.create 1024 in
  for b = 0 to nblocks - 1 do
    for w = 0 to nwarps - 1 do
      Hashtbl.replace expected (10_000 + (64 * b) + w) ()
    done
  done;
  Array.iter
    (fun (s : Gpu_obs.Timeline.slice) ->
      if s.Gpu_obs.Timeline.cat = "warp" then
        Alcotest.(check bool)
          (Printf.sprintf "tid %d follows the 64-stride layout"
             s.Gpu_obs.Timeline.tid)
          true
          (Hashtbl.mem expected s.Gpu_obs.Timeline.tid))
    (Gpu_obs.Timeline.slices tl)

(* The replay counters the metrics registry exports: a full replay of a
   heterogeneous grid counts every event of the grid exactly once, and
   its replayed span in engine ticks. *)
let test_replay_counters () =
  let module M = Gpu_obs.Metrics in
  let read name = M.value (M.counter name) in
  let blocks = heterogeneous_grid 40 in
  let events =
    Array.fold_left (fun a b -> a + Trace.event_count b) 0 blocks
  in
  let events0 = read "engine.events_replayed" in
  let ticks0 = read "engine.replay_ticks" in
  ignore (Engine.run ~homogeneous:false ~spec ~max_resident_blocks:4 blocks);
  Alcotest.(check int) "events replayed" events
    (read "engine.events_replayed" - events0);
  Alcotest.(check bool) "replay ticks advance" true
    (read "engine.replay_ticks" > ticks0)

(* --- distinct clusters ------------------------------------------------------ *)

(* [kinds] heterogeneous blocks repeated cyclically over [n] blocks, each
   replica sharing its sample's warp arrays the way
   [Workflow.replicate_traces] builds a grid.  With 3 kinds, cluster c
   holds kind (c + i) mod 3 on its i-th SM; over 64 blocks clusters 0-3
   hold 7 blocks and 4-9 hold 6, so the ten clusters are six distinct
   ones: {0, 3}, {1}, {2}, {4, 7}, {5, 8} and {6, 9}. *)
let cyclic_grid ~kinds n =
  let samples = heterogeneous_grid kinds in
  Array.init n (fun b -> { samples.(b mod kinds) with Trace.block = b })

(* The same grid with every warp array copied: nothing is shared, so no
   cluster can be recognised as a repeat. *)
let unshared blocks =
  Array.map
    (fun (bt : Trace.block_trace) ->
      { bt with Trace.warps = Array.map Array.copy bt.Trace.warps })
    blocks

(* Replaying each distinct cluster once and reusing its output for the
   identical ones changes no result field: the shared grid replays like
   its timeline run (which simulates every cluster) and like its unshared
   copy, on one job and on two, and so does a sampled replay of 5
   clusters, which at this seed holds a repeat.  Only the replays that
   can see the sharing reuse, and a reused cluster adds no replayed
   events. *)
let test_distinct_clusters () =
  let module M = Gpu_obs.Metrics in
  let counter name = M.value (M.counter name) in
  let jobs = Gpu_parallel.Pool.current_jobs () in
  Fun.protect ~finally:(fun () -> Gpu_parallel.Pool.set_jobs jobs)
  @@ fun () ->
  let grid = cyclic_grid ~kinds:3 64 in
  let copies = unshared grid in
  let events_of clusters =
    let n = ref 0 in
    Array.iteri
      (fun b bt ->
        if List.mem (b mod 10) clusters then n := !n + Trace.event_count bt)
      grid;
    !n
  in
  let events = events_of (List.init 10 Fun.id) in
  let distinct_events = events_of [ 0; 1; 2; 4; 5; 6 ] in
  let sample = { Engine.fraction = 0.5; seed = 11 } in
  (* A replay's result, and how far it moved the reuse, event and
     fan-out counters. *)
  let replay ?timeline ?sample blocks =
    let names =
      [
        "engine.clusters_reused";
        "engine.events_replayed";
        "engine.clusters_parallel";
      ]
    in
    let before = List.map counter names in
    let r =
      Engine.run ~homogeneous:false ?timeline ?sample ~spec
        ~max_resident_blocks:4 blocks
    in
    (r, List.map2 (fun n b -> counter n - b) names before)
  in
  let fields (r : Engine.result) =
    [
      r.Engine.cycles;
      r.Engine.alu_busy_cycles;
      r.Engine.smem_busy_cycles;
      r.Engine.atomic_busy_cycles;
      r.Engine.gmem_busy_cycles;
      r.Engine.sms_simulated;
      r.Engine.clusters_simulated;
      r.Engine.warps_launched;
      r.Engine.warps_retired;
      r.Engine.blocks_retired;
      r.Engine.blocks_unlaunched;
    ]
  in
  List.iter
    (fun j ->
      Gpu_parallel.Pool.set_jobs j;
      let at what = Printf.sprintf "%s, %d job(s)" what j in
      let same what (a : Engine.result) (b : Engine.result) =
        Alcotest.(check (list int)) (at what) (fields a) (fields b);
        Alcotest.(check bool) (at (what ^ ", sampled estimate")) true
          (a.Engine.sampled = b.Engine.sampled)
      in
      let moved what want got =
        Alcotest.(check (list int))
          (at (what ^ ": reused, events, fanned out"))
          want got
      in
      let tl = Gpu_obs.Timeline.create ~capacity:((4 * events) + 1000) () in
      let shared, m_shared = replay grid in
      let recorded, m_recorded = replay ~timeline:tl grid in
      let copied, m_copied = replay copies in
      let sampled, m_sampled = replay ~sample grid in
      let sampled_copies, m_sampled_copies = replay ~sample copies in
      same "timeline" shared recorded;
      same "unshared" shared copied;
      same "sampled" sampled sampled_copies;
      Alcotest.(check int) (at "ten clusters") 10
        shared.Engine.clusters_simulated;
      Alcotest.(check bool) (at "a sampled subset") true
        (sampled.Engine.sampled <> None);
      let fanned n = if j > 1 then n else 0 in
      moved "shared" [ 4; distinct_events; fanned 6 ] m_shared;
      moved "timeline" [ 0; events; 0 ] m_recorded;
      moved "unshared" [ 0; events; fanned 10 ] m_copied;
      Alcotest.(check bool) (at "the sample reuses") true
        (List.hd m_sampled > 0);
      Alcotest.(check int) (at "sampled copies reuse none") 0
        (List.hd m_sampled_copies))
    [ 1; 2 ]

(* --- pinned schedules --------------------------------------------------------- *)

(* [heterogeneous_grid 40]'s replay, pinned.  Busy equality with
   [expected_busy] holds whatever order the engine gives equal-time
   events, and the serial-vs-parallel check runs the same queue on both
   sides, so only a golden notices a change of tie order.  A queue that
   breaks ties the other way (a non-strict sift-up) moves these to
   4077 / 3848 / 8216; a grid of identical warps would not notice, since
   ties between symmetric warps do not change the result. *)
let test_schedule_goldens () =
  let blocks = heterogeneous_grid 40 in
  let full =
    Engine.run ~homogeneous:false ~spec ~max_resident_blocks:4 blocks
  in
  Alcotest.(check int) "cycles" 4065 full.Engine.cycles;
  Alcotest.(check int) "alu busy" 28_800 full.Engine.alu_busy_cycles;
  Alcotest.(check int) "smem busy" 0 full.Engine.smem_busy_cycles;
  Alcotest.(check int) "atomic busy" 2550 full.Engine.atomic_busy_cycles;
  Alcotest.(check int) "gmem busy" 840 full.Engine.gmem_busy_cycles;
  let sampled =
    Engine.run ~homogeneous:false
      ~sample:{ Engine.fraction = 0.3; seed = 7 }
      ~spec ~max_resident_blocks:4 blocks
  in
  match sampled.Engine.sampled with
  | None -> Alcotest.fail "expected a sampled estimate"
  | Some e ->
    Alcotest.(check int) "sampled cycles_low" 3840 e.Engine.cycles_low;
    Alcotest.(check int) "sampled cycles_high" 8190 e.Engine.cycles_high

(* One warp with every event shape the cook distinguishes: plain ALU, a
   predicate destination, plain and fused shared access, an atomic, a
   multi-transaction global load, a store, a barrier and an empty load. *)
let every_kind_warp () =
  [|
    { Trace.cls = I.Class_ii; dst = 3; srcs = [| 1; 2 |];
      mem = Trace.No_mem; bar = false };
    { Trace.cls = I.Class_iii; dst = Trace.pred_reg_base + 2;
      srcs = [| 3 |]; mem = Trace.No_mem; bar = false };
    { Trace.cls = I.Class_mem; dst = 4; srcs = [||];
      mem = Trace.Smem 16; bar = false };
    { Trace.cls = I.Class_ii; dst = 5; srcs = [| 4; 3 |];
      mem = Trace.Smem 2; bar = false };
    { Trace.cls = I.Class_mem; dst = 9; srcs = [| 4 |];
      mem = Trace.Smem_atomic 16; bar = false };
    { Trace.cls = I.Class_mem; dst = 6; srcs = [| 5 |];
      mem = Trace.Gmem_load [| (0, 64); (128, 32); (4096, 128) |];
      bar = false };
    { Trace.cls = I.Class_mem; dst = Trace.no_reg; srcs = [| 6 |];
      mem = Trace.Gmem_store [| (256, 64) |]; bar = false };
    { Trace.cls = I.Class_ctrl; dst = Trace.no_reg; srcs = [||];
      mem = Trace.No_mem; bar = true };
    { Trace.cls = I.Class_mem; dst = 7; srcs = [||];
      mem = Trace.Gmem_load [||]; bar = false };
  |]

(* Replaying that warp charges each pipeline exactly what the summation
   oracle says, which pins the cost the cook assigns to every event kind.
   Twelve blocks (two clusters carry two) of a shared and a distinct copy
   of the warp exercise the interning too. *)
let test_every_kind_busy () =
  let shared = every_kind_warp () in
  let blocks =
    Array.init 12 (fun b ->
        { Trace.block = b; warps = [| shared; every_kind_warp (); shared |] })
  in
  let r = Engine.run ~homogeneous:false ~spec ~max_resident_blocks:4 blocks in
  let e = Engine.expected_busy ~spec blocks in
  Alcotest.(check int) "alu busy" e.Engine.alu_cycles r.Engine.alu_busy_cycles;
  Alcotest.(check int) "smem busy" e.Engine.smem_cycles
    r.Engine.smem_busy_cycles;
  Alcotest.(check int) "atomic busy" e.Engine.atomic_cycles
    r.Engine.atomic_busy_cycles;
  Alcotest.(check int) "gmem busy" e.Engine.gmem_cycles
    r.Engine.gmem_busy_cycles;
  Alcotest.(check bool) "every pipeline charged" true
    (e.Engine.alu_cycles > 0 && e.Engine.smem_cycles > 0
    && e.Engine.atomic_cycles > 0 && e.Engine.gmem_cycles > 0);
  Alcotest.(check int) "every warp retired" (12 * 3) r.Engine.warps_retired

(* --- event queue ------------------------------------------------------------ *)

(* The textbook swap-based heap, the reference for the queue's pop order:
   equal keys must leave in exactly its order, because the engine's
   schedule depends on which of two equal-time warps goes first. *)
module Ref_heap = struct
  type t = { mutable keys : int array; mutable data : int array; mutable size : int }

  let create () = { keys = Array.make 4 0; data = Array.make 4 0; size = 0 }

  let swap t i j =
    let k = t.keys.(i) and d = t.data.(i) in
    t.keys.(i) <- t.keys.(j);
    t.data.(i) <- t.data.(j);
    t.keys.(j) <- k;
    t.data.(j) <- d

  let rec sift_up t i =
    if i > 0 then begin
      let parent = (i - 1) / 2 in
      if t.keys.(i) < t.keys.(parent) then begin
        swap t i parent;
        sift_up t parent
      end
    end

  let rec sift_down t i =
    let l = (2 * i) + 1 and r = (2 * i) + 2 in
    let smallest = ref i in
    if l < t.size && t.keys.(l) < t.keys.(!smallest) then smallest := l;
    if r < t.size && t.keys.(r) < t.keys.(!smallest) then smallest := r;
    if !smallest <> i then begin
      swap t i !smallest;
      sift_down t !smallest
    end

  let add t ~key v =
    if t.size = Array.length t.keys then begin
      t.keys <- Array.append t.keys t.keys;
      t.data <- Array.append t.data t.data
    end;
    t.keys.(t.size) <- key;
    t.data.(t.size) <- v;
    t.size <- t.size + 1;
    sift_up t (t.size - 1)

  let pop t =
    let key = t.keys.(0) and v = t.data.(0) in
    t.size <- t.size - 1;
    t.keys.(0) <- t.keys.(t.size);
    t.data.(0) <- t.data.(t.size);
    if t.size > 0 then sift_down t 0;
    (key, v)
end

(* Replays [ops] seeded add/pop steps (an add with probability
   [adds]/5, or whenever the heap is empty) on the queue and on
   [Ref_heap], keys drawn by [key], then drains both; every pop must
   agree on key and payload. *)
let heap_agrees ~run ~rng ~ops ~adds key =
  let module H = Gpu_timing.Heap in
  let h = H.create () and r = Ref_heap.create () in
  let next = ref 0 and peak = ref 0 in
  let pop () =
    let key = H.min_key h in
    let v = H.pop_min h in
    let key', v' = Ref_heap.pop r in
    if key <> key' || v <> v' then
      Alcotest.failf "run %d: popped (%d, %d), reference (%d, %d)" run key v
        key' v'
  in
  for _ = 1 to ops do
    if H.is_empty h || Random.State.int rng 5 < adds then begin
      let key = key h in
      H.add h ~key !next;
      Ref_heap.add r ~key !next;
      incr next;
      peak := max !peak r.Ref_heap.size
    end
    else pop ()
  done;
  while not (H.is_empty h) do
    pop ()
  done;
  Alcotest.(check int) "both drained" 0 r.Ref_heap.size;
  !peak

(* Seeded random add/pop sequences over a handful of distinct keys (so
   nearly every comparison is a tie): half the runs draw keys from a small
   range, half push event times at or shortly after the current minimum,
   as the engine does.  Then runs at the key range's edges — negative
   keys, 0 and [max_int - k], where [max_int] equals the sentinel that
   fills the slots past the end — and runs that mostly add, so the queue
   grows past 64 and 128 entries and [grow] doubles it twice. *)
let test_heap_tie_order () =
  let module H = Gpu_timing.Heap in
  let rng = Random.State.make [| 2011 |] in
  for run = 1 to 200 do
    ignore
      (heap_agrees ~run ~rng ~ops:400 ~adds:3 (fun h ->
           if run mod 2 = 0 then Random.State.int rng 6
           else if H.is_empty h then 0
           else H.min_key h + Random.State.int rng 3))
  done;
  let edges = [| min_int; -7; -1; 0; max_int - 2; max_int - 1; max_int |] in
  let edge _ = edges.(Random.State.int rng (Array.length edges)) in
  for run = 201 to 300 do
    let adds = if run mod 2 = 0 then 4 else 3 in
    let peak = heap_agrees ~run ~rng ~ops:400 ~adds edge in
    if adds = 4 && peak <= 128 then
      Alcotest.failf "run %d peaked at %d entries, not past 128" run peak
  done

let test_heap_empty_raises () =
  let module H = Gpu_timing.Heap in
  let h = H.create () in
  let raises name f =
    match f () with
    | _ -> Alcotest.failf "%s on an empty heap returned" name
    | exception Invalid_argument _ -> ()
  in
  raises "min_key" (fun () -> H.min_key h);
  raises "pop_min" (fun () -> H.pop_min h);
  H.add h ~key:5 1;
  Alcotest.(check int) "payload" 1 (H.pop_min h);
  Alcotest.(check bool) "drained" true (H.is_empty h);
  raises "min_key after draining" (fun () -> H.min_key h);
  raises "pop_min after draining" (fun () -> H.pop_min h)

(* --- steady-state fast-forward --------------------------------------------- *)

let counter name = Gpu_obs.Metrics.(value (counter name))

(* Every field of a result but [stages_busy], which only a timeline run
   fills. *)
let result_fields (r : Engine.result) =
  [
    r.Engine.cycles;
    r.Engine.alu_busy_cycles;
    r.Engine.smem_busy_cycles;
    r.Engine.atomic_busy_cycles;
    r.Engine.gmem_busy_cycles;
    r.Engine.sms_simulated;
    r.Engine.clusters_simulated;
    r.Engine.warps_launched;
    r.Engine.warps_retired;
    r.Engine.blocks_retired;
    r.Engine.blocks_unlaunched;
  ]

type ff_moved = {
  replayed : int;
  skipped : int;
  fast_forwards : int;
  rollbacks : int;
}

(* A replay with the fast-forward on, and the same replay with a
   timeline, which turns it off and simulates every event: both results,
   and how far the first moved the engine's counters. *)
let replay_both ?(spec = spec) ?(homogeneous = true) ~max_resident blocks =
  let names =
    [
      "engine.events_replayed";
      "engine.events_skipped";
      "engine.fast_forwards";
      "engine.ff_rollbacks";
    ]
  in
  let before = List.map counter names in
  let fast =
    Engine.run ~homogeneous ~spec ~max_resident_blocks:max_resident blocks
  in
  let moved =
    match List.map2 (fun n b -> counter n - b) names before with
    | [ replayed; skipped; fast_forwards; rollbacks ] ->
      { replayed; skipped; fast_forwards; rollbacks }
    | _ -> assert false
  in
  let timeline = Gpu_obs.Timeline.create ~capacity:64 () in
  let full =
    Engine.run ~homogeneous ~timeline ~spec ~max_resident_blocks:max_resident
      blocks
  in
  (fast, full, moved)

(* The warp traces calibration replays: each class's chain at both
   lengths, and the shared-memory copy at both pair counts. *)
let calibration_traces spec =
  let trace ~smem_bytes program =
    Gpu_microbench.Runner.warp_trace ~spec
      (Gpu_microbench.Runner.wrap ~param_regs:[] ~smem_bytes program)
  in
  let chain cls n =
    ( Printf.sprintf "%s chain of %d" (I.cost_class_name cls) n,
      trace ~smem_bytes:0 (Gpu_microbench.Codegen.instruction_chain ~cls ~n) )
  in
  let copy n =
    let program, smem_bytes =
      Gpu_microbench.Codegen.shared_copy ~threads:32 ~n
    in
    (Printf.sprintf "copy of %d pairs" n, trace ~smem_bytes program)
  in
  List.concat_map
    (fun cls -> [ chain cls 384; chain cls 768 ])
    [ I.Class_i; I.Class_ii; I.Class_iii; I.Class_iv ]
  @ [ copy 256; copy 512 ]

(* Every calibration replay, on GT200 and volta-like, at every warp
   count: the fast-forwarded replay equals its timeline run in every
   result field, skips part of its trace whenever more than one warp
   runs (one warp coalesces its whole trace into one activation and is
   never popped again), and accounts for every event without a
   rollback. *)
let test_calibration_fast_forward () =
  List.iter
    (fun (s : Gpu_hw.Spec.t) ->
      List.iter
        (fun (name, trace) ->
          for w = 1 to 32 do
            let at = Printf.sprintf "%s, %s at %d warps" s.name name w in
            let block = { Trace.block = 0; warps = Array.make w trace } in
            let fast, full, m =
              replay_both ~spec:s ~max_resident:1 [| block |]
            in
            Alcotest.(check (list int)) at (result_fields full)
              (result_fields fast);
            Alcotest.(check int) (at ^ ": no rollback") 0 m.rollbacks;
            Alcotest.(check int)
              (at ^ ": replayed + skipped")
              (w * Array.length trace)
              (m.replayed + m.skipped);
            if w >= 2 && m.fast_forwards = 0 then
              Alcotest.failf "%s: no fast-forward" at
          done)
        (calibration_traces s))
    [ Gpu_hw.Spec.gtx285; Gpu_hw.Spec.volta_like ]

(* Two warps sharing a long chain that fast-forwards, then a barrier:
   its release queues both warps at one key, so the next pop is tied
   after the skip.  The replay rolls back, and the rerun without
   fast-forward equals the timeline run. *)
let test_rollback_after_skip () =
  let bar =
    { (alu_event ~dst:Trace.no_reg I.Class_ctrl) with Trace.bar = true }
  in
  let warp =
    Array.concat [ dependent_chain 400; [| bar |]; dependent_chain 4 ]
  in
  let block = { Trace.block = 0; warps = [| warp; warp |] } in
  let fast, full, m = replay_both ~max_resident:1 [| block |] in
  Alcotest.(check (list int)) "equals the timeline run" (result_fields full)
    (result_fields fast);
  Alcotest.(check int) "one rollback" 1 m.rollbacks;
  Alcotest.(check int) "the kept replay skipped nothing" 0 m.skipped;
  Alcotest.(check int) "and kept no fast-forward" 0 m.fast_forwards;
  Alcotest.(check bool) "the rerun simulated every event" true
    (m.replayed > 2 * Array.length warp)

(* Two warps of latency-bound global loads, then an exit: the skip lands
   on the exit, which retires before the skipped loads complete, so only
   the skipped periods' highest horizon, moved by the skip, sets the end
   time. *)
let test_skipped_horizon_sets_end () =
  let load =
    { Trace.cls = I.Class_mem; dst = 5; srcs = [||];
      mem = Trace.Gmem_load [| (0, 64) |]; bar = false }
  in
  let warp = Array.append (Array.make 200 load) [| exit_event |] in
  let block = { Trace.block = 0; warps = [| warp; warp |] } in
  let fast, full, m = replay_both ~max_resident:1 [| block |] in
  Alcotest.(check (list int)) "equals the timeline run" (result_fields full)
    (result_fields fast);
  Alcotest.(check bool) "fast-forwarded" true (m.fast_forwards > 0);
  Alcotest.(check int) "no rollback" 0 m.rollbacks

(* --- allocation budget ------------------------------------------------------ *)

(* Words allocated per replayed event, cooking included.  Arrays longer
   than 256 words skip the minor heap, so minor words alone would miss
   most of a cook: this counts minor + major - promoted.  The minor count
   comes from [Gc.minor_words], which reads the allocation pointer; on
   OCaml 5 the [Gc.quick_stat] and [Gc.counters] minor counts are only
   brought up to date at minor collections. *)
let words_per_event run =
  let events = Gpu_obs.Metrics.counter "engine.events_replayed" in
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let e0 = Gpu_obs.Metrics.value events in
  let w0 = words () in
  run ();
  let w1 = words () in
  (w1 -. w0) /. float_of_int (Gpu_obs.Metrics.value events - e0)

(* A [len]-event warp whose registers depend on [seed], so warps of
   different seeds differ at every event: dependent arithmetic, plain and
   fused shared accesses, a global load every 16 events and a barrier
   every 50. *)
let mixed_warp ~seed len =
  let r k = (seed + k) mod 120 in
  Array.init len (fun i ->
      if i mod 50 = 49 then
        { Trace.cls = I.Class_ctrl; dst = Trace.no_reg; srcs = [||];
          mem = Trace.No_mem; bar = true }
      else if i mod 16 = 0 then
        { Trace.cls = I.Class_mem; dst = r i; srcs = [| r (i + 1) |];
          mem = Trace.Gmem_load [| (64 * i, 64) |]; bar = false }
      else if i mod 8 = 3 then
        { Trace.cls = I.Class_ii; dst = r i; srcs = [| r (i + 3); r i |];
          mem = Trace.Smem 2; bar = false }
      else alu_event ~dst:(r i) ~srcs:[| r (i + 7) |] I.Class_ii)

(* Words allocated by one call. *)
let words_of run =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let w0 = words () in
  run ();
  words () -. w0

(* A replay that fast-forwards allocates per warp and per event of its
   one distinct trace (the cook: 7 words an event of a one-source chain),
   not per event replayed: thirty more warps cost a few hundred words
   each, and four times the trace length costs its cook alone, while the
   replayed events grow by 30 * 4000 and 32 * 12000. *)
let test_fast_forward_allocation () =
  let jobs = Gpu_parallel.Pool.current_jobs () in
  Gpu_parallel.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Gpu_parallel.Pool.set_jobs jobs)
  @@ fun () ->
  let replay ~warps ~n =
    let trace = dependent_chain n in
    let blocks = [| { Trace.block = 0; warps = Array.make warps trace } |] in
    let skipped = counter "engine.events_skipped" in
    let words =
      words_of (fun () ->
          ignore
            (Engine.run ~homogeneous:true ~spec ~max_resident_blocks:1 blocks))
    in
    let skipped = counter "engine.events_skipped" - skipped in
    if skipped < 9 * warps * n / 10 then
      Alcotest.failf "%d warps of %d events skipped only %d" warps n skipped;
    words
  in
  let a = replay ~warps:2 ~n:4000 in
  let b = replay ~warps:32 ~n:4000 in
  let c = replay ~warps:32 ~n:16000 in
  let per_warp = (b -. a) /. 30. and per_event = (c -. b) /. 12000. in
  if per_warp > 400. then
    Alcotest.failf "%.0f words per added warp (budget 400)" per_warp;
  if per_event > 8. then
    Alcotest.failf "%.2f words per added event of the trace (budget 8)"
      per_event

let test_replay_allocation_budget () =
  let jobs = Gpu_parallel.Pool.current_jobs () in
  (* serial replay: every word is allocated on this domain *)
  Gpu_parallel.Pool.set_jobs 1;
  Fun.protect ~finally:(fun () -> Gpu_parallel.Pool.set_jobs jobs)
  @@ fun () ->
  (* Budgets leave headroom over the measured 1.33 and 9.0 words:
     per-launch state (a [warp_state] and its 141-word scoreboard) and,
     in the second grid, the cook's seven arrays and its [used] register
     list.  A boxed [(key, warp)] per pop would cost 5 words an event on
     its own. *)
  let check name ~budget per_event =
    if per_event > budget then
      Alcotest.failf "%s allocates %.2f words per replayed event (budget %.1f)"
        name per_event budget
  in
  (* One 8-warp block replicated (physically shared) over 200 blocks:
     the ten clusters are identical, so one replays 32 000 events and the
     other nine reuse its output without being cooked.  What shows is the
     per-event and per-launch cost of the scheduler, plus the simulated
     cluster's 20 cooked block records and each of the 200 blocks' queue
     cell.  The warps differ at every event, so nothing fast-forwards. *)
  let block = Array.init 8 (fun w -> mixed_warp ~seed:w 200) in
  let homogeneous =
    Array.init 200 (fun b -> { Trace.block = b; warps = block })
  in
  check "replicated block" ~budget:2.0
    (words_per_event (fun () ->
         ignore
           (Engine.run ~homogeneous:false ~spec ~max_resident_blocks:4
              homogeneous)));
  (* 1000 distinct warps of one length, every one cooked. *)
  let distinct =
    Array.init 250 (fun b ->
        {
          Trace.block = b;
          warps = Array.init 4 (fun w -> mixed_warp ~seed:((4 * b) + w) 200);
        })
  in
  check "1000 distinct warps" ~budget:17.
    (words_per_event (fun () ->
         ignore
           (Engine.run ~homogeneous:false ~spec ~max_resident_blocks:4
              distinct)))

let () =
  Alcotest.run "timing"
    [
      ( "pipelines",
        [
          Alcotest.test_case "dependent chain latency" `Quick
            test_dependent_chain_latency;
          Alcotest.test_case "throughput saturation" `Quick
            test_throughput_saturates;
          Alcotest.test_case "warps help" `Quick test_more_warps_faster;
          Alcotest.test_case "global load latency" `Quick
            test_gmem_load_latency;
          Alcotest.test_case "bank conflicts cost" `Quick
            test_smem_conflicts_slow;
          Alcotest.test_case "atomic contention cost" `Quick
            test_atomic_contention_slows;
          Alcotest.test_case "atomics share the shared pipe" `Quick
            test_atomic_shares_shared_pipe;
        ] );
      ( "scheduling",
        [
          Alcotest.test_case "barriers" `Quick test_barrier_waits;
          Alcotest.test_case "block waves" `Quick test_block_scheduling;
          Alcotest.test_case "cluster sharing" `Quick test_cluster_sharing;
          Alcotest.test_case "early release" `Quick test_early_release;
          Alcotest.test_case "homogeneous shortcut" `Quick
            test_homogeneous_shortcut;
        ] );
      ( "replay throughput",
        [
          Alcotest.test_case "parallel clusters bit-identical" `Quick
            test_parallel_bit_identical;
          Alcotest.test_case "sampled replay bounds" `Quick
            test_sampled_bounds;
          Alcotest.test_case "replay counters" `Quick test_replay_counters;
          Alcotest.test_case "distinct clusters replay once" `Quick
            test_distinct_clusters;
          Alcotest.test_case "schedule goldens" `Quick test_schedule_goldens;
          Alcotest.test_case "every event kind's busy cost" `Quick
            test_every_kind_busy;
        ] );
      ( "event queue",
        [
          Alcotest.test_case "tie order matches the swap heap" `Quick
            test_heap_tie_order;
          Alcotest.test_case "empty heap raises" `Quick
            test_heap_empty_raises;
        ] );
      ( "hot path",
        [
          Alcotest.test_case "allocation budget" `Quick
            test_replay_allocation_budget;
          Alcotest.test_case "fast-forward allocates per warp" `Quick
            test_fast_forward_allocation;
        ] );
      ( "fast-forward",
        [
          Alcotest.test_case "calibration replays equal their timeline runs"
            `Quick test_calibration_fast_forward;
          Alcotest.test_case "a tied pop after a skip rolls back" `Quick
            test_rollback_after_skip;
          Alcotest.test_case "skipped horizons set the end time" `Quick
            test_skipped_horizon_sets_end;
        ] );
      ( "timeline tracks",
        [
          Alcotest.test_case "warp tids stay distinct past 64 warps" `Quick
            test_warp_tid_no_collision_past_64;
          Alcotest.test_case "volta-like 1024-thread block launch" `Quick
            test_volta_like_full_block_launch;
        ] );
    ]
