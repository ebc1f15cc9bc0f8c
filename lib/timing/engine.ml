(* Cycle-approximate timing simulator of a GT200-class GPU: the stand-in
   for the physical GTX 285 the paper measures its microbenchmarks on.

   The model, per SM:
     - warps issue in program order; an instruction may not issue before its
       source and destination registers are ready (in-order scoreboard);
     - arithmetic instructions share one issue pipeline; a warp instruction
       of a class with U functional units occupies it for warp_size/U
       cycles and completes alu_latency cycles after it starts (so a
       dependent chain from W warps saturates the pipe only once
       W * warp_size/U >= alu_latency — the shape of Figure 2, left);
     - shared-memory accesses occupy the SM's shared-memory pipeline for
       smem_access_cycles per (conflict-adjusted) half-warp transaction and
       complete smem_latency cycles later (Figure 2, right);
     - global accesses occupy the *cluster* memory pipeline (3 SMs share
       one, giving Figure 3 its sawtooth) for a per-transaction service
       time, and load destinations become ready a gmem_latency round trip
       after service;
     - barriers park a warp until every live warp of its block arrives;
     - a block's resources are released when its last warp finishes, at
       which point the SM launches the next pending block (or, with the
       early-release what-if of Section 5.2, a block launches as soon as
       enough per-warp slots have retired).

   Clusters are independent, so the grid's execution time is the maximum
   over clusters; for homogeneous workloads only the most-loaded cluster is
   simulated.

   Throughput (DESIGN §14): before replay every distinct warp trace —
   distinct by physical identity, which the workflow's cyclic trace
   replication preserves, interned under the content key [Trace.key] — is
   cooked once per [run] straight from its events: per-event kind codes,
   mapped registers and pipeline costs precomputed from the device
   parameters.  Calibration, which replays each of its traces at 32 warp
   counts, cooks each once ([cook_warp]) and replays the cooked warp
   ([replay_shared]) through the same cluster simulation.  The replay loop is then index arithmetic over shared
   read-only arrays, and allocates nothing per event: the event queue is a
   heap of int warp-slot indices into a per-cluster slot table.  On top of
   that, consecutive events of a warp that would re-enter the event queue
   strictly before every queued event are coalesced into one heap
   transaction (provably the same schedule as push-then-pop).  On the
   heterogeneous path each distinct cluster — distinct by the warp arrays
   its SMs queue, keyed before anything is cooked — is simulated once and
   its output reused for every identical cluster, and the distinct
   clusters fan out over the domain pool with a deterministic
   cluster-order reduction — bit-identical to the serial fold.  A cluster
   that settles into a steady state skips its repeating periods exactly
   (the steady-state fast-forward below).  [?sample] replays a seeded
   subset of clusters and extrapolates (see {!sampled_estimate}).

   Observability: [run ?timeline] optionally records every pipeline busy
   interval and warp hold/park interval into a [Gpu_obs.Timeline], plus a
   per-barrier-stage busy attribution ([stages_busy]).  The pipe slices
   tile exactly: per category their durations sum to the engine's busy
   tick counters, which the lib/check audit asserts.  With no timeline the
   recording paths are a [None] match per event — no allocation, no
   measurable cost.  Because the recorder's stage accumulators are shared
   mutable state, a timeline forces the serial cluster path, and it
   simulates every cluster, identical or not, so each records its own
   slices, and turns the fast-forward off, so every event is recorded. *)

module Trace = Gpu_sim.Trace
module Metrics = Gpu_obs.Metrics
module Pool = Gpu_parallel.Pool

type stage_busy = {
  alu_ticks : int;
  smem_ticks : int;
  atomic_ticks : int;
  gmem_ticks : int;
}

type sampled_estimate = {
  clusters_sampled : int;
  clusters_total : int; (* non-empty clusters the full replay would run *)
  blocks_sampled : int;
  cycles_low : int;
      (* the sampled maximum: a guaranteed lower bound on the full-replay
         cycles, since the sampled clusters are a subset of all *)
  cycles_high : int; (* heuristic upper estimate (see [estimate_high]) *)
}

type result = {
  cycles : int;
  seconds : float;
  alu_busy_cycles : int; (* summed over simulated SMs *)
  smem_busy_cycles : int;
  atomic_busy_cycles : int; (* atomic share of the shared pipe, per SM *)
  gmem_busy_cycles : int; (* summed over simulated clusters *)
  sms_simulated : int;
  clusters_simulated : int;
  (* Conservation accounting over the simulated clusters: the checking
     harness (lib/check) asserts launched = retired and nothing left
     pending — a liveness violation (deadlocked barrier, leaked block
     slot) shows up here instead of as a silently-short simulation. *)
  warps_launched : int;
  warps_retired : int;
  blocks_retired : int;
  blocks_unlaunched : int; (* left in SM pending queues at exhaustion *)
  stages_busy : stage_busy array;
      (* per-barrier-stage busy ticks over the simulated clusters; empty
         unless a timeline was recording *)
  sampled : sampled_estimate option;
      (* present iff the replay ran on a sampled cluster subset *)
}

type sample = { fraction : float; seed : int }

let reg_slots = 140 (* 128 general registers + mapped predicates *)

let map_reg id =
  if id >= Trace.pred_reg_base then 128 + (id - Trace.pred_reg_base)
  else id

(* All engine times are in TICKS of a tenth of a core cycle, so that
   fractional issue occupancies are exact: a class I warp instruction holds
   its 10 units for 32 ticks = 3.2 cycles, which is what lets class I
   exceed class II throughput in Figure 2. *)
let ticks_per_cycle = 10

type params = {
  spec : Gpu_hw.Spec.t;
  issue : int array; (* issue ticks per cost class index *)
  alu_latency : int; (* ticks *)
  smem_latency : int; (* ticks *)
  smem_access : int; (* ticks per half-warp transaction *)
  smem_replay : int; (* warp-hold ticks per serialized transaction *)
  gmem_latency : int; (* ticks *)
  mem_dispatch : int; (* warp-occupancy ticks of dispatching a memory access *)
  warp_gap : int; (* minimum ticks between issues of one warp *)
  gmem_txn_ticks : int -> int; (* service ticks for a transaction size *)
}

let make_params (spec : Gpu_hw.Spec.t) =
  let issue =
    Array.init Gpu_sim.Stats.num_classes (fun i ->
        let units =
          Gpu_hw.Spec.units_for spec (Gpu_sim.Stats.class_of_index i)
        in
        (ticks_per_cycle * spec.warp_size + units - 1) / units)
  in
  let bytes_per_cycle = Gpu_hw.Spec.gmem_bytes_per_cycle_per_cluster spec in
  let gmem_txn_ticks size =
    int_of_float
      (ceil
         (float_of_int ticks_per_cycle
         *. (spec.gmem_overhead_cycles
            +. (float_of_int size /. bytes_per_cycle))))
  in
  {
    spec;
    issue;
    alu_latency = ticks_per_cycle * spec.alu_latency;
    smem_latency = ticks_per_cycle * spec.smem_latency;
    smem_access =
      int_of_float
        (Float.round (float_of_int ticks_per_cycle *. spec.smem_access_cycles));
    smem_replay =
      int_of_float
        (Float.round (float_of_int ticks_per_cycle *. spec.smem_replay_cycles));
    gmem_latency = ticks_per_cycle * spec.gmem_latency;
    mem_dispatch = 4 * ticks_per_cycle;
    warp_gap = ticks_per_cycle * spec.warp_issue_gap;
    gmem_txn_ticks;
  }

(* --- cooked traces ------------------------------------------------------ *)

(* Per-event kind codes.  The fused/plain shared-memory split is decided at
   cook time (an arithmetic class with a shared operand vs a plain LSU
   load/store) so the replay loop dispatches on one integer. *)
let k_alu = 0
let k_smem = 1
let k_smem_fused = 2
let k_gmem_load = 3
let k_gmem_store = 4
let k_bar = 5
let k_atomic = 6

(* One warp trace, cooked once per [run]: per-event kind codes, mapped
   registers and pipeline costs under the run's device parameters, so the
   replay loop never touches an event record, never recomputes an issue
   occupancy and never folds over a transaction list.  Immutable, shared
   read-only across every block replicating this warp and across worker
   domains. *)
type cooked = {
  n : int; (* event count *)
  kind : int array; (* [k_*] code per event *)
  soff : int array; (* source offsets into [msrcs], length n+1 *)
  occ : int array; (* issue-pipe ticks (alu, or the fused smem charge) *)
  busy : int array; (* smem/gmem pipe busy ticks *)
  hold : int array; (* warp hold ticks counted from the event's start *)
  mdst : int array; (* [map_reg]-mapped destination slot, or -1 *)
  msrcs : int array; (* mapped sources, event by event *)
  used : int array;
      (* the mapped registers some event names, ascending: the only
         scoreboard entries the replay ever reads *)
}

(* The distinct registers [mdst] and [msrcs] name, marked in [scratch]
   (one byte per register slot, all zero on entry and on exit). *)
let used_regs scratch ~mdst ~msrcs =
  let count = ref 0 in
  let mark regs =
    for i = 0 to Array.length regs - 1 do
      let r = regs.(i) in
      if r >= 0 && Bytes.get scratch r = '\000' then begin
        Bytes.set scratch r '\001';
        incr count
      end
    done
  in
  mark mdst;
  mark msrcs;
  let used = Array.make !count 0 in
  let j = ref 0 in
  for r = 0 to reg_slots - 1 do
    if Bytes.get scratch r <> '\000' then begin
      Bytes.set scratch r '\000';
      used.(!j) <- r;
      incr j
    end
  done;
  used

(* One pass over the events after sizing [msrcs]: only the arrays the
   replay loop reads are allocated, plus the [used] register list. *)
let cook p scratch (wt : Trace.warp_trace) =
  let n = Array.length wt in
  let nsrcs = ref 0 in
  for i = 0 to n - 1 do
    nsrcs := !nsrcs + Array.length wt.(i).Trace.srcs
  done;
  let kind = Array.make n k_alu in
  let soff = Array.make (n + 1) 0 in
  let occ = Array.make n 0 in
  let busy = Array.make n 0 in
  let hold = Array.make n 0 in
  let mdst = Array.make n (-1) in
  let msrcs = Array.make !nsrcs 0 in
  (* Atomics time like shared accesses — same pipe, same per-transaction
     occupancy — but their transaction count is the contention-serialized
     one and their busy ticks land in a separate counter. *)
  let smem i txns =
    busy.(i) <- txns * p.smem_access;
    hold.(i) <- max p.warp_gap (txns * p.smem_replay)
  in
  let gmem i txns =
    busy.(i) <-
      Array.fold_left (fun acc (_, size) -> acc + p.gmem_txn_ticks size) 0 txns;
    hold.(i) <- max p.mem_dispatch p.warp_gap
  in
  let si = ref 0 in
  for i = 0 to n - 1 do
    let (e : Trace.event) = wt.(i) in
    soff.(i) <- !si;
    for j = 0 to Array.length e.srcs - 1 do
      msrcs.(!si) <- map_reg e.srcs.(j);
      incr si
    done;
    if e.dst >= 0 then mdst.(i) <- map_reg e.dst;
    if e.bar then kind.(i) <- k_bar
    else
      match e.mem with
      | Trace.No_mem ->
        let o = p.issue.(Gpu_sim.Stats.class_index e.cls) in
        occ.(i) <- o;
        hold.(i) <- max o p.warp_gap
      | Trace.Smem txns when e.cls <> Gpu_isa.Instr.Class_mem ->
        kind.(i) <- k_smem_fused;
        occ.(i) <- p.issue.(Gpu_sim.Stats.class_index e.cls);
        smem i txns
      | Trace.Smem txns ->
        kind.(i) <- k_smem;
        smem i txns
      | Trace.Smem_atomic txns ->
        kind.(i) <- k_atomic;
        smem i txns
      | Trace.Gmem_load txns ->
        kind.(i) <- k_gmem_load;
        gmem i txns
      | Trace.Gmem_store txns ->
        kind.(i) <- k_gmem_store;
        gmem i txns
  done;
  soff.(n) <- !si;
  let used = used_regs scratch ~mdst ~msrcs in
  { n; kind; soff; occ; busy; hold; mdst; msrcs; used }

(* A block lowered to its cooked warps: what the scheduler queues. *)
type cblock = { cbid : int; cwarps : cooked array }

(* Interning table keyed by *physical* identity of the warp-trace array:
   [Workflow.replicate_traces] replicates blocks by sharing the sampled
   warp arrays, so a g-block grid built from n samples cooks n blocks'
   worth of warps, not g.  [Trace.key] hashes content at a fixed cost per
   lookup; a key collision between distinct arrays only lengthens a
   bucket, never merges their cooks. *)
module WT = Hashtbl.Make (struct
  type t = Trace.warp_trace

  let equal = ( == )
  let hash = Trace.key
end)

(* A cooking function with one intern table for its whole lifetime: every
   block cooked through the same cooker shares cooks for physically
   shared warp arrays, no matter which cluster the blocks land on.  [run]
   makes one cooker per call and feeds it only the blocks it will
   actually simulate, so neither a sampled replay's skipped clusters nor
   a repeated cluster is cooked.  Nothing outlives the call: a caller
   that replays one trace again holds its cook instead ([cook_warp]). *)
let cooker p =
  let table = WT.create 64 in
  let scratch = Bytes.make reg_slots '\000' in
  let cook_warp wt =
    match WT.find_opt table wt with
    | Some c -> c
    | None ->
      let c = cook p scratch wt in
      WT.add table wt c;
      c
  in
  let cook_block (bt : Trace.block_trace) =
    { cbid = bt.block; cwarps = Array.map cook_warp bt.warps }
  in
  (cook_block, fun () -> WT.length table)

(* --- mutable replay state ------------------------------------------------ *)

type cluster_state = {
  mutable gmem_free : int;
  mutable gmem_busy : int;
  mutable events : int; (* events replayed in this cluster *)
  mutable skipped : int; (* events a fast-forward accounted for instead *)
  mutable changes : int; (* block launches plus warp retirements *)
  pid : int; (* timeline process id: original cluster index + 1 *)
}

type sm_state = {
  mutable alu_free : int;
  mutable smem_free : int;
  mutable alu_busy : int;
  mutable smem_busy : int;
  mutable atomic_busy : int; (* atomic occupancy of the shared pipe *)
  mutable resident : int;
  mutable free_warp_slots : int;
  max_resident : int;
  warp_slot_capacity : int;
  mutable pending : cblock list;
  mutable warps_launched : int;
  mutable warps_retired : int;
  mutable blocks_retired : int;
  ord : int; (* device-wide SM index, for timeline track ids *)
  cluster : cluster_state;
}

type block_state = {
  mutable live : int;
  mutable waiting : int;
  mutable parked : int;
      (* slot of the last warp to park at the barrier, or -1; earlier
         arrivals chain through [next_parked] *)
  bid : int; (* grid block id, for timeline track ids *)
  sm : sm_state;
}

and warp_state = {
  ck : cooked;
  slot : int; (* index in its cluster's slot table: what the heap queues *)
  mutable idx : int;
  mutable ready : int;
  regs : int array; (* ready time per mapped register *)
  wid : int; (* warp index within its block *)
  mutable stage : int; (* barrier-delimited stage the warp is in *)
  mutable park_t : int; (* when the warp parked at the current barrier *)
  mutable next_parked : int; (* slot of the previous arrival, or -1 *)
  block : block_state;
}

(* The event queue of one cluster: a heap of warp-slot indices keyed by
   ready time, and the slot table they index.  Queueing ints instead of
   [warp_state] pointers keeps the heap's sifts free of the write barrier.
   A retired warp's slot goes on a free stack for the next launch, so the
   table stays as small as the most warps ever resident at once. *)
type queue = {
  heap : Heap.t;
  mutable slots : warp_state array; (* by slot: its current or last warp *)
  mutable used : int; (* slots ever handed out *)
  mutable free : int array; (* stack of retired slots, same capacity *)
  mutable nfree : int;
}

let make_queue () =
  { heap = Heap.create (); slots = [||]; used = 0; free = [||]; nfree = 0 }

let take_slot q =
  if q.nfree > 0 then begin
    q.nfree <- q.nfree - 1;
    q.free.(q.nfree)
  end
  else begin
    q.used <- q.used + 1;
    q.used - 1
  end

let set_slot q w =
  let cap = Array.length q.slots in
  if w.slot = cap then begin
    let grow a fill =
      let b = Array.make (max 16 (2 * cap)) fill in
      Array.blit a 0 b 0 cap;
      b
    in
    q.slots <- grow q.slots w;
    q.free <- grow q.free 0
  end;
  q.slots.(w.slot) <- w

let free_slot q w =
  q.free.(q.nfree) <- w.slot;
  q.nfree <- q.nfree + 1

let enqueue q ~key w = Heap.add q.heap ~key w.slot

(* --- timeline recorder -------------------------------------------------- *)

(* Shared across the clusters of one [run]: the ring buffer plus the
   per-barrier-stage busy accumulators behind [stages_busy].  Pipe slice
   durations tile exactly into the busy tick counters; warp slices cover
   each warp's hold (issue / smem / gmem) and park (barrier) intervals,
   which never overlap on a warp's track because a warp's next event
   starts no earlier than its previous hold ended.  The stage arrays grow
   unsynchronized, which is why an attached recorder pins [run] to the
   serial cluster path. *)
type recorder = {
  tl : Gpu_obs.Timeline.t;
  warp_stride : int; (* warp tids per block: see [warp_tid] *)
  mutable st_alu : int array; (* busy ticks per stage index *)
  mutable st_smem : int array;
  mutable st_atomic : int array;
  mutable st_gmem : int array;
  mutable nstages : int;
}

let make_recorder ~warp_stride tl =
  {
    tl;
    warp_stride;
    st_alu = [||];
    st_smem = [||];
    st_atomic = [||];
    st_gmem = [||];
    nstages = 0;
  }

let ensure_stage r s =
  if s >= r.nstages then r.nstages <- s + 1;
  let n = Array.length r.st_alu in
  if s >= n then begin
    let n' = max (s + 1) (max 4 (2 * n)) in
    let grow a =
      let b = Array.make n' 0 in
      Array.blit a 0 b 0 n;
      b
    in
    r.st_alu <- grow r.st_alu;
    r.st_smem <- grow r.st_smem;
    r.st_atomic <- grow r.st_atomic;
    r.st_gmem <- grow r.st_gmem
  end

(* Timeline track layout (DESIGN §11): pid 0 is reserved for workflow
   spans; cluster c uses pid c+1.  Within a cluster, SM s's arithmetic
   pipe is tid 2s, its shared pipe tid 2s+1, the cluster's global pipe
   tid [gmem_tid], and block b / warp w parks on tid
   [warp_tid_base + stride * b + w].  The per-run stride is the largest
   warp count of any launched block (floored at 64 so the historical
   layout stays put for every device that fits it) — a fixed 64 would
   silently collide the tracks of distinct warps once a block carries
   more than 64 warps. *)
let gmem_tid = 999
let warp_tid_base = 10_000
let warp_tid r ~bid ~wid = warp_tid_base + (r.warp_stride * bid) + wid

let warp_stride_for (blocks : Trace.block_trace array) =
  Array.fold_left
    (fun acc (b : Trace.block_trace) -> max acc (Array.length b.warps))
    64 blocks

let rec_pipe r (sm : sm_state) ~alu ~start ~dur =
  Gpu_obs.Timeline.add r.tl ~pid:sm.cluster.pid
    ~tid:((2 * sm.ord) + if alu then 0 else 1)
    ~cat:(if alu then "alu" else "smem")
    ~name:(if alu then "alu" else "smem")
    ~ts:start ~dur

(* Atomics occupy the shared pipe's track but carry their own category, so
   the audit can tile "atomic" slices against the atomic busy counter
   separately from plain shared traffic. *)
let rec_atomic r (sm : sm_state) ~start ~dur =
  Gpu_obs.Timeline.add r.tl ~pid:sm.cluster.pid
    ~tid:((2 * sm.ord) + 1)
    ~cat:"atomic" ~name:"atomic" ~ts:start ~dur

let rec_gmem r (cl : cluster_state) ~start ~dur =
  Gpu_obs.Timeline.add r.tl ~pid:cl.pid ~tid:gmem_tid ~cat:"gmem"
    ~name:"gmem" ~ts:start ~dur

let rec_warp r (w : warp_state) ~name ~start ~dur =
  Gpu_obs.Timeline.add r.tl ~pid:w.block.sm.cluster.pid
    ~tid:(warp_tid r ~bid:w.block.bid ~wid:w.wid)
    ~cat:"warp" ~name ~ts:start ~dur

let charge_stage r ~stage ~alu ~smem ~atomic ~gmem =
  ensure_stage r stage;
  r.st_alu.(stage) <- r.st_alu.(stage) + alu;
  r.st_smem.(stage) <- r.st_smem.(stage) + smem;
  r.st_atomic.(stage) <- r.st_atomic.(stage) + atomic;
  r.st_gmem.(stage) <- r.st_gmem.(stage) + gmem

(* --- event-driven core -------------------------------------------------- *)

(* Launch one block's warps at [now].  Empty-trace warps retire through
   [warp_finished] like any other warp, so their slots return and an
   all-empty block still releases the SM. *)
let rec launch_block p rc q sm (cb : cblock) now =
  let block =
    {
      live = Array.length cb.cwarps;
      waiting = 0;
      parked = -1;
      bid = cb.cbid;
      sm;
    }
  in
  sm.warps_launched <- sm.warps_launched + Array.length cb.cwarps;
  sm.cluster.changes <- sm.cluster.changes + 1;
  for wid = 0 to Array.length cb.cwarps - 1 do
    let ck = cb.cwarps.(wid) in
    let w =
      {
        ck;
        slot = take_slot q;
        idx = 0;
        ready = now;
        regs = Array.make reg_slots now;
        wid;
        stage = 0;
        park_t = now;
        next_parked = -1;
        block;
      }
    in
    set_slot q w;
    (match rc with
    | None -> ()
    | Some r ->
      Gpu_obs.Timeline.set_thread r.tl ~pid:sm.cluster.pid
        ~tid:(warp_tid r ~bid:block.bid ~wid)
        (Printf.sprintf "b%d.w%d" block.bid wid));
    if ck.n > 0 then enqueue q ~key:now w else warp_finished p rc q w now
  done

(* Launch as many pending blocks as the SM's resources allow at [now].
   Normally a slot frees only when a whole block retires; under the
   early-release what-if (Section 5.2) per-warp slots free as warps
   retire. *)
and try_launch p rc q sm now =
  match sm.pending with
  | [] -> ()
  | cb :: rest ->
    let wpb = Array.length cb.cwarps in
    let ok =
      if p.spec.Gpu_hw.Spec.early_release then sm.free_warp_slots >= wpb
      else sm.resident < sm.max_resident
    in
    if ok then begin
      sm.pending <- rest;
      sm.resident <- sm.resident + 1;
      sm.free_warp_slots <- sm.free_warp_slots - wpb;
      launch_block p rc q sm cb now;
      try_launch p rc q sm now
    end

(* A warp ran out of trace events at time [now]. *)
and warp_finished p rc q w now =
  let block = w.block in
  let sm = block.sm in
  free_slot q w;
  block.live <- block.live - 1;
  (* Whether *this* retirement emptied the block: released parked warps may
     recursively retire below and must not double-release the SM slot. *)
  let block_done = block.live = 0 in
  sm.free_warp_slots <- sm.free_warp_slots + 1;
  sm.warps_retired <- sm.warps_retired + 1;
  sm.cluster.changes <- sm.cluster.changes + 1;
  (match rc with
  | None -> ()
  | Some r -> rec_warp r w ~name:"retire" ~start:now ~dur:0);
  (* A finished warp no longer participates in barriers: release waiters if
     it was the last one standing outside. *)
  if block.live > 0 && block.waiting = block.live then
    release_parked p rc q block now;
  if block_done then begin
    sm.resident <- sm.resident - 1;
    sm.blocks_retired <- sm.blocks_retired + 1
  end;
  try_launch p rc q sm now

(* Release every warp parked at a block's barrier at time [t], last
   arrival first.  The parked chain and arrival count clear *before* any
   warp re-queues: a released warp whose trace ended at the barrier
   retires immediately, and that retirement must see the barrier already
   drained, not re-release the chain it is being released from.  Each
   link is read before its warp is released, since a retirement frees the
   warp's slot for the launches it triggers. *)
and release_parked p rc q block t =
  let next = ref block.parked in
  block.parked <- -1;
  block.waiting <- 0;
  while !next >= 0 do
    let pw = q.slots.(!next) in
    next := pw.next_parked;
    (match rc with
    | None -> ()
    | Some r ->
      if t > pw.park_t then
        rec_warp r pw ~name:"barrier" ~start:pw.park_t ~dur:(t - pw.park_t));
    pw.ready <- t;
    if pw.idx >= pw.ck.n then warp_finished p rc q pw t
    else enqueue q ~key:t pw
  done

(* In-order scoreboard invariant: a register's ready time never moves
   backward, because the dependence wait already includes the WAW check on
   the destination.  A violation means the scoreboard lost an ordering
   edge — an engine bug the fuzz harness must be able to see.  [r] is
   already mapped. *)
let write_reg w r time =
  if time < w.regs.(r) then
    failwith "Engine: non-monotone register ready-time";
  w.regs.(r) <- time

(* Process a warp activation: the popped event plus any directly following
   events of the same warp that would re-enter the queue strictly before
   every queued event.  For those the [Heap.add] / [Heap.pop_min] pair is a
   provable no-op — a key strictly below the root sifts to the root and
   pops right back — so the events coalesce into one heap transaction and
   the schedule (and every busy counter and timeline slice) is identical
   to the uncoalesced engine.  Ties never coalesce: with equal keys the
   pop could legitimately pick another warp.  Returns the max completion
   horizon the activation contributes to total time. *)
let process p rc q w now0 =
  let ck = w.ck in
  let n = ck.n in
  let horizon = ref 0 in
  let now = ref now0 in
  let running = ref true in
  while !running do
    (* Engine invariant: scheduled warps always have an event left.  A
       violation is an engine bug (lost retirement accounting), not bad
       input; fail structurally instead of via the array bounds check. *)
    if w.idx >= n then
      failwith "Engine: warp scheduled past the end of its trace";
    let i = w.idx in
    let sm = w.block.sm in
    sm.cluster.events <- sm.cluster.events + 1;
    (* Dependences: wait for sources and destination (WAW). *)
    let t = ref (if !now > w.ready then !now else w.ready) in
    for j = ck.soff.(i) to ck.soff.(i + 1) - 1 do
      let r = w.regs.(ck.msrcs.(j)) in
      if r > !t then t := r
    done;
    let dst = ck.mdst.(i) in
    if dst >= 0 then begin
      let r = w.regs.(dst) in
      if r > !t then t := r
    end;
    let t = !t in
    let k = ck.kind.(i) in
    if k = k_bar then begin
      (* Barrier: advance past it, then park until the block catches up.
         Never coalesced: release re-queues peers at the same key. *)
      w.idx <- i + 1;
      w.ready <- t;
      w.stage <- w.stage + 1;
      let block = w.block in
      if block.waiting + 1 = block.live then begin
        (* last arrival: release everyone *)
        release_parked p rc q block t;
        if w.idx >= n then warp_finished p rc q w t
        else enqueue q ~key:t w
      end
      else begin
        w.park_t <- t;
        block.waiting <- block.waiting + 1;
        w.next_parked <- block.parked;
        block.parked <- w.slot
      end;
      if t > !horizon then horizon := t;
      running := false
    end
    else begin
      let h =
        if k = k_alu then begin
          let occ = ck.occ.(i) in
          let start = if t > sm.alu_free then t else sm.alu_free in
          sm.alu_free <- start + occ;
          sm.alu_busy <- sm.alu_busy + occ;
          let complete = start + p.alu_latency in
          if dst >= 0 then write_reg w dst complete;
          w.ready <- start + ck.hold.(i);
          (match rc with
          | None -> ()
          | Some r ->
            rec_pipe r sm ~alu:true ~start ~dur:occ;
            rec_warp r w ~name:"issue" ~start ~dur:(w.ready - start);
            charge_stage r ~stage:w.stage ~alu:occ ~smem:0 ~atomic:0 ~gmem:0);
          complete
        end
        else if k = k_smem || k = k_smem_fused then begin
          (* A fused arithmetic instruction with a shared operand (class II
             Fmad_smem) occupies both the issue pipeline and the shared
             pipeline; plain loads and stores dispatch through the LSU and
             only hold the shared pipeline. *)
          let fused = k = k_smem_fused in
          let busy = ck.busy.(i) in
          let start =
            if fused then
              let s = if t > sm.smem_free then t else sm.smem_free in
              if s > sm.alu_free then s else sm.alu_free
            else if t > sm.smem_free then t
            else sm.smem_free
          in
          sm.smem_free <- start + busy;
          sm.smem_busy <- sm.smem_busy + busy;
          let occ = ck.occ.(i) in
          if fused then begin
            sm.alu_free <- start + occ;
            sm.alu_busy <- sm.alu_busy + occ
          end;
          let complete = start + busy + p.smem_latency in
          if dst >= 0 then write_reg w dst complete;
          (* The LSU replays a conflicted access once per serialized
             transaction and the scheduler only revisits the warp after the
             replays drain, so the warp is held per transaction. *)
          w.ready <- start + ck.hold.(i);
          (match rc with
          | None -> ()
          | Some r ->
            rec_pipe r sm ~alu:false ~start ~dur:busy;
            if fused then rec_pipe r sm ~alu:true ~start ~dur:occ;
            rec_warp r w ~name:"smem" ~start ~dur:(w.ready - start);
            charge_stage r ~stage:w.stage ~alu:occ ~smem:busy ~atomic:0
              ~gmem:0);
          if dst >= 0 then complete else start + busy
        end
        else if k = k_atomic then begin
          (* Shared-memory atomic: dispatches through the LSU like a plain
             shared access and contends for the same pipe cursor, but its
             busy ticks are charged to the atomic counter — the transaction
             count is the contention-serialized one, and the model costs it
             as a separate component. *)
          let busy = ck.busy.(i) in
          let start = if t > sm.smem_free then t else sm.smem_free in
          sm.smem_free <- start + busy;
          sm.atomic_busy <- sm.atomic_busy + busy;
          let complete = start + busy + p.smem_latency in
          if dst >= 0 then write_reg w dst complete;
          w.ready <- start + ck.hold.(i);
          (match rc with
          | None -> ()
          | Some r ->
            rec_atomic r sm ~start ~dur:busy;
            rec_warp r w ~name:"atomic" ~start ~dur:(w.ready - start);
            charge_stage r ~stage:w.stage ~alu:0 ~smem:0 ~atomic:busy
              ~gmem:0);
          if dst >= 0 then complete else start + busy
        end
        else begin
          let cl = sm.cluster in
          let busy = ck.busy.(i) in
          let start = if t > cl.gmem_free then t else cl.gmem_free in
          cl.gmem_free <- start + busy;
          cl.gmem_busy <- cl.gmem_busy + busy;
          let complete = start + busy + p.gmem_latency in
          if dst >= 0 then write_reg w dst complete;
          w.ready <- start + ck.hold.(i);
          (match rc with
          | None -> ()
          | Some r ->
            rec_gmem r cl ~start ~dur:busy;
            rec_warp r w ~name:"gmem" ~start ~dur:(w.ready - start);
            charge_stage r ~stage:w.stage ~alu:0 ~smem:0 ~atomic:0
              ~gmem:busy);
          if k = k_gmem_load then complete else start + busy
        end
      in
      if h > !horizon then horizon := h;
      w.idx <- i + 1;
      if w.idx >= n then begin
        warp_finished p rc q w w.ready;
        running := false
      end
      else if Heap.is_empty q.heap || w.ready < Heap.min_key q.heap then
        (* coalesce: continue this warp without touching the heap *)
        now := w.ready
      else begin
        enqueue q ~key:w.ready w;
        running := false
      end
    end
  done;
  !horizon

(* --- steady-state fast-forward ------------------------------------------- *)

(* A replay whose warps loop settles into a steady state: after a few
   rounds each round repeats the one before it, shifted in time.  The
   fast-forward (DESIGN §14) simulates one such period, proves it repeats,
   and applies the remaining whole periods at once.  It is exact:

   - Shift invariance.  The schedule reads times only through [max] with a
     time at or after [now] and [+] with constants, so a state whose every
     time moves by D evolves exactly as before, moved by D.  A time at or
     before [now] (a register ready long ago, an idle pipe) is
     interchangeable with any other such time, so the signatures below
     store it as 0.
   - The heap as a set.  A pop whose minimum key is unique returns that
     entry whatever the array layout, and every other heap use reads only
     the minimum key.  Between two checkpoints with no tied pop (one that
     leaves its key at the root) the schedule is therefore a function of
     the set of (slot, key) pairs, and two checkpoints are compared as
     sets.
   - The period.  Checkpoints are the pops of warp slot 0.  Two
     checkpoints C and C' form a period when nothing launched or retired
     and no pop tied between them, every time-valued field is equal
     relative to [now] (queued keys, parked links, [ready], the
     registers the warp's trace names, each SM's pipes, the cluster's
     global pipe), and each warp's next events equal its events one
     period back.  Each later period then repeats it shifted by
     D = T(C') - T(C), so k periods are applied at once: D*k added to
     every time (heap keys in place), each warp's [idx] advanced by k
     times its events per period, busy and event counters by k times the
     period's, and the end time raised to the period's highest horizon
     plus D*k.  [w.stage] and [w.park_t] feed only a timeline, and a
     recording timeline turns the fast-forward off.
   - Rollback.  After a skip the heap keeps C''s layout, which pops
     exactly as the simulated heap would until the next tied pop; a tied
     pop after a skip aborts the cluster ([Rollback]), and [run] replays
     it without fast-forward.

   Cost: a Brent cycle search over a compact signature (heap size, the
   next key, the launch-or-retirement count, pipe cursors, slot 0's next
   event) kept in two reused buffers, so a checkpoint that matches
   nothing costs O(SMs) and allocates nothing.  When the compact
   signature repeats, the full slot state is snapshotted and compared one
   candidate period later, and at a few multiples of it while no tie,
   launch or retirement intervenes; a failed candidate pauses the search
   for a doubling number of checkpoints, which bounds the snapshots to a
   logarithm of the checkpoints.  Pops are watched for ties only from a
   candidate's first checkpoint on, and for good after a skip, so a
   replay that never settles pays one test per pop: is it slot 0, or is
   the watch on. *)

exception Rollback of int (* events simulated before the tied pop *)

type ff = {
  saved : int array; (* compact signature at the Brent save point *)
  cur : int array; (* the current checkpoint's, reused *)
  mutable have_saved : bool;
  mutable power : int;
  mutable lam : int; (* checkpoints since the save *)
  mutable pause : int; (* checkpoints to let pass after a failed period *)
  mutable backoff : int;
  mutable watch : bool; (* pops are checked for ties *)
  (* A candidate period starting at checkpoint C: *)
  mutable verify_left : int; (* checkpoints until C'; 0 when idle *)
  mutable mult : int; (* C' is [mult] candidate periods after C *)
  vsig : int array; (* compact signature at C *)
  busy0 : int array;
      (* at C: per SM alu, smem and atomic busy, then gmem busy and the
         simulated event count *)
  mutable t0 : int; (* [now] at C *)
  mutable end_c : int; (* the end time at C *)
  mutable tied : int; (* tied pops since C *)
  mutable snap : int array; (* slot states at C, grown on demand *)
  mutable qkey : int array;
      (* per slot: its key relative to [now] if queued, -1 parked, -2
         free *)
  mutable delta : int array; (* per slot: events consumed over the period *)
  mutable skips : int; (* once one is applied, a tied pop rolls back *)
  mutable end_time : int;
      (* the replay's end time, handed in and out of [ff_step]; from C
         until the candidate is decided, the highest horizon since C *)
}

let make_ff ~nsms =
  let len = 6 + (2 * nsms) in
  {
    saved = Array.make len 0;
    cur = Array.make len 0;
    have_saved = false;
    power = 1;
    lam = 0;
    pause = 0;
    backoff = 1;
    watch = false;
    verify_left = 0;
    mult = 0;
    vsig = Array.make len 0;
    busy0 = Array.make ((3 * nsms) + 2) 0;
    t0 = 0;
    end_c = 0;
    tied = 0;
    snap = [||];
    qkey = [||];
    delta = [||];
    skips = 0;
    end_time = 0;
  }

(* A time relative to [now], every time at or before [now] stored as 0. *)
let rel now t = if t > now then t - now else 0

(* The compact signature of the checkpoint where [w] (slot 0) was popped
   at [now]. *)
let fill_sig q sms cl w now buf =
  let h = q.heap in
  buf.(0) <- Heap.size h;
  buf.(1) <- (if Heap.is_empty h then -1 else Heap.min_key h - now);
  buf.(2) <- cl.changes;
  buf.(3) <- rel now cl.gmem_free;
  buf.(4) <- w.ck.kind.(w.idx);
  buf.(5) <- w.ck.mdst.(w.idx);
  for s = 0 to Array.length sms - 1 do
    buf.(6 + (2 * s)) <- rel now sms.(s).alu_free;
    buf.(7 + (2 * s)) <- rel now sms.(s).smem_free
  done

let rec same_ints a b i =
  i = Array.length a || (a.(i) = b.(i) && same_ints a b (i + 1))

(* [qkey] for the checkpoint at [now]: slot 0 was just popped with key
   [now]. *)
let fill_qkey ff q now =
  let n = q.used in
  if Array.length ff.qkey < n then begin
    ff.qkey <- Array.make (Array.length q.slots) 0;
    ff.delta <- Array.make (Array.length q.slots) 0
  end;
  let qk = ff.qkey in
  Array.fill qk 0 n (-1);
  for i = 0 to q.nfree - 1 do
    qk.(q.free.(i)) <- -2
  done;
  Heap.iter q.heap (fun s k -> qk.(s) <- k - now);
  qk.(0) <- 0 (* the popped warp: its key was [now] *)

(* Per slot, its [qkey] code, then unless free: its parked link, its
   block's arrival count and parked-chain head, [ready], [idx] and its
   used registers. *)
let take_snapshot ff q now =
  fill_qkey ff q now;
  let qk = ff.qkey in
  let size = ref 0 in
  for s = 0 to q.used - 1 do
    size :=
      !size + if qk.(s) = -2 then 1 else 6 + Array.length q.slots.(s).ck.used
  done;
  if Array.length ff.snap < !size then ff.snap <- Array.make (2 * !size) 0;
  let snap = ff.snap in
  let pos = ref 0 in
  for s = 0 to q.used - 1 do
    let c = qk.(s) in
    snap.(!pos) <- c;
    if c = -2 then incr pos
    else begin
      let w = q.slots.(s) in
      let p = !pos in
      snap.(p + 1) <- (if c = -1 then w.next_parked else -1);
      snap.(p + 2) <- w.block.waiting;
      snap.(p + 3) <- w.block.parked;
      snap.(p + 4) <- rel now w.ready;
      snap.(p + 5) <- w.idx;
      let u = w.ck.used in
      for j = 0 to Array.length u - 1 do
        snap.(p + 6 + j) <- rel now w.regs.(u.(j))
      done;
      pos := p + 6 + Array.length u
    end
  done

(* Whether the slots stand as they did at the snapshot, relative to
   [now]; fills [delta] with the events each slot consumed since.  Runs
   only when the compact signatures agree, so the same slots are live and
   queue the same cooked warps. *)
let same_as_snapshot ff q now =
  fill_qkey ff q now;
  let snap = ff.snap and qk = ff.qkey in
  let ok = ref true and pos = ref 0 and s = ref 0 in
  while !ok && !s < q.used do
    let c = qk.(!s) in
    if snap.(!pos) <> c then ok := false
    else if c = -2 then incr pos
    else begin
      let w = q.slots.(!s) in
      let p = !pos in
      ok :=
        snap.(p + 1) = (if c = -1 then w.next_parked else -1)
        && snap.(p + 2) = w.block.waiting
        && snap.(p + 3) = w.block.parked
        && snap.(p + 4) = rel now w.ready;
      ff.delta.(!s) <- w.idx - snap.(p + 5);
      let u = w.ck.used in
      let j = ref 0 in
      while !ok && !j < Array.length u do
        ok := snap.(p + 6 + !j) = rel now w.regs.(u.(!j));
        incr j
      done;
      pos := p + 6 + Array.length u
    end;
    incr s
  done;
  !ok

(* Events [i] and [j] of one cooked warp cost the same and name the same
   registers: everything [process] reads of an event. *)
let same_event ck i j =
  ck.kind.(i) = ck.kind.(j)
  && ck.occ.(i) = ck.occ.(j)
  && ck.busy.(i) = ck.busy.(j)
  && ck.hold.(i) = ck.hold.(j)
  && ck.mdst.(i) = ck.mdst.(j)
  &&
  let a = ck.soff.(i) and b = ck.soff.(j) in
  let len = ck.soff.(i + 1) - a in
  len = ck.soff.(j + 1) - b
  &&
  let k = ref 0 in
  while !k < len && ck.msrcs.(a + !k) = ck.msrcs.(b + !k) do
    incr k
  done;
  !k = len

(* The first event at or after [from] (below [stop]) that differs from the
   event [lag] before it, or [stop]. *)
let first_break ck ~lag from stop =
  let i = ref from in
  while !i < stop && same_event ck !i (!i - lag) do
    incr i
  done;
  !i

let no_cook =
  {
    n = 0;
    kind = [||];
    soff = [| 0 |];
    occ = [||];
    busy = [||];
    hold = [||];
    mdst = [||];
    msrcs = [||];
    used = [||];
  }

(* How many more periods every live warp's trace repeats the verified one
   for, stopping before any warp's last event.  Warps replicating one
   cooked trace at one lag share a scan: [lo, hi) is a stretch known free
   of breaks, [hi] the break that ends it. *)
let periods ff q =
  let k = ref max_int in
  let m_ck = ref no_cook and m_lag = ref 0 and lo = ref 0 and hi = ref 0 in
  for s = 0 to q.used - 1 do
    let d = ff.delta.(s) in
    if ff.qkey.(s) <> -2 && d > 0 then begin
      let w = q.slots.(s) in
      let ck = w.ck and from = w.idx in
      let same = ck == !m_ck && d = !m_lag in
      let r =
        if same && from >= !lo && from <= !hi then !hi
        else if same && from < !lo then begin
          let i = first_break ck ~lag:d from !lo in
          if i = !lo then begin
            lo := from;
            !hi
          end
          else i
        end
        else begin
          let i = first_break ck ~lag:d from ck.n in
          m_ck := ck;
          m_lag := d;
          lo := from;
          hi := i;
          i
        end
      in
      (* periods m with idx(C) + m*d <= min r (n - 1), the verified one
         included *)
      let m = (min r (ck.n - 1) - (from - d)) / d in
      if m - 1 < !k then k := m - 1
    end
  done;
  if !k = max_int then 0 else !k

(* Apply [k] more periods of length [now - t0] at once; returns the
   shifted [now]. *)
let apply_skip ff q sms cl ~k now =
  let dt = k * (now - ff.t0) in
  Heap.shift q.heap dt;
  for s = 0 to q.used - 1 do
    if ff.qkey.(s) <> -2 then begin
      let w = q.slots.(s) in
      w.ready <- w.ready + dt;
      let u = w.ck.used in
      for j = 0 to Array.length u - 1 do
        w.regs.(u.(j)) <- w.regs.(u.(j)) + dt
      done;
      w.idx <- w.idx + (k * ff.delta.(s))
    end
  done;
  let b = ff.busy0 in
  for i = 0 to Array.length sms - 1 do
    let sm = sms.(i) in
    sm.alu_free <- sm.alu_free + dt;
    sm.smem_free <- sm.smem_free + dt;
    sm.alu_busy <- sm.alu_busy + (k * (sm.alu_busy - b.(3 * i)));
    sm.smem_busy <- sm.smem_busy + (k * (sm.smem_busy - b.((3 * i) + 1)));
    sm.atomic_busy <-
      sm.atomic_busy + (k * (sm.atomic_busy - b.((3 * i) + 2)))
  done;
  let nb = 3 * Array.length sms in
  cl.gmem_free <- cl.gmem_free + dt;
  cl.gmem_busy <- cl.gmem_busy + (k * (cl.gmem_busy - b.(nb)));
  cl.skipped <- cl.skipped + (k * (cl.events - b.(nb + 1)));
  (* the skipped periods' highest horizon is the verified one's, moved *)
  ff.end_time <- max ff.end_c (ff.end_time + dt);
  ff.skips <- ff.skips + 1;
  ff.watch <- true;
  now + dt

(* Candidate multiples tried before a candidate period is given up. *)
let max_mult = 8

let restart ff =
  ff.have_saved <- false;
  ff.power <- 1;
  ff.lam <- 0;
  ff.watch <- ff.skips > 0

(* Called at each pop of slot 0 ([w], popped at [now]) before it is
   processed; returns the time to process it at, later than [now] when a
   skip was applied. *)
let checkpoint ff q sms cl w now =
  if ff.pause > 0 then begin
    ff.pause <- ff.pause - 1;
    now
  end
  else if ff.verify_left > 0 then begin
    ff.verify_left <- ff.verify_left - 1;
    if ff.verify_left > 0 then now
    else begin
      fill_sig q sms cl w now ff.cur;
      let k =
        if
          ff.tied = 0
          && same_ints ff.cur ff.vsig 0
          && same_as_snapshot ff q now
        then periods ff q
        else 0
      in
      if k >= 1 then begin
        restart ff;
        ff.backoff <- 1;
        apply_skip ff q sms cl ~k now
      end
      else if ff.mult < max_mult && ff.tied = 0 && ff.cur.(2) = ff.vsig.(2)
      then begin
        (* No tie and no launch or retirement yet: the true period may
           be a multiple of the candidate (warps at another phase of
           their loop bodies), so look one candidate period further. *)
        ff.mult <- ff.mult + 1;
        ff.verify_left <- ff.lam;
        now
      end
      else begin
        ff.end_time <- max ff.end_c ff.end_time;
        restart ff;
        ff.pause <- ff.backoff;
        ff.backoff <- 2 * ff.backoff;
        now
      end
    end
  end
  else begin
    fill_sig q sms cl w now ff.cur;
    if ff.have_saved && same_ints ff.cur ff.saved 0 then begin
      (* a candidate period of [lam] checkpoints: this is C *)
      Array.blit ff.cur 0 ff.vsig 0 (Array.length ff.cur);
      take_snapshot ff q now;
      let b = ff.busy0 in
      Array.iteri
        (fun i sm ->
          b.(3 * i) <- sm.alu_busy;
          b.((3 * i) + 1) <- sm.smem_busy;
          b.((3 * i) + 2) <- sm.atomic_busy)
        sms;
      b.(3 * Array.length sms) <- cl.gmem_busy;
      b.((3 * Array.length sms) + 1) <- cl.events;
      ff.t0 <- now;
      ff.end_c <- ff.end_time;
      ff.end_time <- 0;
      ff.tied <- 0;
      ff.watch <- true;
      ff.mult <- 1;
      ff.verify_left <- ff.lam
    end
    else begin
      if not ff.have_saved then begin
        Array.blit ff.cur 0 ff.saved 0 (Array.length ff.cur);
        ff.have_saved <- true;
        ff.lam <- 0
      end
      else if ff.lam = ff.power then begin
        Array.blit ff.cur 0 ff.saved 0 (Array.length ff.cur);
        ff.power <- 2 * ff.power;
        ff.lam <- 0
      end;
      ff.lam <- ff.lam + 1
    end;
    now
  end

(* The fast-forward's share of a pop of [w] at [now]: the tie watch, then
   the checkpoint when [w] is slot 0.  A tied pop leaves its key at the
   root. *)
let ff_step ff q sms cl w ~fast_forward now =
  if ff.watch && (not (Heap.is_empty q.heap)) && Heap.min_key q.heap = now
  then begin
    if ff.skips > 0 then raise (Rollback cl.events);
    ff.tied <- ff.tied + 1
  end;
  if fast_forward && w.slot = 0 then checkpoint ff q sms cl w now else now

(* What one simulated cluster reports back to the reduction. *)
type cluster_out = {
  co_end : int; (* latest completion horizon, ticks *)
  co_alu : int;
  co_smem : int;
  co_atomic : int;
  co_gmem : int;
  co_launched : int;
  co_retired : int;
  co_blocks_retired : int;
  co_unlaunched : int;
  co_events : int; (* simulated, a rolled-back attempt's included *)
  co_skipped : int; (* accounted for by the kept fast-forwards *)
  co_fast_forwards : int;
  co_rollbacks : int;
}

(* Simulate one cluster: [sm_blocks.(i)] is the ordered block queue of the
   cluster's i-th SM; [cluster_index] is its device-wide index (timeline
   pid - 1).  Touches nothing outside its own freshly built state, which
   is what makes the cluster fan-out safe. *)
let run_cluster p rc ~fast_forward ~cluster_index ~max_resident sm_blocks =
  let cluster =
    {
      gmem_free = 0;
      gmem_busy = 0;
      events = 0;
      skipped = 0;
      changes = 0;
      pid = cluster_index + 1;
    }
  in
  let q = make_queue () in
  (match rc with
  | None -> ()
  | Some r ->
    Gpu_obs.Timeline.set_process r.tl ~pid:cluster.pid
      (Printf.sprintf "cluster %d (sim cycles)" cluster_index);
    Gpu_obs.Timeline.set_thread r.tl ~pid:cluster.pid ~tid:gmem_tid
      "gmem pipe");
  let sms =
    Array.mapi
      (fun i blocks ->
        let wpb =
          match blocks with
          | cb :: _ -> max 1 (Array.length cb.cwarps)
          | [] -> 1
        in
        let ord = (cluster_index * p.spec.Gpu_hw.Spec.sms_per_cluster) + i in
        let capacity = max_resident * wpb in
        let sm =
          {
            alu_free = 0;
            smem_free = 0;
            alu_busy = 0;
            smem_busy = 0;
            atomic_busy = 0;
            resident = 0;
            free_warp_slots = capacity;
            max_resident;
            warp_slot_capacity = capacity;
            pending = blocks;
            warps_launched = 0;
            warps_retired = 0;
            blocks_retired = 0;
            ord;
            cluster;
          }
        in
        (match rc with
        | None -> ()
        | Some r ->
          Gpu_obs.Timeline.set_thread r.tl ~pid:cluster.pid ~tid:(2 * ord)
            (Printf.sprintf "sm%d alu" ord);
          Gpu_obs.Timeline.set_thread r.tl ~pid:cluster.pid
            ~tid:((2 * ord) + 1)
            (Printf.sprintf "sm%d smem" ord));
        try_launch p rc q sm 0;
        sm)
      sm_blocks
  in
  let ff = make_ff ~nsms:(Array.length sms) in
  let end_time = ref 0 in
  let guard = ref 0 in
  while not (Heap.is_empty q.heap) do
    let now = Heap.min_key q.heap in
    let w = q.slots.(Heap.pop_min q.heap) in
    incr guard;
    if !guard > 2_000_000_000 then failwith "Engine: runaway simulation";
    let now =
      if w.slot = 0 || ff.watch then begin
        ff.end_time <- !end_time;
        let now = ff_step ff q sms cluster w ~fast_forward now in
        end_time := ff.end_time;
        now
      end
      else now
    in
    let horizon = process p rc q w now in
    if horizon > !end_time then end_time := horizon
  done;
  (* a candidate still undecided holds only its period's horizons *)
  if ff.verify_left > 0 then end_time := max !end_time ff.end_c;
  let sum f = Array.fold_left (fun acc sm -> acc + f sm) 0 sms in
  {
    co_end = !end_time;
    co_alu = sum (fun sm -> sm.alu_busy);
    co_smem = sum (fun sm -> sm.smem_busy);
    co_atomic = sum (fun sm -> sm.atomic_busy);
    co_gmem = cluster.gmem_busy;
    co_launched = sum (fun sm -> sm.warps_launched);
    co_retired = sum (fun sm -> sm.warps_retired);
    co_blocks_retired = sum (fun sm -> sm.blocks_retired);
    co_unlaunched = sum (fun sm -> List.length sm.pending);
    co_events = cluster.events;
    co_skipped = cluster.skipped;
    co_fast_forwards = ff.skips;
    co_rollbacks = 0;
  }

(* A cluster with the fast-forward on unless a timeline records; a tied
   pop after a skip replays it with the fast-forward off. *)
let simulate_cluster p rc ~cluster_index ~max_resident sm_blocks =
  let run fast_forward =
    run_cluster p rc ~fast_forward ~cluster_index ~max_resident sm_blocks
  in
  match run (Option.is_none rc) with
  | out -> out
  | exception Rollback events ->
    let out = run false in
    { out with co_events = out.co_events + events; co_rollbacks = 1 }

(* Distribute grid blocks uniformly over the *clusters* first (block b goes
   to cluster b mod num_clusters, as the paper infers from the period-10
   sawtooth of Figure 3), round-robin over the SMs inside each cluster. *)
let distribute (spec : Gpu_hw.Spec.t) (blocks : _ array) =
  let nclusters = Gpu_hw.Spec.num_clusters spec in
  let per_sm = Array.make spec.num_sms [] in
  Array.iteri
    (fun b cb ->
      let cluster = b mod nclusters in
      let sm_in_cluster = b / nclusters mod spec.sms_per_cluster in
      let sm = (cluster * spec.sms_per_cluster) + sm_in_cluster in
      per_sm.(sm) <- cb :: per_sm.(sm))
    blocks;
  let per_sm = Array.map List.rev per_sm in
  Array.init nclusters (fun c ->
      Array.init spec.sms_per_cluster (fun i ->
          per_sm.((c * spec.sms_per_cluster) + i)))

(* Two clusters replay identically when their SMs queue the same cooked
   warps in the same order: a cluster's schedule reads nothing else but
   the run's device parameters and residency limit (its index and the
   block ids only name timeline tracks).  The cooker interns warp arrays
   by physical identity, so two blocks cook to the same warps exactly
   when they share their warp arrays, as a replicated grid's do: the
   clusters are keyed on the trace blocks, before anything is cooked. *)
let same_cluster (a : Trace.block_trace list array) b =
  let same_block (x : Trace.block_trace) (y : Trace.block_trace) =
    Array.length x.warps = Array.length y.warps
    && Array.for_all2 ( == ) x.warps y.warps
  in
  Array.for_all2 (List.equal same_block) a b

(* --- sampled cluster selection ------------------------------------------ *)

(* splitmix64, inlined so sampling is deterministic for a seed without a
   dependency on the fuzzing library's generator. *)
let mix64 x =
  let open Int64 in
  let z = add x 0x9E3779B97F4A7C15L in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* [k] distinct indices out of [0..n-1], seeded partial Fisher–Yates,
   returned sorted so the sampled reduction runs in cluster order. *)
let choose_indices ~seed ~k n =
  let idx = Array.init n Fun.id in
  let state = ref (Int64.of_int seed) in
  let next bound =
    state := Int64.add !state 1L;
    let z = mix64 !state in
    Int64.to_int
      (Int64.rem (Int64.logand z Int64.max_int) (Int64.of_int bound))
  in
  for i = 0 to k - 1 do
    let j = i + next (n - i) in
    let tmp = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- tmp
  done;
  let chosen = Array.sub idx 0 k in
  Array.sort compare chosen;
  chosen

(* Heuristic upper estimate from the sampled cluster end times: the
   sampled max plus the sampled spread plus a dispersion term
   (2 sample standard deviations, widened by 1/k for the sampling
   error of the mean).  With one sample there is no dispersion
   information, so the bound doubles the point estimate.  [cycles_low]
   is exact-by-construction (a subset's max is a lower bound); the high
   side is an estimate, which is why sampled results surface as
   degraded confidence, not as a guarantee. *)
let estimate_high ~ends est =
  let k = Array.length ends in
  if k <= 1 then 2 * est
  else begin
    let fk = float_of_int k in
    let fends = Array.map float_of_int ends in
    let mean = Array.fold_left ( +. ) 0.0 fends /. fk in
    let var =
      Array.fold_left (fun a e -> a +. ((e -. mean) ** 2.0)) 0.0 fends
      /. (fk -. 1.0)
    in
    let sigma = sqrt var in
    let mn = Array.fold_left min fends.(0) fends in
    let spread = float_of_int est -. mn in
    est
    + int_of_float
        (ceil (spread +. (2.0 *. sigma *. sqrt (1.0 +. (1.0 /. fk)))))
  end

(* Always-on conservation counters in the metrics registry: cheap (a few
   atomic adds per run), and they let `--metrics` correlate e.g. a what-if
   sweep's engine volume with its wall time. *)
let m_runs = Metrics.counter "engine.runs"
let m_cycles = Metrics.counter "engine.cycles"
let m_warps_launched = Metrics.counter "engine.warps.launched"
let m_warps_retired = Metrics.counter "engine.warps.retired"
let m_blocks_retired = Metrics.counter "engine.blocks.retired"
let m_blocks_unlaunched = Metrics.counter "engine.blocks.unlaunched"
let m_alu_busy = Metrics.counter "engine.busy.alu_cycles"
let m_smem_busy = Metrics.counter "engine.busy.smem_cycles"
let m_atomic_busy = Metrics.counter "engine.busy.atomic_cycles"
let m_gmem_busy = Metrics.counter "engine.busy.gmem_cycles"

(* Replay-throughput observability: events replayed (trace events
   processed by the scheduler), total simulated ticks (summed cluster end
   times), how many distinct clusters went through the parallel fan-out,
   and how many clusters were answered from an identical one. *)
let m_events_replayed = Metrics.counter "engine.events_replayed"
let m_replay_ticks = Metrics.counter "engine.replay_ticks"
let m_clusters_parallel = Metrics.counter "engine.clusters_parallel"
let m_clusters_reused = Metrics.counter "engine.clusters_reused"

(* Steady-state fast-forward: events applied without being simulated,
   skips applied, and clusters replayed again after a tied pop followed a
   skip.  [engine.events_replayed] counts only simulated events, so with
   no rollback replayed plus skipped is the simulated clusters' trace
   events. *)
let m_events_skipped = Metrics.counter "engine.events_skipped"
let m_fast_forwards = Metrics.counter "engine.fast_forwards"
let m_ff_rollbacks = Metrics.counter "engine.ff_rollbacks"

(* Warp traces cooked, one per distinct trace of a run and one per
   [cook_warp]. *)
let m_warps_cooked = Metrics.counter "engine.warps_cooked"

(* Simulate the distinct clusters [cooked] (device-wide index, SM queues)
   and reduce the selected clusters' outputs in selection order: selected
   cluster [i] is [cooked.(slot.(i))], simulated once however many select
   it.  [sampling] is the sampled cluster count, the non-empty clusters
   and the sampled blocks of a sampled replay.  Adds the run's counters
   to the registry once. *)
let replay p rc ~max_resident ~sampling cooked slot =
  let spec = p.spec in
  let ndistinct = Array.length cooked and nsel = Array.length slot in
  (* The recorder's stage accumulators are unsynchronized shared state, so
     a timeline pins the run to the serial path; otherwise independent
     clusters fan out over the domain pool.  Reduction below runs in
     cluster order over [outs], so serial and parallel runs fold the very
     same per-cluster results in the very same order: bit-identical. *)
  let use_parallel =
    Option.is_none rc && ndistinct > 1 && Pool.current_jobs () > 1
  in
  let simulate i =
    let cluster_index, cl = cooked.(i) in
    simulate_cluster p rc ~cluster_index ~max_resident cl
  in
  let simulated =
    if use_parallel then Pool.parallel_init ndistinct simulate
    else Array.init ndistinct simulate
  in
  let outs = Array.map (fun k -> simulated.(k)) slot in
  let ticks = ref 0 in
  let alu = ref 0 and smem = ref 0 and atomic = ref 0 and gmem = ref 0 in
  let launched = ref 0 and retired = ref 0 in
  let blocks_retired = ref 0 and unlaunched = ref 0 in
  Array.iter
    (fun o ->
      if o.co_end > !ticks then ticks := o.co_end;
      alu := !alu + o.co_alu;
      smem := !smem + o.co_smem;
      atomic := !atomic + o.co_atomic;
      gmem := !gmem + o.co_gmem;
      launched := !launched + o.co_launched;
      retired := !retired + o.co_retired;
      blocks_retired := !blocks_retired + o.co_blocks_retired;
      unlaunched := !unlaunched + o.co_unlaunched)
    outs;
  (* The throughput counters measure the scheduler's work, so a reused
     cluster adds nothing to them. *)
  let events = ref 0 and replay_ticks = ref 0 in
  let skipped = ref 0 and fast_forwards = ref 0 and rollbacks = ref 0 in
  Array.iter
    (fun o ->
      events := !events + o.co_events;
      replay_ticks := !replay_ticks + o.co_end;
      skipped := !skipped + o.co_skipped;
      fast_forwards := !fast_forwards + o.co_fast_forwards;
      rollbacks := !rollbacks + o.co_rollbacks)
    simulated;
  let cycles = (!ticks + ticks_per_cycle - 1) / ticks_per_cycle in
  let to_cycles busy = (busy + ticks_per_cycle - 1) / ticks_per_cycle in
  let sampled =
    match sampling with
    | None -> None
    | Some (k, clusters_total, blocks_sampled) ->
      let ends = Array.map (fun o -> o.co_end) outs in
      let high_ticks = estimate_high ~ends !ticks in
      Some
        {
          clusters_sampled = k;
          clusters_total;
          blocks_sampled;
          cycles_low = cycles;
          cycles_high = (high_ticks + ticks_per_cycle - 1) / ticks_per_cycle;
        }
  in
  let stages_busy =
    match rc with
    | None -> [||]
    | Some r ->
      Array.init r.nstages (fun i ->
          {
            alu_ticks = r.st_alu.(i);
            smem_ticks = r.st_smem.(i);
            atomic_ticks = r.st_atomic.(i);
            gmem_ticks = r.st_gmem.(i);
          })
  in
  Metrics.incr m_runs;
  Metrics.add m_cycles cycles;
  Metrics.add m_warps_launched !launched;
  Metrics.add m_warps_retired !retired;
  Metrics.add m_blocks_retired !blocks_retired;
  Metrics.add m_blocks_unlaunched !unlaunched;
  Metrics.add m_alu_busy (to_cycles !alu);
  Metrics.add m_smem_busy (to_cycles !smem);
  Metrics.add m_atomic_busy (to_cycles !atomic);
  Metrics.add m_gmem_busy (to_cycles !gmem);
  Metrics.add m_events_replayed !events;
  Metrics.add m_replay_ticks !replay_ticks;
  Metrics.add m_events_skipped !skipped;
  Metrics.add m_fast_forwards !fast_forwards;
  Metrics.add m_ff_rollbacks !rollbacks;
  if use_parallel then Metrics.add m_clusters_parallel ndistinct;
  Metrics.add m_clusters_reused (nsel - ndistinct);
  {
    cycles;
    seconds = float_of_int cycles /. (spec.core_clock_ghz *. 1e9);
    alu_busy_cycles = to_cycles !alu;
    smem_busy_cycles = to_cycles !smem;
    atomic_busy_cycles = to_cycles !atomic;
    gmem_busy_cycles = to_cycles !gmem;
    sms_simulated = nsel * spec.sms_per_cluster;
    clusters_simulated = nsel;
    warps_launched = !launched;
    warps_retired = !retired;
    blocks_retired = !blocks_retired;
    blocks_unlaunched = !unlaunched;
    stages_busy;
    sampled;
  }

let run ?(homogeneous = false) ?timeline ?sample ~(spec : Gpu_hw.Spec.t)
    ~max_resident_blocks (blocks : Trace.block_trace array) =
  if Array.length blocks = 0 then invalid_arg "Engine.run: no blocks";
  if max_resident_blocks <= 0 then
    invalid_arg "Engine.run: max_resident_blocks must be positive";
  let p = make_params spec in
  let rc =
    Option.map
      (make_recorder ~warp_stride:(warp_stride_for blocks))
      timeline
  in
  let clusters = distribute spec blocks in
  let cluster_load cl =
    Array.fold_left (fun acc q -> acc + List.length q) 0 cl
  in
  let selected =
    if homogeneous then begin
      (* Only the most-loaded cluster bounds the execution time. *)
      let best = ref 0 in
      Array.iteri
        (fun i cl ->
          if cluster_load cl > cluster_load clusters.(!best) then best := i)
        clusters;
      [| (!best, clusters.(!best)) |]
    end
    else
      Array.of_list
        (List.filter
           (fun (_, cl) -> cluster_load cl > 0)
           (Array.to_list (Array.mapi (fun i cl -> (i, cl)) clusters)))
  in
  let nonempty = Array.length selected in
  (* Sampled replay: a seeded subset of the non-empty clusters.  The
     homogeneous shortcut already simulates a single representative
     cluster, so sampling only applies to the heterogeneous path. *)
  let selected, sampling =
    match sample with
    | Some s when (not homogeneous) && nonempty > 1 ->
      let k =
        max 1
          (min nonempty
             (int_of_float (ceil (s.fraction *. float_of_int nonempty))))
      in
      if k >= nonempty then (selected, None)
      else
        let chosen = choose_indices ~seed:s.seed ~k nonempty in
        (Array.map (fun i -> selected.(i)) chosen, Some k)
    | Some _ | None -> (selected, None)
  in
  let nsel = Array.length selected in
  (* Distinct clusters: [slot.(i)] is the index in [distinct] of the
     first selected cluster that queues the same cooked warps as cluster
     [i], SM by SM and block by block.  Only the distinct ones run; the
     rest reuse their output.  A recording timeline keeps every cluster
     distinct, since each records its own slices under its own pid. *)
  let distinct = Array.make nsel 0 and ndistinct = ref 0 in
  let slot =
    Array.init nsel (fun i ->
        let rec find k =
          if k = !ndistinct then begin
            distinct.(k) <- i;
            incr ndistinct;
            k
          end
          else if
            Option.is_none rc
            && same_cluster (snd selected.(distinct.(k))) (snd selected.(i))
          then k
          else find (k + 1)
        in
        find 0)
  in
  let ndistinct = !ndistinct in
  (* Decode exactly the blocks that will run: the distinct clusters of
     the selection, so neither the clusters sampling skipped nor the
     repeats of a distinct one are cooked.  One cooker across them keeps
     replicated warp arrays decoded once grid-wide. *)
  let cook_block, cooks = cooker p in
  let cooked =
    Array.init ndistinct (fun k ->
        let ci, cl = selected.(distinct.(k)) in
        (ci, Array.map (List.map cook_block) cl))
  in
  Metrics.add m_warps_cooked (cooks ());
  let sampling =
    Option.map
      (fun k ->
        ( k,
          nonempty,
          Array.fold_left (fun acc (_, cl) -> acc + cluster_load cl) 0 selected
        ))
      sampling
  in
  replay p rc ~max_resident:max_resident_blocks ~sampling cooked slot

(* One warp trace cooked under one device's parameters, which it carries:
   what a block of identical warps replays. *)
type cooked_warp = { params : params; warp : cooked }

let cook_warp ~spec trace =
  Metrics.incr m_warps_cooked;
  let p = make_params spec in
  { params = p; warp = cook p (Bytes.make reg_slots '\000') trace }

(* [run ~homogeneous:true ~max_resident_blocks:1] on one block of [warps]
   warps sharing one trace: the block lands on SM 0 of cluster 0, the
   most-loaded cluster, whose other SMs queue nothing, and every warp
   queues the one cooked trace, as the run's intern table would make
   them. *)
let replay_shared ~warps c =
  if warps <= 0 then invalid_arg "Engine.replay_shared: warps must be positive";
  let p = c.params in
  let sms = Array.make p.spec.Gpu_hw.Spec.sms_per_cluster [] in
  sms.(0) <- [ { cbid = 0; cwarps = Array.make warps c.warp } ];
  replay p None ~max_resident:1 ~sampling:None [| (0, sms) |] [| 0 |]

(* --- per-stage attribution table --------------------------------------- *)

(* Mirrors the paper's per-barrier-stage breakdown: which pipeline carried
   the most busy time in each stage of the (replicated) kernel. *)
let pp_stage_attribution ppf r =
  if Array.length r.stages_busy = 0 then
    Fmt.pf ppf "no per-stage attribution (run without a timeline)"
  else begin
    Fmt.pf ppf "@[<v>%5s %12s %12s %12s %12s  %s@," "stage" "alu (cyc)"
      "smem (cyc)" "atomic (cyc)" "gmem (cyc)" "busiest";
    let to_cycles t = (t + ticks_per_cycle - 1) / ticks_per_cycle in
    Array.iteri
      (fun i s ->
        let busiest =
          let pairs =
            [
              ("alu", s.alu_ticks);
              ("smem", s.smem_ticks);
              ("atomic", s.atomic_ticks);
              ("gmem", s.gmem_ticks);
            ]
          in
          fst
            (List.fold_left
               (fun (bn, bt) (n, t) -> if t > bt then (n, t) else (bn, bt))
               (List.hd pairs) (List.tl pairs))
        in
        Fmt.pf ppf "%5d %12d %12d %12d %12d  %s@," i (to_cycles s.alu_ticks)
          (to_cycles s.smem_ticks)
          (to_cycles s.atomic_ticks)
          (to_cycles s.gmem_ticks) busiest)
      r.stages_busy;
    Fmt.pf ppf "@]"
  end

(* --- Analytic busy oracle (for lib/check) ----------------------------- *)

type busy = {
  alu_cycles : int;
  smem_cycles : int;
  atomic_cycles : int;
  gmem_cycles : int;
}

(* What the event-driven simulation must charge each pipeline, computed by
   summation alone — no scheduling, no event queue.  [run]'s busy counters
   must equal these exactly whenever every block is simulated
   ([homogeneous:false], no sampling); the checking harness asserts that
   they do, on both the serial and the parallel cluster path. *)
let expected_busy ~(spec : Gpu_hw.Spec.t) (blocks : Trace.block_trace array)
    =
  let p = make_params spec in
  let alu = ref 0 and smem = ref 0 and atomic = ref 0 and gmem = ref 0 in
  Array.iter
    (fun (bt : Trace.block_trace) ->
      Array.iter
        (fun wt ->
          Array.iter
            (fun (e : Trace.event) ->
              if not e.bar then
                match e.mem with
                | Trace.No_mem ->
                  alu := !alu + p.issue.(Gpu_sim.Stats.class_index e.cls)
                | Trace.Smem txns ->
                  smem := !smem + (txns * p.smem_access);
                  (* fused arithmetic with a shared operand also holds the
                     issue pipeline (mirrors [process]) *)
                  if e.cls <> Gpu_isa.Instr.Class_mem then
                    alu := !alu + p.issue.(Gpu_sim.Stats.class_index e.cls)
                | Trace.Smem_atomic txns ->
                  atomic := !atomic + (txns * p.smem_access)
                | Trace.Gmem_load txns | Trace.Gmem_store txns ->
                  gmem :=
                    !gmem
                    + Array.fold_left
                        (fun acc (_, size) -> acc + p.gmem_txn_ticks size)
                        0 txns)
            wt)
        bt.warps)
    blocks;
  let to_cycles b = (b + ticks_per_cycle - 1) / ticks_per_cycle in
  {
    alu_cycles = to_cycles !alu;
    smem_cycles = to_cycles !smem;
    atomic_cycles = to_cycles !atomic;
    gmem_cycles = to_cycles !gmem;
  }
