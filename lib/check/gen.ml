(* Seeded random generation of oracle access patterns and kernel cases.

   Randomness comes from Gpu_diag.Inject's splitmix64 (same seed, same
   stream, on every platform); each property/case pair derives its own
   sub-seed from (root seed, property tag, case index), so a single
   failing case replays without regenerating the whole run, and adding a
   property never shifts another property's stream. *)

module R = Gpu_diag.Inject
module I = Gpu_isa.Instr
module Trace = Gpu_sim.Trace

type rng = R.rng

(* splitmix64 scrambles even weak seed mixes, but keep the lanes apart. *)
let sub_rng ~seed ~tag index =
  R.make ~seed:((seed * 1_000_003) lxor (tag * 8191) lxor index)

let range r lo hi = lo + R.int r (hi - lo + 1)
let pick r arr = arr.(R.int r (Array.length arr))

(* --- access patterns for the memory oracles ------------------------------ *)

(* Addresses are width-aligned (the coalescer's input contract — the
   interpreter aligns them before it ever calls the analyzer). *)
let gen_lanes r ~count ~width =
  let window = 4096 in
  let aligned a = a / width * width in
  let base = aligned (R.int r window) in
  let pattern = R.int r 6 in
  let lane i =
    match pattern with
    | 0 -> base + (i * width) (* sequential *)
    | 1 ->
      let stride = pick r [| 2; 3; 4; 8; 16 |] in
      base + (i * stride * width)
    | 2 -> base (* broadcast *)
    | 3 -> aligned (R.int r window) (* scatter *)
    | 4 -> base + ((count - 1 - i) * width) (* reversed *)
    | _ ->
      (* two clusters straddling a segment boundary *)
      let far = aligned (base + 1024 + R.int r 256) in
      if i < count / 2 then base + (i * width) else far + (i * width)
  in
  let sparse = R.int r 4 = 0 in
  Array.init count (fun i ->
      if sparse && R.int r 4 = 0 then None else Some (lane i))

let gen_coalesce_access r =
  let width = pick r [| 4; 4; 4; 8; 16 |] in
  let max_segment = pick r [| 128; 128; 64 |] in
  let min_segment = max width (pick r [| 32; 32; 16; 8; 4 |]) in
  let group = pick r [| 16; 16; 16; 8; 32 |] in
  let count = pick r [| 16; 32; range r 1 32 |] in
  {
    Oracle.group;
    min_segment;
    max_segment;
    banks = 16;
    width;
    lanes = gen_lanes r ~count ~width;
  }

let gen_bank_access r =
  let width = pick r [| 4; 4; 4; 8 |] in
  let banks = pick r [| 16; 16; 16; 17; 8; 32 |] in
  let group = pick r [| 16; 16; 8; 32 |] in
  let count = pick r [| 16; 32; range r 1 32 |] in
  {
    Oracle.group;
    min_segment = 32;
    max_segment = 128;
    banks;
    width;
    lanes = gen_lanes r ~count ~width;
  }

(* Conflicting-address grids for the atomic oracle: unlike the plain bank
   generator, these deliberately concentrate lanes on few words — the
   same-word case is exactly where atomic serialization and bank-conflict
   counting diverge (a broadcast costs 1 shared transaction but k atomic
   ones). *)
let gen_atomic_lanes r ~count ~width =
  let aligned a = a / width * width in
  let window = 1024 in
  let base = aligned (R.int r window) in
  let pattern = R.int r 6 in
  let lane i =
    match pattern with
    | 0 -> base (* full contention: every lane the same word *)
    | 1 -> base + (i mod pick r [| 2; 4 |] * width) (* k-way duplicates *)
    | 2 -> base + (i * width) (* conflict-free sequential *)
    | 3 ->
      (* bin-grid: lanes hash into a handful of bins, the histogram
         shape *)
      let bins = pick r [| 3; 5; 8 |] in
      base + (i * 7 mod bins * width)
    | 4 ->
      let stride = pick r [| 16; 32 |] in
      base + (i * stride * width) (* same-bank, distinct words *)
    | _ -> aligned (R.int r window) (* scatter *)
  in
  let sparse = R.int r 4 = 0 in
  Array.init count (fun i ->
      if sparse && R.int r 4 = 0 then None else Some (lane i))

let gen_atomic_access r =
  let width = 4 in
  let banks = pick r [| 16; 16; 16; 8; 32 |] in
  let group = pick r [| 16; 16; 8; 32 |] in
  let count = pick r [| 16; 32; range r 1 32 |] in
  {
    Oracle.group;
    min_segment = 32;
    max_segment = 128;
    banks;
    width;
    lanes = gen_atomic_lanes r ~count ~width;
  }

(* --- kernel cases for the engine auditor --------------------------------- *)

let work_classes = [| I.Class_i; I.Class_ii; I.Class_ii; I.Class_iii;
                      I.Class_iv; I.Class_ctrl |]

let gen_srcs r =
  Array.init (R.int r 3) (fun _ ->
      if R.int r 8 = 0 then Trace.pred_reg_base + R.int r 4 else R.int r 64)

let gen_dst r = if R.int r 4 = 0 then Trace.no_reg else R.int r 64

let gen_gmem_txns r =
  Array.init
    (range r 1 4)
    (fun _ ->
      let size = pick r [| 32; 64; 128 |] in
      (R.int r 4096 / size * size, size))

let gen_ev r =
  match R.int r 12 with
  | 0 | 1 ->
    Case.Smem
      {
        fused = R.bool r;
        txns = range r 1 16;
        dst = gen_dst r;
        srcs = gen_srcs r;
      }
  | 2 | 3 ->
    Case.Gmem
      {
        store = R.bool r;
        txns = gen_gmem_txns r;
        dst = gen_dst r;
        srcs = gen_srcs r;
      }
  | 4 | 5 ->
    (* contention-serialized atomics: up to a whole group serializing on
       one word (16 transactions per half-warp, 32 for the warp) *)
    Case.Atomic
      { txns = range r 1 32; dst = gen_dst r; srcs = gen_srcs r }
  | _ -> Case.Alu { cls = pick r work_classes; dst = gen_dst r; srcs = gen_srcs r }

(* A loop: [body] repeated [reps] times. *)
let repeat reps body = Array.concat (List.init reps (fun _ -> body))

(* Heterogeneous grid exercising every scheduling path: empty warps (the
   slot-return shape), warps whose final stage is empty (the
   barrier-final retirement shape), uneven per-block structure, and
   occupancy limits small enough to keep blocks queued behind each
   other.  In one case in three every stage loops, its events a body
   repeated 20-100 times: the steady state the engine fast-forwards, so
   the audit compares fast-forwarded replays with their timeline runs.
   That draw comes last, so the other cases are the ones this generator
   always made. *)
let gen_audit_case r =
  let nblocks = range r 1 24 in
  let blocks =
    Array.init nblocks (fun _ ->
        let nstages = range r 1 4 in
        let nwarps = range r 1 8 in
        let warps =
          Array.init nwarps (fun _ ->
              if R.int r 10 = 0 then Case.Empty
              else
                Case.Stages
                  (Array.init nstages (fun _ ->
                       Array.init (R.int r 7) (fun _ -> gen_ev r))))
        in
        { Case.nstages; warps })
  in
  let c = { Case.max_resident = range r 1 8; uniform = false; blocks } in
  if R.int r 3 <> 0 then c
  else begin
    let reps = range r 20 100 in
    let loop = function
      | Case.Empty -> Case.Empty
      | Case.Stages stages -> Case.Stages (Array.map (repeat reps) stages)
    in
    {
      c with
      blocks =
        Array.map
          (fun (b : Case.block) -> { b with warps = Array.map loop b.warps })
          blocks;
    }
  end

(* --- uniform cases for the model differential ----------------------------
   The throughput model assumes a homogeneous, reasonably saturated grid
   (its tables are calibrated on dependent chains at a given warp
   count), so the differential generator stays in that domain: identical
   blocks, full device multiples where possible, mostly dependent
   arithmetic chains with a sprinkling of shared/global traffic. *)

let gen_diff_ev r ~spec ~acc =
  (* memory events stream independently (rotating scratch destinations,
     no chain edge): the model assumes memory latency overlaps other
     work, which the engine only reproduces when accesses are not
     serialized through a dependent chain — the same structure the
     calibrated synthetic benchmarks and the paper's case studies have *)
  let scratch = 32 + R.int r 16 in
  match R.int r 13 with
  | 0 ->
    Case.Smem
      {
        fused = R.bool r;
        txns = pick r [| 2; 2; 2; 4; 8 |];
        dst = scratch;
        srcs = [||];
      }
  | 12 ->
    Case.Atomic
      {
        txns = pick r [| 2; 2; 4; 8; 16 |];
        dst = scratch;
        srcs = [||];
      }
  | 1 ->
    (* transactions the size the device's coalescer would produce for a
       dense stream (the shape the gmem tables are calibrated on): the
       spec's coalesced-transaction size or a full max segment — 64/128
       on the GT200 baseline, 128/128 on a full-warp-coalescing spec *)
    let size =
      pick r
        [|
          Gpu_hw.Spec.gmem_transaction_bytes spec;
          spec.Gpu_hw.Spec.max_segment_bytes;
        |]
    in
    Case.Gmem
      {
        store = false;
        txns =
          Array.init 2 (fun i -> ((R.int r 64 * 128) + (i * size), size));
        dst = scratch;
        srcs = [||];
      }
  | n ->
    let cls = if n < 10 then I.Class_ii else I.Class_iii in
    Case.Alu { cls; dst = acc; srcs = [| acc; R.int r 32 + 64 |] }

let gen_diff_case ~spec r =
  (* full device multiples where possible, derived from the spec's SM
     count so non-baseline fleets stay saturated too (the GT200
     baseline's 30 SMs reproduce the historical 30/60/90/120/10/40) *)
  let s = spec.Gpu_hw.Spec.num_sms in
  let nblocks =
    pick r
      [| s; s; 2 * s; 2 * s; 3 * s; 4 * s; max 1 (s / 3); 4 * s / 3 |]
  in
  let nwarps = pick r [| 2; 4; 4; 8; 8; 16 |] in
  let nstages = range r 1 3 in
  let shape =
    Array.init nwarps (fun w ->
        (* per-warp accumulator register keeps each warp a dependent
           chain, the workload shape the tables are calibrated on *)
        let acc = w mod 32 in
        Case.Stages
          (Array.init nstages (fun _ ->
               Array.init (range r 20 60) (fun _ -> gen_diff_ev r ~spec ~acc))))
  in
  let blocks =
    Array.init nblocks (fun _ -> { Case.nstages; warps = shape })
  in
  (* the differential derives the real residency limit from the occupancy
     calculator; this field only matters if the case is replayed through
     the auditor *)
  { Case.max_resident = 8; uniform = true; blocks }
