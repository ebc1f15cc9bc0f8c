(* The SIMT interpreter at the heart of the functional simulator (the Barra
   analog).  Warps of 32 lanes execute the native ISA in lockstep; branch
   divergence uses the classic reconvergence stack driven by the
   post-dominator labels the compiler records in conditional branches.

   A block's warps run round-robin between barriers: each warp executes
   until it reaches a barrier or exits, then the next warp runs.  This is
   functionally exact for programs whose cross-warp shared-memory
   communication is barrier-delimited — which the barrier programming model
   requires anyway.

   The hot path allocates nothing but the trace events it records
   (DESIGN §18):
   - registers and shared memory are unboxed [Bytes], predicates and the
     SIMT stack are lane masks in [int]s;
   - each program is decoded once per run ([prepare]): branch targets,
     cost class, operand slots with immediates already converted, and the
     static trace sources, so a non-memory instruction records one shared
     event per pc;
   - every opcode runs a direct, closure-free lane loop;
   - memory instructions stage their lane addresses into the run's [int]
     buffer and hand it with the lane mask to the allocation-free
     [Bank]/[Coalesce] core; a global access hands [Memory] the whole
     lane set, which it checks and then moves in one call;
   - a count-only shared access that follows a count-only broadcast
     through the same base, in the same warp under the same mask, with
     no needed pc between them, stages its one address without reading
     the lanes ([stage_counted]).
   The per-lane code and its value conversions ([Conv]) live in this one
   compilation unit on purpose: the build compiles modules [-opaque], so a
   helper in another module taking or returning [int64], [int32] or
   [float] would box on every call. *)

module I = Gpu_isa.Instr
module Bank = Gpu_mem.Bank
module Coalesce = Gpu_mem.Coalesce

exception Stuck of string

let stuck fmt = Printf.ksprintf (fun s -> raise (Stuck s)) fmt

type config = {
  spec : Gpu_hw.Spec.t;
  coalesce : Coalesce.config;
  collect_trace : bool;
  max_warp_instructions : int; (* runaway-kernel guard *)
  inject_stuck_at : int option; (* fault injection: trap at this issue *)
}

let config ?(collect_trace = false) ?(max_warp_instructions = 500_000_000)
    ?inject_stuck_at spec =
  {
    spec;
    coalesce = Coalesce.config_of_spec spec;
    collect_trace;
    max_warp_instructions;
    inject_stuck_at;
  }

(* --- Register values -------------------------------------------------- *)

(* Register values are 64-bit bit patterns.  32-bit integer and
   single-precision operations use the low word (zero-extended back in, so
   values have a canonical form); the double-precision class IV operations
   use the full width — an architectural simplification over real register
   pairs, noted in DESIGN.md.  [Value] re-exports these for host code. *)
module Conv = struct
  type t = int64

  let low_mask = 0xFFFF_FFFFL

  let[@inline] of_i32 (x : int32) : t = Int64.logand (Int64.of_int32 x) low_mask

  let[@inline] to_i32 (v : t) : int32 = Int64.to_int32 v

  (* Round an OCaml float to the nearest single-precision value. *)
  let[@inline] round_f32 (x : float) : float =
    Int32.float_of_bits (Int32.bits_of_float x)

  let[@inline] of_f32 (x : float) : t = of_i32 (Int32.bits_of_float x)

  let[@inline] to_f32 (v : t) : float = Int32.float_of_bits (to_i32 v)

  let[@inline] of_f64 (x : float) : t = Int64.bits_of_float x

  let[@inline] to_f64 (v : t) : float = Int64.float_of_bits v

  let[@inline] of_int (x : int) : t = Int64.logand (Int64.of_int x) low_mask

  let[@inline] to_int (v : t) : int = Int32.to_int (to_i32 v)
end

open Conv

let negative_address () = invalid_arg "Value.to_address: negative address"

(* Byte address held in a register, as a non-negative int. *)
let[@inline] to_address (v : t) =
  let a = to_int v in
  if a < 0 then negative_address () else a

(* --- Machine state ------------------------------------------------------ *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"
external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

let lanes = 32

(* Register [r] of lane [l] is the 8 bytes at [r * row + 8 * l]. *)
let row = 8 * lanes

let full_mask n = (1 lsl n) - 1

type warp = {
  wid : int;
  base_tid : int; (* tid of lane 0 *)
  regs : Bytes.t; (* nregs rows of 32 lanes *)
  preds : int array; (* one lane mask per predicate register *)
  (* SIMT reconvergence stack, frames [0, sp): frame [sp - 1] is the
     executing one *)
  mutable sp : int;
  mutable fpc : int array;
  mutable frpc : int array; (* reconvergence pc, -1 for the bottom frame *)
  mutable fmask : int array;
  mutable finished : bool;
  mutable at_barrier : bool;
  mutable issued : int;
  mutable counted_stage : int; (* last stage this warp was counted active in *)
  trace : Trace.builder;
}

type block = {
  bid : int;
  grid : int; (* blocks in the launch, for %nctaid *)
  nthreads : int;
  shared : Bytes.t; (* shared memory words *)
  warps : warp array;
  mutable stage : int;
}

let make_warp ~wid ~base_tid ~nlanes ~nregs =
  {
    wid;
    base_tid;
    regs = Bytes.make (max 1 nregs * row) '\000';
    preds = Array.make I.num_preds 0;
    sp = 1;
    fpc = Array.make 4 0;
    frpc = Array.make 4 (-1);
    fmask = Array.make 4 (full_mask nlanes);
    finished = false;
    at_barrier = false;
    issued = 0;
    counted_stage = -1;
    trace = Trace.builder ();
  }

let make_block ~bid ~grid ~nthreads ~smem_bytes ~nregs =
  let nwarps = (nthreads + lanes - 1) / lanes in
  let warps =
    Array.init nwarps (fun w ->
        let base_tid = w * lanes in
        let nlanes = min lanes (nthreads - base_tid) in
        make_warp ~wid:w ~base_tid ~nlanes ~nregs)
  in
  {
    bid;
    grid;
    nthreads;
    shared = Bytes.make (4 * max 1 ((smem_bytes + 3) / 4)) '\000';
    warps;
    stage = 0;
  }

let set_param block (I.R r) v =
  Array.iter
    (fun w ->
      for lane = 0 to lanes - 1 do
        set64 w.regs ((r * row) + (8 * lane)) v
      done)
    block.warps

let trace block =
  {
    Trace.block = block.bid;
    warps = Array.map (fun w -> Trace.finish w.trace) block.warps;
  }

let push w ~pc ~rpc ~mask =
  if w.sp = Array.length w.fpc then begin
    let grow a = Array.append a a in
    w.fpc <- grow w.fpc;
    w.frpc <- grow w.frpc;
    w.fmask <- grow w.fmask
  end;
  w.fpc.(w.sp) <- pc;
  w.frpc.(w.sp) <- rpc;
  w.fmask.(w.sp) <- mask;
  w.sp <- w.sp + 1

(* Pop reconverged frames: a frame whose pc reached its reconvergence point
   transfers control to the next stacked side (or the continuation). *)
let pop_reconverged w =
  while w.sp > 1 && w.fpc.(w.sp - 1) = w.frpc.(w.sp - 1) do
    w.sp <- w.sp - 1
  done

(* --- Shared-memory access --------------------------------------------- *)

(* [width] is 4, so the alignment test is a mask, not a division. *)
let shared_check block addr width =
  let bytes = Bytes.length block.shared in
  if addr < 0 || addr + width > bytes then
    stuck "block %d: shared access at %#x outside [0, %#x)" block.bid addr
      bytes;
  if addr land (width - 1) <> 0 then
    stuck "block %d: misaligned shared access at %#x" block.bid addr


(* --- ALU semantics ---------------------------------------------------- *)

let[@inline] sext24 x = Int32.shift_right (Int32.shift_left x 8) 8

let[@inline] exec_ibinop op (a : int32) b =
  let open Int32 in
  match op with
  | I.Add -> add a b
  | I.Sub -> sub a b
  | I.Mul24 -> mul (sext24 a) (sext24 b)
  | I.Mul -> mul a b
  | I.Min -> if a <= b then a else b
  | I.Max -> if a >= b then a else b
  | I.And -> logand a b
  | I.Or -> logor a b
  | I.Xor -> logxor a b
  | I.Shl -> shift_left a (to_int (logand b 31l))
  | I.Shr -> shift_right a (to_int (logand b 31l))

(* The float operations return the exact double; [of_f32] rounds it to
   single precision once, when it becomes a register value. *)
let[@inline] exec_fbinop op (a : float) b =
  match op with
  | I.Fadd -> a +. b
  | I.Fsub -> a -. b
  | I.Fmul -> a *. b
  | I.Fmin -> if a <= b then a else b
  | I.Fmax -> if a >= b then a else b

let[@inline] exec_dbinop op a b =
  match op with I.Dadd -> a +. b | I.Dmul -> a *. b

let[@inline] exec_sfu op a =
  match op with
  | I.Rcp -> 1.0 /. a
  | I.Rsqrt -> 1.0 /. sqrt a
  | I.Sin -> sin a
  | I.Cos -> cos a
  | I.Lg2 -> log a /. log 2.0
  | I.Ex2 -> Float.pow 2.0 a

let[@inline] exec_cvt op x =
  match op with
  | I.I2f -> of_f32 (Int32.to_float (to_i32 x))
  | I.F2i -> of_i32 (Int32.of_float (to_f32 x))
  | I.F2i_rni -> of_i32 (Int32.of_float (Float.round (to_f32 x)))

let[@inline] compare_values cmp ty (a : t) (b : t) =
  match ty with
  | I.S32 ->
    let x = to_i32 a and y = to_i32 b in
    (match cmp with
    | I.Eq -> x = y
    | I.Ne -> x <> y
    | I.Lt -> x < y
    | I.Le -> x <= y
    | I.Gt -> x > y
    | I.Ge -> x >= y)
  | I.F32 ->
    let x = to_f32 a and y = to_f32 b in
    (match cmp with
    | I.Eq -> x = y
    | I.Ne -> x <> y
    | I.Lt -> x < y
    | I.Le -> x <= y
    | I.Gt -> x > y
    | I.Ge -> x >= y)

(* --- Decoding ----------------------------------------------------------- *)

(* One instruction, decoded once per run. *)
type decoded = {
  op : I.op;
  needed : bool; (* computes its lane values (see [prepare]) *)
  cls : I.cost_class;
  guard : int; (* guard predicate register, or -1 *)
  sense : bool; (* lanes run where the guard equals this *)
  work : bool; (* counts its warp active in the stage *)
  mad : bool;
  target : int; (* resolved branch target pc, or -1 *)
  reconv : int; (* resolved reconvergence pc, or -1 *)
  dst : int; (* trace destination *)
  srcs : int array; (* trace sources, in recording order *)
  event : Trace.event; (* the event every issue of a non-memory op records *)
  (* Operand slots a, b, c: lane [l] of slot a reads the 8 bytes at
     [xa + 8 * l] of the register file, or of [ka] when the operand is an
     immediate — converted to a register value at decode time and
     broadcast to every lane, so the lane loops never branch on it. *)
  xa : int;
  ka : Bytes.t option;
  xb : int;
  kb : Bytes.t option;
  xc : int;
  kc : Bytes.t option;
}

(* The broadcast row of an immediate, one per distinct value in a run:
   [rows] belongs to one [prepare], and no lane loop writes an operand
   row, so the pcs of one run share it. *)
module Rows = Hashtbl.Make (Int64)

let broadcast rows v =
  match Rows.find_opt rows v with
  | Some b -> Some b
  | None ->
    let b = Bytes.create row in
    for lane = 0 to lanes - 1 do
      set64 b (8 * lane) v
    done;
    Rows.add rows v b;
    Some b

let slot rows = function
  | Some (I.Reg (I.R r)) -> (r * row, None)
  | Some (I.Imm v) -> (0, broadcast rows (of_i32 v))
  | Some (I.Fimm f) -> (0, broadcast rows (of_f32 f))
  | None -> (0, None)

let reg_id (I.R r) = r

let trace_id = function
  | I.Gpr r -> reg_id r
  | I.Prd (I.P p) -> Trace.pred_reg_base + p

(* Static trace registers of an instruction; the order of [srcs] is part
   of the trace format: the operation's reads, last first, then the
   guard. *)
let trace_regs (instr : I.t) =
  let reads = I.reads instr.op in
  let n = List.length reads in
  let srcs = Array.make (if Option.is_none instr.pred then n else n + 1) 0 in
  List.iteri (fun i r -> srcs.(n - 1 - i) <- trace_id r) reads;
  Option.iter (fun (p, _) -> srcs.(n) <- trace_id (I.Prd p)) instr.pred;
  (Option.fold ~none:Trace.no_reg ~some:trace_id (I.writes instr.op), srcs)

let decode program rows ~needed (instr : I.t) =
  let cls = I.classify instr in
  let dst, srcs = trace_regs instr in
  let pc = Gpu_isa.Program.target_pc program in
  let target, reconv =
    match instr.op with
    | I.Bra l -> (pc l, -1)
    | I.Bra_pred (_, _, l, r) -> (pc l, pc r)
    | _ -> (-1, -1)
  in
  let a, b, c =
    match instr.op with
    | I.Mov (_, a) | I.Sfu (_, _, a) | I.Cvt (_, _, a) | I.St (_, _, _, a) ->
      (Some a, None, None)
    | I.Iop (_, _, a, b)
    | I.Fop (_, _, a, b)
    | I.Dop (_, _, a, b)
    | I.Setp (_, _, _, a, b)
    | I.Selp (_, a, b, _) ->
      (Some a, Some b, None)
    | I.Imad (_, a, b, c) | I.Fmad (_, a, b, c) | I.Dfma (_, a, b, c) ->
      (Some a, Some b, Some c)
    | I.Fmad_smem (_, a, _, c) -> (Some a, None, Some c)
    | I.Atom (_, _, _, s, swap) -> (Some s, swap, None)
    | I.Mov_sreg _ | I.Ld _ | I.Bra _ | I.Bra_pred _ | I.Bar | I.Exit ->
      (None, None, None)
  in
  let xa, ka = slot rows a and xb, kb = slot rows b and xc, kc = slot rows c in
  let guard, sense =
    match instr.pred with Some (I.P p, s) -> (p, s) | None -> (-1, true)
  in
  {
    op = instr.op;
    needed;
    cls;
    guard;
    sense;
    (* A warp is "active" in a stage once it issues real work there with
       at least one enabled lane; the control skeleton every warp runs to
       skip a guarded region (setp, branches, barriers) does not count, so
       the per-step warp-level parallelism of workloads like cyclic
       reduction is what the paper reports (8, 4, 2, 1 warps). *)
    work =
      (match instr.op with
      | I.Setp _ | I.Bra _ | I.Bra_pred _ | I.Bar | I.Exit -> false
      | I.Mov _ | I.Mov_sreg _ | I.Iop _ | I.Imad _ | I.Fop _ | I.Fmad _
      | I.Fmad_smem _ | I.Dop _ | I.Dfma _ | I.Sfu _ | I.Cvt _ | I.Selp _
      | I.Ld _ | I.St _ | I.Atom _ ->
        true);
    mad = (match instr.op with I.Fmad _ | I.Fmad_smem _ -> true | _ -> false);
    target;
    reconv;
    dst;
    srcs;
    event =
      {
        Trace.cls;
        dst;
        srcs;
        mem = Trace.No_mem;
        bar = (match instr.op with I.Bar -> true | _ -> false);
      };
    xa;
    ka;
    xb;
    kb;
    xc;
    kc;
  }

(* A program decoded for one [Sim.launch], with the run's scratch buffers:
   the staged lane addresses of the current memory instruction and the
   bank/coalescing tallies.  Owned by the run, so concurrent runs on
   several domains never share them.

   [reuse_*] is the last count-only broadcast staging (see
   [stage_counted]): warp [reuse_warp] of the current block (-1: none)
   read one address through register [reuse_base] under enabled mask
   [reuse_mask], whose first lane [reuse_lane] held [reuse_value]. *)
type run = {
  cfg : config;
  code : decoded array;
  global_words : bool; (* a pc may load or store a global word *)
  addrs : int array;
  bank : Bank.scratch;
  coal : Coalesce.scratch;
  mutable counted_only : int; (* warp-instructions that skipped values *)
  mutable staging_reused : int; (* count-only accesses that reused one *)
  mutable reuse_warp : int;
  mutable reuse_base : int;
  mutable reuse_mask : int;
  mutable reuse_lane : int;
  mutable reuse_value : int;
}

(* A statistics launch ([values = false]) computes only what
   [Relevance.needed] marks; a values launch computes every pc.  A
   statistics launch moves a global word only through a needed global
   load: a global store is needed only once global memory is, which takes
   a load whose destination is live. *)
let prepare ~values cfg program =
  let code = Gpu_isa.Program.code program in
  let needed =
    if values then Array.make (Array.length code) true
    else Relevance.needed program
  in
  let rows = Rows.create 16 in
  let code =
    Array.mapi (fun pc instr -> decode program rows ~needed:needed.(pc) instr)
      code
  in
  let global_load d =
    d.needed && match d.op with I.Ld (I.Global, _, _, _) -> true | _ -> false
  in
  {
    cfg;
    code;
    global_words = values || Array.exists global_load code;
    addrs = Array.make lanes 0;
    bank = Bank.scratch ();
    coal = Coalesce.scratch ();
    counted_only = 0;
    staging_reused = 0;
    reuse_warp = -1;
    reuse_base = 0;
    reuse_mask = 0;
    reuse_lane = 0;
    reuse_value = 0;
  }

let counted_only run = run.counted_only

let staging_reused run = run.staging_reused

let moves_global_words run = run.global_words

(* --- Instruction execution -------------------------------------------- *)

type outcome = Continue | Hit_barrier | Exited

(* The bytes an operand slot reads: the register file, or the broadcast
   immediate. *)
let source regs = function None -> regs | Some k -> k

let[@inline] operand src x lane = get64 src (x + (8 * lane))

let[@inline] enabled em lane = em land (1 lsl lane) <> 0

(* Stage the enabled lanes' addresses of a memory access into [run.addrs];
   a negative address raises before any lane executes.  Returns the first
   enabled lane when every enabled lane has its address (a broadcast),
   else -1 (also when no lane is enabled). *)
let stage_addresses run w em (m : I.maddr) =
  let addrs = run.addrs and regs = w.regs in
  let base = reg_id m.base * row and offset = m.offset in
  let first = ref (-1) and same = ref true in
  for lane = 0 to lanes - 1 do
    if enabled em lane then begin
      let a = to_address (get64 regs (base + (8 * lane))) + offset in
      addrs.(lane) <- a;
      if !first < 0 then first := lane
      else if a <> addrs.(!first) then same := false
    end
  done;
  if !same then !first else -1

(* [stage_addresses] for a count-only 32-bit shared access, which reads
   only the one address of a broadcast.  A count-only instruction writes
   no register, predicate or memory, and the entry is cleared before
   every needed pc and at every block start ([execute], [run_block]).  So
   while it stands, the warp's registers are those of the staging that
   filled it: under the same enabled mask, its lanes still share
   [reuse_value] in [reuse_base], and the address through the same base
   is that value plus this access's offset, staged for the first lane
   only.  Only a count-only access fills it: a needed one may write its
   own base after staging ([ld.shared rB, [rB+o]]). *)
let stage_counted run w em (m : I.maddr) =
  let base = reg_id m.base in
  if run.reuse_warp = w.wid && run.reuse_base = base && run.reuse_mask = em
  then begin
    run.staging_reused <- run.staging_reused + 1;
    let lane = run.reuse_lane in
    run.addrs.(lane) <- run.reuse_value + m.offset;
    lane
  end
  else begin
    let one = stage_addresses run w em m in
    if one >= 0 then begin
      run.reuse_warp <- w.wid;
      run.reuse_base <- base;
      run.reuse_mask <- em;
      run.reuse_lane <- one;
      run.reuse_value <- run.addrs.(one) - m.offset
    end;
    one
  end

(* The staging of a 32-bit shared load, store or fused MAD: a needed one
   reads every enabled lane's address. *)
let stage_shared run w d em m =
  if d.needed then stage_addresses run w em m else stage_counted run w em m

(* Check a 32-bit shared access before any word moves: the one address
   of a broadcast ([one >= 0], see [stage_addresses]) once, else every
   enabled lane in lane order, so the first bad lane raises with its own
   message.  Nothing a faulting run leaves behind is observable: [launch]
   raises and [launch_result] copies nothing back. *)
let check_shared block addrs em one =
  if one >= 0 then shared_check block addrs.(one) 4
  else
    for lane = 0 to lanes - 1 do
      if enabled em lane then shared_check block addrs.(lane) 4
    done

(* Record the shared event of a non-memory instruction. *)
let record cfg w d = if cfg.collect_trace then Trace.add w.trace d.event

(* A memory instruction's event carries its dynamic transactions. *)
let record_mem w d mem =
  Trace.add w.trace
    { Trace.cls = d.cls; dst = d.dst; srcs = d.srcs; mem; bar = false }

let count_smem run st block w d ~pc ~width em =
  let spec = run.cfg.spec in
  let group = spec.Gpu_hw.Spec.coalesce_threads in
  let txns =
    Bank.conflicts run.bank ~width ~banks:spec.Gpu_hw.Spec.smem_banks ~group
      run.addrs ~mask:em
  in
  let ideal = Bank.ideal ~width ~group run.addrs ~mask:em in
  Stats.count_smem st ~stage:block.stage ~pc ~txns ~ideal;
  if run.cfg.collect_trace then record_mem w d (Trace.Smem txns)

(* A 32-bit shared access.  When its enabled lanes all address one
   checked word, every active issue group is one transaction, and so is
   its ideal: what the tally would find, without walking the lanes. *)
let count_shared run st block w d ~pc em one =
  if one < 0 then count_smem run st block w d ~pc ~width:4 em
  else begin
    let n =
      Bank.active_groups ~group:run.cfg.spec.Gpu_hw.Spec.coalesce_threads
        ~mask:em
    in
    Stats.count_smem st ~stage:block.stage ~pc ~txns:n ~ideal:n;
    if run.cfg.collect_trace then record_mem w d (Trace.Smem n)
  end

let count_atomic run st block w d ~pc em =
  let spec = run.cfg.spec in
  let group = spec.Gpu_hw.Spec.coalesce_threads in
  let txns =
    Bank.atomic_conflicts run.bank ~width:4
      ~banks:spec.Gpu_hw.Spec.smem_banks ~group run.addrs ~mask:em
  in
  let ideal = Bank.ideal_atomic ~group ~mask:em in
  Stats.count_atomic st ~stage:block.stage ~pc ~txns ~ideal;
  if run.cfg.collect_trace then record_mem w d (Trace.Smem_atomic txns)

let count_gmem run st block w d ~pc ~width ~store em =
  let coal = run.coal in
  let n = Coalesce.serve run.cfg.coalesce coal ~width run.addrs ~mask:em in
  let bytes = ref 0 in
  for i = 0 to n - 1 do
    bytes := !bytes + coal.sizes.(i)
  done;
  Stats.count_gmem st ~stage:block.stage ~pc ~txns:n ~bytes:!bytes
    ~requested:(Gpu_mem.Lanes.count em * width);
  if run.cfg.collect_trace then begin
    let txns = Array.make n (0, 0) in
    for i = 0 to n - 1 do
      txns.(i) <- (coal.bases.(i), coal.sizes.(i))
    done;
    record_mem w d
      (if store then Trace.Gmem_store txns else Trace.Gmem_load txns)
  end

(* Run the lanes of a straight-line (non-control) instruction.  A memory
   instruction counts its accesses and records its own event; the others
   record their pc's static event.  A pc that is not [needed] does all of
   that, with every check a memory access makes, but computes no lane
   value: nothing it would compute can raise or reach what a run
   observes. *)
let execute run ~gmem ~stats:st block w d ~pc em =
  let cfg = run.cfg in
  let regs = w.regs in
  let sa = source regs d.ka and sb = source regs d.kb in
  let sc = source regs d.kc in
  let xa = d.xa and xb = d.xb and xc = d.xc in
  if d.needed then run.reuse_warp <- -1
  else run.counted_only <- run.counted_only + 1;
  match d.op with
  | I.Fmad_smem (dr, _, m, _) ->
    let one = stage_shared run w d em m in
    let addrs = run.addrs and o = reg_id dr * row in
    check_shared block addrs em one;
    if d.needed then
      for lane = 0 to lanes - 1 do
        if enabled em lane then
          let b = Int32.float_of_bits (get32 block.shared addrs.(lane)) in
          let x = to_f32 (operand sa xa lane)
          and z = to_f32 (operand sc xc lane) in
          set64 regs (o + (8 * lane)) (of_f32 ((x *. b) +. z))
      done;
    count_shared run st block w d ~pc em one
  | I.Ld (I.Shared, width, dr, m) ->
    if width <> 4 then stuck "shared loads must be 32-bit";
    let one = stage_shared run w d em m in
    let addrs = run.addrs and o = reg_id dr * row in
    check_shared block addrs em one;
    if d.needed then
      for lane = 0 to lanes - 1 do
        if enabled em lane then
          set64 regs
            (o + (8 * lane))
            (of_i32 (get32 block.shared addrs.(lane)))
      done;
    count_shared run st block w d ~pc em one
  | I.St (I.Shared, width, m, _) ->
    if width <> 4 then stuck "shared stores must be 32-bit";
    let one = stage_shared run w d em m in
    let addrs = run.addrs in
    check_shared block addrs em one;
    (* lane order: of lanes storing to one word, the last one's value *)
    if d.needed then
      for lane = 0 to lanes - 1 do
        if enabled em lane then
          set32 block.shared addrs.(lane) (to_i32 (operand sa xa lane))
      done;
    count_shared run st block w d ~pc em one
  | I.Ld (I.Global, width, dr, m) ->
    ignore (stage_addresses run w em m);
    if d.needed then
      Memory.load_lanes gmem ~width run.addrs ~mask:em regs
        ~reg:(reg_id dr * row)
    else Memory.check_lanes gmem ~width run.addrs ~mask:em;
    count_gmem run st block w d ~pc ~width ~store:false em
  | I.St (I.Global, width, m, _) ->
    ignore (stage_addresses run w em m);
    if d.needed then
      Memory.store_lanes gmem ~width run.addrs ~mask:em sa ~reg:xa
    else Memory.check_lanes gmem ~width run.addrs ~mask:em;
    count_gmem run st block w d ~pc ~width ~store:true em
  | I.Atom (op, dr, m, _, swap) ->
    (match (op, swap) with
    | I.Acas, None -> stuck "atom.cas needs a swap operand"
    | (I.Aadd | I.Amin | I.Amax), Some _ ->
      stuck "atom.%s takes no swap operand" (I.name I.atomic_ops op)
    | I.Acas, Some _ | (I.Aadd | I.Amin | I.Amax), None -> ());
    let one = stage_addresses run w em m in
    let addrs = run.addrs and o = reg_id dr * row in
    check_shared block addrs em one;
    (* Lanes perform their read-modify-writes in lane order, each one
       observing the previous lane's write — the serialization the
       transaction count below charges for, also when every lane has one
       address.  The destination is written before the sources are read,
       so a source aliasing it sees the old value. *)
    if d.needed then
      for lane = 0 to lanes - 1 do
        if enabled em lane then begin
          let a = addrs.(lane) in
          let old = get32 block.shared a in
          set64 regs (o + (8 * lane)) (of_i32 old);
          let src = to_i32 (operand sa xa lane) in
          let nv =
            match op with
            | I.Aadd -> Int32.add old src
            | I.Amin -> if old <= src then old else src
            | I.Amax -> if old >= src then old else src
            | I.Acas ->
              if old = src then to_i32 (operand sb xb lane) else old
          in
          set32 block.shared a nv
        end
      done;
    count_atomic run st block w d ~pc em
  | I.Bra _ | I.Bra_pred _ | I.Bar | I.Exit -> () (* see [step] *)
  | _ when not d.needed -> record cfg w d
  | I.Mov (dr, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set64 regs (o + (8 * lane)) (operand sa xa lane)
    done;
    record cfg w d
  | I.Mov_sreg (dr, s) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let v =
          match s with
          | I.Tid_x -> w.base_tid + lane
          | I.Ntid_x -> block.nthreads
          | I.Ctaid_x -> block.bid
          | I.Nctaid_x -> block.grid
          | I.Laneid -> lane
          | I.Warpid -> w.wid
        in
        set64 regs (o + (8 * lane)) (of_int v)
    done;
    record cfg w d
  | I.Iop (op, dr, _, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let x = to_i32 (operand sa xa lane)
        and y = to_i32 (operand sb xb lane) in
        set64 regs (o + (8 * lane)) (of_i32 (exec_ibinop op x y))
    done;
    record cfg w d
  | I.Imad (dr, _, _, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let x = to_i32 (operand sa xa lane)
        and y = to_i32 (operand sb xb lane)
        and z = to_i32 (operand sc xc lane) in
        set64 regs
          (o + (8 * lane))
          (of_i32 (Int32.add (Int32.mul (sext24 x) (sext24 y)) z))
    done;
    record cfg w d
  | I.Fop (op, dr, _, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let x = to_f32 (operand sa xa lane)
        and y = to_f32 (operand sb xb lane) in
        set64 regs (o + (8 * lane)) (of_f32 (exec_fbinop op x y))
    done;
    record cfg w d
  | I.Fmad (dr, _, _, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let x = to_f32 (operand sa xa lane)
        and y = to_f32 (operand sb xb lane)
        and z = to_f32 (operand sc xc lane) in
        set64 regs (o + (8 * lane)) (of_f32 ((x *. y) +. z))
    done;
    record cfg w d
  | I.Dop (op, dr, _, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let x = to_f64 (operand sa xa lane)
        and y = to_f64 (operand sb xb lane) in
        set64 regs (o + (8 * lane)) (of_f64 (exec_dbinop op x y))
    done;
    record cfg w d
  | I.Dfma (dr, _, _, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let x = to_f64 (operand sa xa lane)
        and y = to_f64 (operand sb xb lane)
        and z = to_f64 (operand sc xc lane) in
        set64 regs (o + (8 * lane)) (of_f64 (Float.fma x y z))
    done;
    record cfg w d
  | I.Sfu (op, dr, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        let x = to_f32 (operand sa xa lane) in
        set64 regs (o + (8 * lane)) (of_f32 (exec_sfu op x))
    done;
    record cfg w d
  | I.Cvt (op, dr, _) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set64 regs (o + (8 * lane)) (exec_cvt op (operand sa xa lane))
    done;
    record cfg w d
  | I.Setp (cmp, ty, I.P p, _, _) ->
    let bits = ref 0 in
    for lane = 0 to lanes - 1 do
      if
        enabled em lane
        && compare_values cmp ty
             (operand sa xa lane)
             (operand sb xb lane)
      then bits := !bits lor (1 lsl lane)
    done;
    if em <> 0 then w.preds.(p) <- (w.preds.(p) land lnot em) lor !bits;
    record cfg w d
  | I.Selp (dr, _, _, I.P p) ->
    let o = reg_id dr * row in
    for lane = 0 to lanes - 1 do
      if enabled em lane then
        set64 regs
          (o + (8 * lane))
          (if enabled w.preds.(p) lane then operand sa xa lane
           else operand sb xb lane)
    done;
    record cfg w d

(* Execute one warp-instruction. *)
let step run ~gmem ~stats:st block w =
  let cfg = run.cfg in
  pop_reconverged w;
  if w.sp = 0 then stuck "empty SIMT stack";
  let top = w.sp - 1 in
  let pc = w.fpc.(top) in
  let code = run.code in
  if pc < 0 || pc >= Array.length code then
    stuck "block %d warp %d: pc %d outside program" block.bid w.wid pc;
  let d = code.(pc) in
  w.issued <- w.issued + 1;
  if w.issued > cfg.max_warp_instructions then
    stuck "block %d warp %d: exceeded %d instructions (runaway kernel?)"
      block.bid w.wid cfg.max_warp_instructions;
  (match cfg.inject_stuck_at with
  | Some n when w.issued = n ->
    stuck "block %d warp %d: injected trap at issue %d (pc %d)" block.bid
      w.wid n pc
  | Some _ | None -> ());
  let fmask = w.fmask.(top) in
  let em =
    if d.guard < 0 then fmask
    else
      let p = w.preds.(d.guard) in
      fmask land (if d.sense then p else lnot p)
  in
  let stage = block.stage in
  Stats.count_issue st ~stage ~pc d.cls;
  if d.work && em <> 0 && stage > w.counted_stage then begin
    w.counted_stage <- stage;
    Stats.count_active_warp st ~stage
  end;
  if d.mad then Stats.count_mad st ~stage;
  match d.op with
  | I.Bra _ ->
    record cfg w d;
    w.fpc.(top) <- d.target;
    Continue
  | I.Bra_pred (I.P p, sense, _, _) ->
    record cfg w d;
    let taken =
      if em = 0 then 0
      else em land (if sense then w.preds.(p) else lnot w.preds.(p))
    in
    if taken = 0 then w.fpc.(top) <- pc + 1
    else if taken = em && em = fmask then w.fpc.(top) <- d.target
    else begin
      (* Divergence: the current frame becomes the reconvergence
         continuation; the two sides are pushed above it, the
         fall-through side on top. *)
      let fall = fmask land lnot taken in
      w.fpc.(top) <- d.reconv;
      push w ~pc:d.target ~rpc:d.reconv ~mask:taken;
      if fall <> 0 then push w ~pc:(pc + 1) ~rpc:d.reconv ~mask:fall
    end;
    Continue
  | I.Bar ->
    Stats.count_barrier st ~stage;
    record cfg w d;
    w.fpc.(top) <- pc + 1;
    w.at_barrier <- true;
    Hit_barrier
  | I.Exit ->
    record cfg w d;
    w.finished <- true;
    Exited
  | I.Mov _ | I.Mov_sreg _ | I.Iop _ | I.Imad _ | I.Fop _ | I.Fmad _
  | I.Fmad_smem _ | I.Dop _ | I.Dfma _ | I.Sfu _ | I.Cvt _ | I.Setp _
  | I.Selp _ | I.Ld _ | I.St _ | I.Atom _ ->
    execute run ~gmem ~stats:st block w d ~pc em;
    w.fpc.(top) <- pc + 1;
    Continue

let rec any_unfinished warps i =
  i < Array.length warps
  && ((not warps.(i).finished) || any_unfinished warps (i + 1))

let rec any_at_barrier warps i =
  i < Array.length warps
  && (warps.(i).at_barrier || any_at_barrier warps (i + 1))

(* Run all warps of a block to completion, respecting barriers. *)
let run_block run ~gmem ~stats block =
  let warps = block.warps in
  run.reuse_warp <- -1;
  while any_unfinished warps 0 do
    (* Run every unfinished warp up to its next barrier (or exit). *)
    for i = 0 to Array.length warps - 1 do
      let w = warps.(i) in
      if not w.finished then begin
        w.at_barrier <- false;
        while step run ~gmem ~stats block w = Continue do
          ()
        done
      end
    done;
    (* All warps are now at a barrier or done; release the barrier and
       enter the next stage. *)
    if any_at_barrier warps 0 then block.stage <- block.stage + 1
  done
