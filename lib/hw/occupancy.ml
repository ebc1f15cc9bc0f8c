(* Occupancy calculator: how many blocks and warps fit on one SM given a
   kernel's resource demands.  Reproduces the reasoning of the paper's
   Table 2: the resident-block count is the minimum of the register limit,
   the shared-memory limit, the thread limit, the warp limit, and the
   hardware maximum number of resident blocks. *)

type demand = {
  threads_per_block : int;
  registers_per_thread : int;
  smem_per_block : int; (* bytes *)
}

type t = {
  demand : demand;
  blocks_by_registers : int;
  blocks_by_smem : int;
  blocks_by_threads : int;
  blocks_by_warps : int;
  blocks_by_hw_max : int;
  blocks : int; (* the minimum of the above *)
  warps_per_block : int;
  active_warps : int;
  limiter : string;
}

exception Invalid_launch of string

let warps_per_block ~spec demand =
  (demand.threads_per_block + spec.Spec.warp_size - 1) / spec.Spec.warp_size

let compute ~spec demand =
  if demand.threads_per_block <= 0 then
    raise (Invalid_launch "block size must be positive");
  if demand.registers_per_thread < 0 then
    raise (Invalid_launch "registers per thread must be non-negative");
  if demand.smem_per_block < 0 then
    raise (Invalid_launch "shared memory per block must be non-negative");
  if demand.threads_per_block > spec.Spec.max_threads_per_block then
    raise
      (Invalid_launch
         (Printf.sprintf "block size %d exceeds device maximum %d"
            demand.threads_per_block spec.Spec.max_threads_per_block));
  if demand.smem_per_block > spec.Spec.smem_per_sm then
    raise
      (Invalid_launch
         (Printf.sprintf "block needs %d B shared memory, SM has %d B"
            demand.smem_per_block spec.Spec.smem_per_sm));
  let regs_per_block =
    demand.registers_per_thread * demand.threads_per_block
  in
  if regs_per_block > spec.Spec.registers_per_sm then
    raise
      (Invalid_launch
         (Printf.sprintf "block needs %d registers, SM has %d" regs_per_block
            spec.Spec.registers_per_sm));
  let wpb = warps_per_block ~spec demand in
  let blocks_by_registers =
    if regs_per_block = 0 then max_int
    else spec.Spec.registers_per_sm / regs_per_block
  in
  let blocks_by_smem =
    if demand.smem_per_block = 0 then max_int
    else spec.Spec.smem_per_sm / demand.smem_per_block
  in
  let blocks_by_threads =
    spec.Spec.max_threads_per_sm / demand.threads_per_block
  in
  let blocks_by_warps = spec.Spec.max_warps_per_sm / wpb in
  let blocks_by_hw_max = spec.Spec.max_blocks_per_sm in
  let limits =
    [
      (blocks_by_registers, "registers");
      (blocks_by_smem, "shared memory");
      (blocks_by_threads, "threads");
      (blocks_by_warps, "warps");
      (blocks_by_hw_max, "max resident blocks");
    ]
  in
  let blocks, limiter =
    List.fold_left
      (fun (b, l) (b', l') -> if b' < b then (b', l') else (b, l))
      (max_int, "none") limits
  in
  {
    demand;
    blocks_by_registers;
    blocks_by_smem;
    blocks_by_threads;
    blocks_by_warps;
    blocks_by_hw_max;
    blocks;
    warps_per_block = wpb;
    active_warps = blocks * wpb;
    limiter;
  }

(* Out-of-calibrated-range conditions: shapes the microbenchmark sweeps
   (whole warps, 1..32 warps/SM, ordinary register budgets) never measured.
   They degrade the model's confidence but do not invalidate the Table-2
   arithmetic, so they are warnings, not errors. *)
let range_warnings ~spec demand t =
  let module D = Gpu_diag.Diag in
  let w cond fmt =
    Format.kasprintf
      (fun m -> if cond then [ D.make D.Warning D.Occupancy m ] else [])
      fmt
  in
  List.concat
    [
      w
        (demand.threads_per_block mod spec.Spec.warp_size <> 0)
        "block size %d is not a multiple of the warp size %d: the partial \
         warp wastes lanes and sits outside the microbenchmark sweep"
        demand.threads_per_block spec.Spec.warp_size;
      w
        (demand.threads_per_block < spec.Spec.warp_size)
        "block size %d is below one warp (%d threads): throughput tables \
         are extrapolated"
        demand.threads_per_block spec.Spec.warp_size;
      w
        (demand.registers_per_thread > 128)
        "%d registers/thread exceeds any calibrated kernel shape (max 128)"
        demand.registers_per_thread;
      w (t.active_warps = t.warps_per_block && t.blocks = 1)
        "only one resident block: barrier stages serialize and the \
         overlap assumptions of the model weaken";
    ]

let compute_result ~spec demand =
  let convert = function
    | Invalid_launch m ->
      Some
        (Gpu_diag.Diag.make Gpu_diag.Diag.Error Gpu_diag.Diag.Occupancy m
           ~hint:
             "reduce the per-block resource demand or the block size \
              below the device ceilings")
    | _ -> None
  in
  Gpu_diag.Diag.protect ~stage:Gpu_diag.Diag.Occupancy ~convert (fun () ->
      compute ~spec demand)

(* Active warps on the busiest SM for a whole launch: resident blocks cannot
   exceed the number of blocks actually launched per SM. *)
let active_warps_for_grid ~spec ~grid_blocks occ =
  let per_sm =
    (grid_blocks + spec.Spec.num_sms - 1) / spec.Spec.num_sms
  in
  min occ.blocks (max 1 per_sm) * occ.warps_per_block

let pp ppf t =
  Fmt.pf ppf
    "@[<v>%d threads/block (%d warps), %d regs/thread, %d B smem/block@,\
     blocks: regs %s, smem %s, threads %d, warps %d, hw max %d -> %d \
     (limited by %s)@,active warps: %d@]"
    t.demand.threads_per_block t.warps_per_block
    t.demand.registers_per_thread t.demand.smem_per_block
    (if t.blocks_by_registers = max_int then "inf"
     else string_of_int t.blocks_by_registers)
    (if t.blocks_by_smem = max_int then "inf"
     else string_of_int t.blocks_by_smem)
    t.blocks_by_threads t.blocks_by_warps t.blocks_by_hw_max t.blocks
    t.limiter t.active_warps
