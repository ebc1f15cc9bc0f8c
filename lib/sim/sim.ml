(* High-level functional-simulation driver: allocates device buffers, loads
   kernel arguments per the calling convention, runs blocks, and collects
   dynamic statistics and (optionally) timing traces.

   Blocks execute sequentially and independently (they may only communicate
   through barrier-free global memory, which the programming model already
   forbids relying on), so a subset of blocks can be simulated when the
   workload is block-homogeneous and only statistics are needed; callers
   scale the counts by [grid / blocks_run]. *)

module I = Gpu_isa.Instr

exception Launch_error of string

let launch_error fmt = Printf.ksprintf (fun s -> raise (Launch_error s)) fmt

type result = {
  stats : Stats.t;
  traces : Trace.block_trace list; (* one per simulated block, in order *)
  blocks_run : int;
  grid : int;
  block : int;
  counted_only : int;
  staging_reused : int;
}

let scale_factor r =
  if r.blocks_run = 0 then 0.0
  else float_of_int r.grid /. float_of_int r.blocks_run

(* The shared worker behind [launch] and [launch_result]: [stats] and
   [completed] live outside so that on a mid-run fault the caller still
   holds the statistics accumulated up to the fault point (they stay
   internally consistent — counters only ever grow, and a fault aborts
   before the faulting instruction's own counts are partially applied
   beyond the current warp-instruction).  With [values] every lane value
   is computed and the results are copied back into [args]; without,
   only what the statistics, traces and faults observe is computed
   ([Machine.prepare]) and [args] are only read — not even copied in
   when no needed pc loads a global word. *)
let run_into ~values ?(collect_trace = false) ?block_ids
    ?(spec = Gpu_hw.Spec.gtx285) ?max_warp_instructions ?inject_stuck_at
    ?(poison = []) ~stats ~completed ~current_block ~grid ~block ~args
    (k : Gpu_kernel.Compile.compiled) =
  if grid <= 0 then launch_error "grid must have at least one block";
  if block <= 0 then launch_error "blocks must have at least one thread";
  if block > spec.Gpu_hw.Spec.max_threads_per_block then
    launch_error "block size %d exceeds device maximum %d" block
      spec.Gpu_hw.Spec.max_threads_per_block;
  if k.smem_bytes > spec.Gpu_hw.Spec.smem_per_sm then
    launch_error "kernel needs %d B of shared memory, device SM has %d B"
      k.smem_bytes spec.Gpu_hw.Spec.smem_per_sm;
  (* Bind arguments in parameter order.  Every name must be a parameter
     and bound once: [List.assoc_opt] would silently drop a repeat. *)
  let buffers =
    List.map
      (fun (name, _reg) ->
        match List.assoc_opt name args with
        | Some data -> (name, data)
        | None -> launch_error "missing kernel argument %s" name)
      k.param_regs
  in
  ignore
    (List.fold_left
       (fun seen (name, _) ->
         if not (List.mem_assoc name k.param_regs) then
           launch_error "unknown kernel argument %s" name;
         if List.mem name seen then
           launch_error "duplicate kernel argument %s" name;
         name :: seen)
       [] args);
  let run =
    Machine.prepare ~values
      (Machine.config ~collect_trace ?max_warp_instructions ?inject_stuck_at
         spec)
      k.program
  in
  let allocs, bytes =
    Memory.layout (List.map (fun (_, d) -> Memory.length d) buffers)
  in
  (* A statistics run that loads no global word only checks its global
     accesses, so its memory holds the layout's size and no words. *)
  let gmem =
    if Machine.moves_global_words run then begin
      let m = Memory.create ~bytes in
      List.iter2 (fun (_, data) a -> Memory.copy_in m a data) buffers allocs;
      m
    end
    else Memory.layout_only ~bytes
  in
  List.iter (fun (addr, width) -> Memory.poison gmem ~addr ~width) poison;
  let param_bases =
    List.map2 (fun (name, _) a -> (name, a.Memory.base)) buffers allocs
  in
  let ids =
    match block_ids with
    | None -> List.init grid Fun.id
    | Some ids ->
      List.iter
        (fun b ->
          if b < 0 || b >= grid then
            launch_error "block id %d outside grid of %d" b grid)
        ids;
      ids
  in
  let traces = ref [] in
  List.iter
    (fun bid ->
      current_block := Some bid;
      let blk =
        Machine.make_block ~bid ~grid ~nthreads:block
          ~smem_bytes:k.smem_bytes ~nregs:(max 1 k.reg_demand)
      in
      (* Driver writes parameter base addresses into the convention
         registers of every warp and lane. *)
      List.iter
        (fun (name, base) ->
          Machine.set_param blk
            (I.R (List.assoc name k.param_regs))
            (Value.of_int base))
        param_bases;
      Machine.run_block run ~gmem ~stats blk;
      if collect_trace then traces := Machine.trace blk :: !traces;
      incr completed)
    ids;
  current_block := None;
  (* Copy results back in parameter order: a buffer bound to several
     parameters ends up holding the last one's region. *)
  if values then
    List.iter2 (fun (_, data) a -> Memory.copy_out gmem a data) buffers allocs;
  {
    stats;
    traces = List.rev !traces;
    blocks_run = List.length ids;
    grid;
    block;
    counted_only = Machine.counted_only run;
    staging_reused = Machine.staging_reused run;
  }

let launch ?collect_trace ?block_ids ?spec ?max_warp_instructions
    ?inject_stuck_at ?poison ~grid ~block ~args k =
  run_into ~values:true ?collect_trace ?block_ids ?spec ?max_warp_instructions
    ?inject_stuck_at ?poison ~stats:(Stats.create ()) ~completed:(ref 0)
    ~current_block:(ref None) ~grid ~block ~args k

type failure = {
  diag : Gpu_diag.Diag.t;
  partial_stats : Stats.t;
  blocks_completed : int;
}

(* The statistics face: it computes only what its statistics, traces and
   faults observe and never writes [args].  Launch validation failures
   are [Launch] diagnostics; mid-run traps ([Machine.Stuck],
   [Memory.Fault], injected faults) are [Exec] diagnostics located at the
   block being simulated, with the statistics accumulated up to the fault
   point preserved. *)
let launch_result ?collect_trace ?block_ids ?spec ?max_warp_instructions
    ?inject_stuck_at ?poison ~grid ~block ~args k =
  let stats = Stats.create () in
  let completed = ref 0 in
  let current_block = ref None in
  let module D = Gpu_diag.Diag in
  let convert e =
    let exec ?hint fmt =
      Format.kasprintf
        (fun m ->
          Some
            (D.make
               ~location:(D.Sim_site { block = !current_block; warp = None })
               ?hint D.Error D.Exec m))
        fmt
    in
    match e with
    | Launch_error m ->
      Some
        (D.make D.Error D.Launch m
           ~hint:"adjust the launch configuration or the kernel arguments")
    | Machine.Stuck m -> exec "%s" m
    | Memory.Fault m ->
      exec
        ~hint:
          "the kernel addressed global memory outside its buffers; check \
           index arithmetic against the argument sizes"
        "%s" m
    | Gpu_isa.Program.Unknown_label l ->
      exec "branch targets unknown label %s" l
    | _ -> None
  in
  match
    Gpu_diag.Diag.protect ~stage:D.Exec ~convert (fun () ->
        run_into ~values:false ?collect_trace ?block_ids ?spec
          ?max_warp_instructions ?inject_stuck_at ?poison ~stats ~completed
          ~current_block ~grid ~block ~args k)
  with
  | Ok r -> Ok r
  | Error diag ->
    Error { diag; partial_stats = stats; blocks_completed = !completed }

(* The [int32 array] face: each array crosses as a buffer, and after the
   run only the words the kernel changed are stored back, in parameter
   order, so an unchanged slot keeps its box. *)
let run ?collect_trace ?block_ids ?spec ?max_warp_instructions
    ?inject_stuck_at ?poison ~grid ~block ~args
    (k : Gpu_kernel.Compile.compiled) =
  let bound = List.map (fun (name, a) -> (name, Memory.of_int32s a)) args in
  let r =
    launch ?collect_trace ?block_ids ?spec ?max_warp_instructions
      ?inject_stuck_at ?poison ~grid ~block ~args:bound k
  in
  List.iter
    (fun (name, _) ->
      let a = List.assoc name args and b = List.assoc name bound in
      for i = 0 to Array.length a - 1 do
        let v = Memory.get_int b i in
        if v <> Int32.to_int a.(i) then a.(i) <- Int32.of_int v
      done)
    k.param_regs;
  r

let float_arg name xs = (name, Memory.of_floats xs)

let int_arg name xs = (name, Memory.of_ints xs)

let read_floats (_, b) = Memory.to_floats b
