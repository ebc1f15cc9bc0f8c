(** Synthetic native-code microbenchmarks — the paper's CUBIN generator
    (Figure 1).  Emitted directly in the native ISA, bypassing the
    compiler, exactly as the paper patches binaries to sidestep compiler
    interference.

    Warp homogeneity, which calibration relies on to simulate one warp per
    block ({!Runner.warp_trace}):
    - every warp of an {!instruction_chain} or {!shared_copy} block
      executes the same trace (same events, same registers, same
      conflict-adjusted shared transactions), whatever the block size;
    - an {!instruction_chain}'s trace does not depend on the warp count:
      the program does not read its thread or block index;
    - a {!shared_copy}'s program does depend on the warp count, through
      the [4 * threads] offset of its destination region, so it is built
      and simulated once per block size. *)

(** [instruction_chain ~cls ~n]: [n] dependent instructions of an
    arithmetic cost class; a single warp exposes the full pipeline latency
    (Figure 2, left).  Rejects memory/control classes. *)
val instruction_chain :
  cls:Gpu_isa.Instr.cost_class -> n:int -> Gpu_isa.Program.t

(** [shared_copy ~threads ~n]: each thread moves one word between two
    conflict-free shared regions [n] times; returns the program and its
    shared-memory demand in bytes (Figure 2, right). *)
val shared_copy : threads:int -> n:int -> Gpu_isa.Program.t * int

(** [global_stream ~blocks ~threads ~txns_per_thread]: grid-strided
    coalesced loads rotating over 8 destination registers (memory-level
    parallelism); returns the program and the buffer size in words
    (Figure 3). *)
val global_stream :
  blocks:int -> threads:int -> txns_per_thread:int ->
  Gpu_isa.Program.t * int
