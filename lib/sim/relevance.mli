(** Decode-time relevance slicing: which instructions of a program compute
    a value that the statistics, traces or faults of a run can observe.

    The roots are the address base of every load, store, atomic and fused
    shared MAD, every guard predicate and every conditional branch's
    predicate.  One backward liveness pass over the control-flow graph
    (successors [pc + 1], a branch target, both for a conditional branch,
    none after [Exit]) marks an instruction needed when its destination is
    live after it or when it writes a needed memory space.  An unguarded
    write kills its destination; a guarded one does not.  A space (global
    or shared) is needed once a load, fused shared MAD or atomic with a
    live destination reads it, and then every store and atomic to it is
    needed.  The result is the least fixpoint.  DESIGN §18 has the
    soundness argument. *)

(** [needed program] has one entry per pc.  Costs a few passes over the
    program with bitsets of [Program.max_reg + 1 + Instr.num_preds]
    bits. *)
val needed : Gpu_isa.Program.t -> bool array
