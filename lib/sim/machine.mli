(** The SIMT interpreter at the heart of the functional simulator (Barra
    analog): warps of 32 lanes execute the native ISA in lockstep, branch
    divergence uses a reconvergence stack driven by the post-dominator
    labels in conditional branches, and a block's warps run round-robin
    between barriers.  Executing a warp-instruction allocates nothing but
    the trace event it records (DESIGN §18).  Most users want {!Sim.launch}
    instead. *)

exception Stuck of string
(** Raised on invalid execution: bad pc, shared-memory fault, runaway
    kernel, malformed SIMT stack. *)

type config

(** [config spec] builds an execution configuration; [collect_trace]
    records timing events, [max_warp_instructions] bounds runaway kernels,
    and [inject_stuck_at n] forces a deterministic {!Stuck} trap at a
    warp's [n]-th issued instruction (fault injection). *)
val config :
  ?collect_trace:bool -> ?max_warp_instructions:int ->
  ?inject_stuck_at:int -> Gpu_hw.Spec.t ->
  config

(** Register values: 64-bit bit patterns.  Integer and single-precision
    operations use the (zero-extended) low word; double precision uses the
    full width — a simplification over real register pairs.  Defined here
    so the interpreter's lane loops inline them; {!Value} re-exports them. *)
module Conv : sig
  type t = int64

  val of_i32 : int32 -> t
  val to_i32 : t -> int32

  (** Round an OCaml float to the nearest single-precision value. *)
  val round_f32 : float -> float

  val of_f32 : float -> t
  val to_f32 : t -> float
  val of_f64 : float -> t
  val to_f64 : t -> float
  val of_int : int -> t
  val to_int : t -> int
end

(** A program decoded for one simulation run (resolved branches, operand
    slots, static trace events) together with the run's scratch buffers.
    Owned by one run: never share one between domains. *)
type run

(** [prepare ~values cfg program] decodes [program].  With [values] every
    instruction computes its lane values.  Without, only the pcs
    {!Relevance.needed} marks do; the others still issue, check, count
    and record exactly as they would, so statistics, traces and faults
    are the same, but registers and memory then hold unspecified
    values. *)
val prepare : values:bool -> config -> Gpu_isa.Program.t -> run

(** Warp-instructions that ran without computing their lane values so
    far (always 0 for a [values] run); control instructions compute none
    on either face and are not counted. *)
val counted_only : run -> int

(** Count-only 32-bit shared accesses so far that took their one address
    from the previous count-only broadcast through the same base register
    in the same warp, under the same enabled mask, with no needed pc run
    since, instead of staging every lane (always 0 for a [values] run).
    Such an access writes nothing, so the register still holds the value
    every enabled lane shared. *)
val staging_reused : run -> int

(** Whether the run may load or store a global word: always on the
    [values] face; on the statistics face only when a needed pc is a
    global load, since a global store is needed only once a needed load
    reads global memory.  When it is false, every global access is only
    checked, and {!run_block} may be given a {!Memory.layout_only}
    memory. *)
val moves_global_words : run -> bool

type block

val make_block :
  bid:int -> grid:int -> nthreads:int -> smem_bytes:int -> nregs:int -> block

(** [set_param block r v] writes [v] into register [r] of every lane of
    every warp (the driver's parameter-passing convention). *)
val set_param : block -> Gpu_isa.Instr.reg -> Conv.t -> unit

(** Run all warps of a block to completion, respecting barriers. *)
val run_block : run -> gmem:Memory.t -> stats:Stats.t -> block -> unit

(** The block's recorded trace (empty warps unless [collect_trace]). *)
val trace : block -> Trace.block_trace
