(** Abstract kernel cases for the checking harness: a grid of blocks,
    each a fixed number of barrier-delimited stages executed by a set of
    warps.  Lowering to {!Gpu_sim.Trace} inserts one barrier after every
    stage but the last, so all non-empty warps of a block agree on
    barrier count (the CUDA validity condition the engine's liveness
    depends on).  A warp whose final stage is empty ends its trace *on*
    the barrier and must retire from inside the barrier-release path —
    the historical engine-bug shape the harness regression-tests. *)

type ev =
  | Alu of { cls : Gpu_isa.Instr.cost_class; dst : int; srcs : int array }
  | Smem of { fused : bool; txns : int; dst : int; srcs : int array }
  | Atomic of { txns : int; dst : int; srcs : int array }
      (** shared-memory atomic: contention-serialized half-warp txns *)
  | Gmem of {
      store : bool;
      txns : (int * int) array;
      dst : int;
      srcs : int array;
    }

type warp = Empty | Stages of ev array array
type block = { nstages : int; warps : warp array }

type t = {
  max_resident : int;
  uniform : bool;
      (** all blocks share one shape: the precondition for the
          model-vs-engine differential *)
  blocks : block array;
}

val num_blocks : t -> int
val num_warps : t -> int
val num_events : t -> int

(** Structural validity: positive stage counts, non-empty warp sets, and
    per-block stage-count agreement. *)
val validate : t -> (unit, string) result

(** Lower to engine traces; block [i] becomes {!Gpu_sim.Trace.block_trace}
    number [i]. *)
val traces : t -> Gpu_sim.Trace.block_trace array

val pp : Format.formatter -> t -> unit

(** Replayable line-oriented serialization ([gpuperf check --replay]). *)
val to_string : t -> string

val of_string : string -> (t, string) result
