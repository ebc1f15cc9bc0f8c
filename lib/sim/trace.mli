(** Execution traces for the timing simulator: one compact event per issued
    warp-instruction — cost class, register-dependence information for the
    per-warp scoreboard, and the memory transactions generated.  Predicate
    registers share the id space starting at {!pred_reg_base}. *)

val pred_reg_base : int
val no_reg : int

type mem =
  | No_mem
  | Smem of int  (** conflict-adjusted half-warp transaction count *)
  | Smem_atomic of int  (** contention-serialized half-warp transactions *)
  | Gmem_load of (int * int) array  (** (base, size) transactions *)
  | Gmem_store of (int * int) array

type event = {
  cls : Gpu_isa.Instr.cost_class;
  dst : int;  (** destination register id, or {!no_reg} *)
  srcs : int array;
  mem : mem;
  bar : bool;
}

type warp_trace = event array
type block_trace = { block : int; warps : warp_trace array }

(** {2 Builder (used by the interpreter)} *)

(** An amortized-doubling buffer: [add] is O(1) amortized and [finish]
    one copy, replacing the former reversed-list accumulation. *)
type builder

val builder : unit -> builder
val add : builder -> event -> unit
val finish : builder -> warp_trace

(** {2 Inspection} *)

val event_count : block_trace -> int

(** A content key for interning warp traces by physical identity: mixes
    the trace length with at most 16 evenly spaced events' destination,
    sources and memory shape.  Equal arrays get equal keys; its cost does
    not grow with the trace length.  ([Hashtbl.hash] visits at most 100
    values, so for traces of 98 events or more it depends on the length
    alone.) *)
val key : warp_trace -> int
