(** Occupancy calculator: resident blocks and active warps per SM given a
    kernel's resource demands (the paper's Table 2 logic). *)

type demand = {
  threads_per_block : int;
  registers_per_thread : int;
  smem_per_block : int;  (** bytes *)
}

type t = {
  demand : demand;
  blocks_by_registers : int;  (** [max_int] when the kernel uses none *)
  blocks_by_smem : int;  (** [max_int] when the kernel uses none *)
  blocks_by_threads : int;
  blocks_by_warps : int;
  blocks_by_hw_max : int;
  blocks : int;  (** resident blocks: minimum of all limits *)
  warps_per_block : int;
  active_warps : int;
  limiter : string;  (** name of the binding limit *)
}

exception Invalid_launch of string

(** Raises {!Invalid_launch} when a single block already exceeds a device
    ceiling. *)
val compute : spec:Spec.t -> demand -> t

(** Like {!compute} but total: an invalid launch is an [Error]
    diagnostic.  No exception escapes. *)
val compute_result : spec:Spec.t -> demand -> (t, Gpu_diag.Diag.t) result

(** Out-of-calibrated-range warnings for a computed occupancy (partial
    warps, sub-warp blocks, extreme register budgets,
    single-resident-block serialization): conditions that degrade the
    model's confidence without invalidating the Table-2 arithmetic.
    [gpuperf occupancy] prints them; an analysis does not compute them,
    since its report already shows what they would say. *)
val range_warnings : spec:Spec.t -> demand -> t -> Gpu_diag.Diag.t list

val warps_per_block : spec:Spec.t -> demand -> int

(** Active warps on the busiest SM when only [grid_blocks] blocks are
    launched in total (a small grid may not fill the occupancy limit). *)
val active_warps_for_grid : spec:Spec.t -> grid_blocks:int -> t -> int

val pp : Format.formatter -> t -> unit
