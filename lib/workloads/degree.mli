(** Graph degree counting over an edge list — atomics with
    data-dependent contention.  Each block bumps a shared per-node
    degree array once per endpoint of its edge chunk; a hub node's
    edges serialize on one shared word, so the atomic cost component
    tracks the degree distribution rather than the edge count. *)

(** [kernel ~threads ~nodes ~items]; [threads] and [nodes] powers of
    two, [nodes <= threads]. *)
val kernel : threads:int -> nodes:int -> items:int -> Gpu_kernel.Ir.t

val edges_per_block : threads:int -> items:int -> int

(** CPU reference: undirected degree of each masked node id. *)
val reference : nodes:int -> int array -> int array -> int array

(** Count degrees of an edge list (src/dst endpoint arrays, length a
    multiple of [edges_per_block]) on the simulator. *)
val run_simulated :
  ?spec:Gpu_hw.Spec.t -> ?threads:int -> ?nodes:int -> ?items:int ->
  int array -> int array -> int array

(** [input ~blocks ()] is the workflow input for a synthetic edge list
    with a 2-block sample; [hub] (default 0.3) is the fraction of
    endpoints attached to node 0 — 0.0 a uniform ring, 1.0 a star
    graph. *)
val input :
  ?threads:int -> ?nodes:int -> ?items:int -> ?hub:float -> blocks:int ->
  unit -> Gpu_model.Workflow.input
