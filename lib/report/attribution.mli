(** Hotspot attribution: charge each stage's model-predicted component
    time down to individual cost classes and IR statements.

    The functional simulator records per-pc issue counts, shared-memory
    transactions and global bytes ({!Gpu_sim.Stats.sites}); the compiler
    records each pc's IR statement path ({!Gpu_kernel.Compile.compiled}
    [srcmap]); and the model exposes the exact per-class throughputs and
    bandwidths it charged each stage with.  Re-applying the model's own
    formulas per pc therefore tiles: within floating-point rounding, the
    rows of a stage's component sum to that component's time in
    {!Gpu_model.Model.stage_analysis}. *)

type row = {
  pc : int;
  src : string;  (** IR statement path, or ["<asm>"] when unmapped *)
  instr : string Lazy.t;
      (** disassembled instruction, formatted when first forced; rows of
          the same pc share one value *)
  cls : Gpu_isa.Instr.cost_class;
  count : int;  (** issued instructions, smem txns, or gmem bytes *)
  seconds : float;  (** this pc's share of the component's stage time *)
  share : float;  (** seconds / the stage's component time *)
}

type stage = {
  index : int;
  times : Gpu_model.Component.times;
  bottleneck : Gpu_model.Component.t;
  active_warps : int;
  instruction : row list;  (** descending seconds, ties by ascending pc *)
  shared : row list;
  atomic : row list;
  global : row list;
}

type t = {
  stages : stage list;
  covered : bool;
      (** false when the statistics carry no per-pc sites (hand-built
          stats): tables exist but are empty *)
}

val of_report : Gpu_model.Workflow.report -> t

(** Rows of one component, for callers that iterate generically. *)
val rows : stage -> Gpu_model.Component.t -> row list

(** [top n rows] = the first [n] rows and the folded remainder: number of
    folded rows and their summed seconds ([None] when nothing folds). *)
val top : int -> row list -> row list * (int * float) option
