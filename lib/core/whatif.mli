(** The device comparison: analyse one workload on a list of devices and
    compare each prediction with a baseline's — the way the paper argues
    its architectural improvements (Sections 5.1-5.3), and the way
    [gpuperf sweep-devices] compares GPU generations.  Devices are
    re-analysed, not re-priced: bank counts change conflict statistics,
    segment sizes change coalescing, and the microbenchmark tables are
    re-fit to each device. *)

type outcome = {
  device : string;  (** the device's name in the list given to {!run} *)
  report : Workflow.report;
  speedup : float;
      (** baseline predicted time / this predicted time; [infinity] when
          this prediction is zero *)
  shifted : bool;  (** the bottleneck class differs from the baseline's *)
}

(** [run ?baseline analyze devices] is one outcome per device, in list
    order, each from [analyze spec] on its own pool task.  The baseline
    is [baseline] when given, else the first device's report (whose
    outcome then has speedup 1 and no shift).  [analyze] may close over
    one {!Workflow.input} for every device: the workflow's functional
    simulation never writes its arguments ({!Workflow.analyze}). *)
val run :
  ?baseline:Workflow.report ->
  (Gpu_hw.Spec.t -> Workflow.report) ->
  (string * Gpu_hw.Spec.t) list ->
  outcome list

(** One line per outcome — spec name, prediction, speedup, bottleneck —
    the first marked as the baseline. *)
val pp : Format.formatter -> outcome list -> unit
