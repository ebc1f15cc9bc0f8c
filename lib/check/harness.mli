(** The [gpuperf check] driver: seeded property sweep over five
    properties — coalesce oracle, bank oracle, atomic-serialization
    oracle, engine invariant audit, model-vs-engine differential — with
    greedy shrinking of failing kernel cases and replayable reproducer
    dumps. *)

type config = {
  seed : int;
  cases : int;  (** oracle comparisons; audits run at 1/5, diffs at 1/25 *)
  tol : float;  (** differential band, see {!Diff.default_tolerance} *)
  out_dir : string option;  (** where failing reproducers are dumped *)
  spec : Gpu_hw.Spec.t;
}

type failure = {
  property : string;
  case_index : int;
  detail : string;
  reproducer : string option;
}

type summary = {
  coalesce_cases : int;
  bank_cases : int;
  atomic_cases : int;
  audit_cases : int;
  audit_fast_forwarded : int;
      (** audited grids one of whose replays kept a fast-forward *)
  diff_cases : int;
  shrink_evals : int;
  failures : failure list;
}

val ok : summary -> bool
val audit_budget : int -> int
val diff_budget : int -> int

(** Run every property at the configured budget.  [progress] receives a
    one-line note per property phase. *)
val run : ?progress:(string -> unit) -> config -> summary

(** Re-check a dumped reproducer file: the audit always, the differential
    when the case is uniform.  [Ok msg] when everything passes. *)
val replay :
  spec:Gpu_hw.Spec.t -> tol:float -> string -> (string, string) result
