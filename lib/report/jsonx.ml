(* [Gpu_obs.Jsonx] for code that reaches it through [Gpu_report]; an
   [include], so the two [t] types are equal. *)
include Gpu_obs.Jsonx
