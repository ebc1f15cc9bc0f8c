(* Register values for host code (workload inputs, tests).  The
   definitions live in [Machine.Conv], where the interpreter's lane loops
   inline them. *)

include Machine.Conv
