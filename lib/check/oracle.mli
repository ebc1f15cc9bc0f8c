(** Brute-force reference oracles for the memory-system analyzers,
    implemented with deliberately different machinery from [lib/mem]:
    the coalescer oracle grows segments upward from [min_segment]
    (the implementation halves downward), the bank oracle tallies
    (bank, word) pairs through sorted lists (the implementation counts
    into per-bank tally arrays).  The harness checks that both derivations
    of the protocol agree on random access patterns. *)

type access = {
  group : int;  (** lanes per transaction issue (half-warp = 16) *)
  min_segment : int;
  max_segment : int;
  banks : int;
  width : int;  (** bytes per lane access *)
  lanes : int option array;  (** byte address per lane; [None] inactive *)
}

val pp_access : Format.formatter -> access -> unit

(** Reference coalescer over a full warp (split into issue groups). *)
val coalesce_warp : access -> Gpu_mem.Coalesce.txn list

(** Reference conflict-adjusted shared-memory transaction count. *)
val bank_warp : access -> int

(** [Ok ()] when {!Gpu_mem.Coalesce.warp_transactions} produces the same
    transaction multiset as {!coalesce_warp}. *)
val coalesce_agrees : access -> (unit, string) result

(** [Ok ()] when {!Gpu_mem.Bank.warp_transactions} agrees with
    {!bank_warp}. *)
val bank_agrees : access -> (unit, string) result

(** Reference contention-serialized atomic transaction count: one bank
    entry per lane-word access {e with} multiplicity (same-word atomics
    serialize, they never broadcast), counted by sorting and run-length
    instead of the implementation's per-bank tally arrays. *)
val atomic_warp : access -> int

(** Reference contention-free count: one transaction per issue group with
    at least one active lane. *)
val atomic_ideal_warp : access -> int

(** [Ok ()] when {!Gpu_mem.Bank.warp_atomic_transactions} and
    {!Gpu_mem.Bank.ideal_warp_atomic_transactions} agree with
    {!atomic_warp} and {!atomic_ideal_warp}. *)
val atomic_agrees : access -> (unit, string) result
