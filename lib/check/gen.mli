(** Seeded random generation of oracle access patterns and kernel cases,
    driven by {!Gpu_diag.Inject}'s splitmix64 — same seed, same cases,
    on every platform.  Each (property, index) pair gets its own
    sub-stream so single cases replay independently. *)

type rng = Gpu_diag.Inject.rng

(** Deterministic per-case stream: [sub_rng ~seed ~tag i] for property
    [tag], case number [i]. *)
val sub_rng : seed:int -> tag:int -> int -> rng

(** Width-aligned global-access pattern (sequential, strided, broadcast,
    scatter, reversed, or boundary-straddling clusters; possibly
    sparse). *)
val gen_coalesce_access : rng -> Oracle.access

(** Shared-memory pattern over a random bank count (including the
    prime-bank what-if's 17). *)
val gen_bank_access : rng -> Oracle.access

(** Conflicting-address grid for the atomic oracle: contention-heavy
    patterns (same-word broadcast, k-way duplicates, histogram-style
    bins) where serialized-multiplicity and distinct-word counting
    diverge. *)
val gen_atomic_access : rng -> Oracle.access

(** Heterogeneous grid exercising every engine scheduling path: empty
    warps, barrier-final warps, uneven blocks, tight residency limits.
    One case in three loops: each stage's events are a random body
    repeated 20–100 times, the steady state the engine fast-forwards. *)
val gen_audit_case : rng -> Case.t

(** Homogeneous saturated grid of dependent chains — the domain the
    throughput model's tables are calibrated on.  Grid sizes and global
    transaction shapes follow [spec] (SM-count multiples, the spec's
    coalesced-transaction size), so non-baseline fleet profiles are
    checked on their own calibrated domain; on the GT200 baseline the
    stream is unchanged. *)
val gen_diff_case : spec:Gpu_hw.Spec.t -> rng -> Case.t
