(* Dynamic execution statistics — the output of the paper's "info
   extractor" (Figure 1).  Counts are collected per stage, where stages are
   the program intervals delimited by block-wide synchronization barriers
   (paper Section 3); stage [s] aggregates every block's s-th interval. *)

module I = Gpu_isa.Instr

let class_index = function
  | I.Class_i -> 0
  | I.Class_ii -> 1
  | I.Class_iii -> 2
  | I.Class_iv -> 3
  | I.Class_mem -> 4
  | I.Class_ctrl -> 5

let class_of_index = function
  | 0 -> I.Class_i
  | 1 -> I.Class_ii
  | 2 -> I.Class_iii
  | 3 -> I.Class_iv
  | 4 -> I.Class_mem
  | 5 -> I.Class_ctrl
  | i -> invalid_arg (Printf.sprintf "Stats.class_of_index %d" i)

let num_classes = 6

type stage = {
  mutable issued : int array; (* warp-instructions per cost class *)
  mutable mads : int; (* single-precision MAD warp-instructions *)
  mutable smem_accesses : int; (* warp-level shared-memory instructions *)
  mutable smem_txns : int; (* conflict-adjusted half-warp transactions *)
  mutable smem_ideal_txns : int; (* same access pattern, conflict-free *)
  mutable atomic_accesses : int; (* warp-level shared-atomic instructions *)
  mutable atomic_txns : int; (* contention-serialized half-warp txns *)
  mutable atomic_ideal_txns : int; (* same accesses, contention-free *)
  mutable gmem_accesses : int; (* warp-level global-memory instructions *)
  mutable gmem_txns : int; (* coalesced transactions *)
  mutable gmem_requested_bytes : int;
  mutable gmem_transferred_bytes : int;
  mutable barriers : int;
  mutable active_warp_slots : int; (* warps issuing at least once, summed
                                      over blocks *)
  (* Per-pc hotspot attribution, indexed by program counter (dense,
     grow-on-demand; zero-length until a pc-carrying count arrives). *)
  mutable site_issued : int array; (* warp-instructions issued at pc *)
  mutable site_smem_txns : int array; (* shared-memory txns charged to pc *)
  mutable site_atomic_txns : int array; (* atomic txns charged to pc *)
  mutable site_gmem_bytes : int array; (* global bytes transferred at pc *)
}

let empty_stage () =
  {
    issued = Array.make num_classes 0;
    mads = 0;
    smem_accesses = 0;
    smem_txns = 0;
    smem_ideal_txns = 0;
    atomic_accesses = 0;
    atomic_txns = 0;
    atomic_ideal_txns = 0;
    gmem_accesses = 0;
    gmem_txns = 0;
    gmem_requested_bytes = 0;
    gmem_transferred_bytes = 0;
    barriers = 0;
    active_warp_slots = 0;
    site_issued = [||];
    site_smem_txns = [||];
    site_atomic_txns = [||];
    site_gmem_bytes = [||];
  }

(* [arr] grown geometrically to hold index [pc], so a long program doesn't
   reallocate per instruction.  A count assigns the site field only when
   it grows: storing a pointer field on every count would pay the write
   barrier ([caml_modify]) each time. *)
let grow arr pc =
  let n = max (pc + 1) (max 16 (2 * Array.length arr)) in
  let a = Array.make n 0 in
  Array.blit arr 0 a 0 (Array.length arr);
  a

type t = { mutable stages : stage array }

let create () = { stages = [||] }

let stages t = t.stages

let num_stages t = Array.length t.stages

let stage t i =
  let n = Array.length t.stages in
  if i >= n then begin
    let stages = Array.init (i + 1) (fun j ->
        if j < n then t.stages.(j) else empty_stage ())
    in
    t.stages <- stages
  end;
  t.stages.(i)

let no_pc = -1

(* Each [count_*] below also charges [pc] to its per-pc site array unless
   [pc] is [no_pc]; a plain [int] rather than an option, so a call
   allocates nothing. *)
let count_issue t ~stage:i ~pc cls =
  let s = stage t i in
  let k = class_index cls in
  s.issued.(k) <- s.issued.(k) + 1;
  if pc >= 0 then begin
    if pc >= Array.length s.site_issued then
      s.site_issued <- grow s.site_issued pc;
    s.site_issued.(pc) <- s.site_issued.(pc) + 1
  end

let count_mad t ~stage:i =
  let s = stage t i in
  s.mads <- s.mads + 1

let count_smem t ~stage:i ~pc ~txns ~ideal =
  let s = stage t i in
  s.smem_accesses <- s.smem_accesses + 1;
  s.smem_txns <- s.smem_txns + txns;
  s.smem_ideal_txns <- s.smem_ideal_txns + ideal;
  if pc >= 0 then begin
    if pc >= Array.length s.site_smem_txns then
      s.site_smem_txns <- grow s.site_smem_txns pc;
    s.site_smem_txns.(pc) <- s.site_smem_txns.(pc) + txns
  end

let count_atomic t ~stage:i ~pc ~txns ~ideal =
  let s = stage t i in
  s.atomic_accesses <- s.atomic_accesses + 1;
  s.atomic_txns <- s.atomic_txns + txns;
  s.atomic_ideal_txns <- s.atomic_ideal_txns + ideal;
  if pc >= 0 then begin
    if pc >= Array.length s.site_atomic_txns then
      s.site_atomic_txns <- grow s.site_atomic_txns pc;
    s.site_atomic_txns.(pc) <- s.site_atomic_txns.(pc) + txns
  end

let count_gmem t ~stage:i ~pc ~txns ~bytes ~requested =
  let s = stage t i in
  s.gmem_accesses <- s.gmem_accesses + 1;
  s.gmem_txns <- s.gmem_txns + txns;
  s.gmem_transferred_bytes <- s.gmem_transferred_bytes + bytes;
  s.gmem_requested_bytes <- s.gmem_requested_bytes + requested;
  if pc >= 0 then begin
    if pc >= Array.length s.site_gmem_bytes then
      s.site_gmem_bytes <- grow s.site_gmem_bytes pc;
    s.site_gmem_bytes.(pc) <- s.site_gmem_bytes.(pc) + bytes
  end

let count_barrier t ~stage:i =
  let s = stage t i in
  s.barriers <- s.barriers + 1

let count_active_warp t ~stage:i =
  let s = stage t i in
  s.active_warp_slots <- s.active_warp_slots + 1

(* --- Aggregation ------------------------------------------------------ *)

let issued_of s cls = s.issued.(class_index cls)

let total_issued s = Array.fold_left ( + ) 0 s.issued

type site = {
  pc : int;
  issued : int;
  smem_txns : int;
  atomic_txns : int;
  gmem_transferred_bytes : int;
}

let sites s =
  let get a i = if i < Array.length a then a.(i) else 0 in
  let len =
    max
      (max (Array.length s.site_issued) (Array.length s.site_atomic_txns))
      (max (Array.length s.site_smem_txns) (Array.length s.site_gmem_bytes))
  in
  let acc = ref [] in
  for pc = len - 1 downto 0 do
    let issued = get s.site_issued pc in
    let smem_txns = get s.site_smem_txns pc in
    let atomic_txns = get s.site_atomic_txns pc in
    let gmem = get s.site_gmem_bytes pc in
    if issued <> 0 || smem_txns <> 0 || atomic_txns <> 0 || gmem <> 0 then
      acc :=
        { pc; issued; smem_txns; atomic_txns; gmem_transferred_bytes = gmem }
        :: !acc
  done;
  !acc

let merge_sites a b =
  if Array.length b = 0 then a
  else begin
    let a =
      if Array.length a >= Array.length b then a
      else begin
        let n = Array.make (Array.length b) 0 in
        Array.blit a 0 n 0 (Array.length a);
        n
      end
    in
    Array.iteri (fun i v -> if v <> 0 then a.(i) <- a.(i) + v) b;
    a
  end

let merge_stage ~into:(a : stage) (b : stage) =
  Array.iteri (fun i v -> a.issued.(i) <- a.issued.(i) + v) b.issued;
  a.mads <- a.mads + b.mads;
  a.smem_accesses <- a.smem_accesses + b.smem_accesses;
  a.smem_txns <- a.smem_txns + b.smem_txns;
  a.smem_ideal_txns <- a.smem_ideal_txns + b.smem_ideal_txns;
  a.atomic_accesses <- a.atomic_accesses + b.atomic_accesses;
  a.atomic_txns <- a.atomic_txns + b.atomic_txns;
  a.atomic_ideal_txns <- a.atomic_ideal_txns + b.atomic_ideal_txns;
  a.gmem_accesses <- a.gmem_accesses + b.gmem_accesses;
  a.gmem_txns <- a.gmem_txns + b.gmem_txns;
  a.gmem_requested_bytes <- a.gmem_requested_bytes + b.gmem_requested_bytes;
  a.gmem_transferred_bytes <-
    a.gmem_transferred_bytes + b.gmem_transferred_bytes;
  a.barriers <- a.barriers + b.barriers;
  a.active_warp_slots <- max a.active_warp_slots b.active_warp_slots;
  a.site_issued <- merge_sites a.site_issued b.site_issued;
  a.site_smem_txns <- merge_sites a.site_smem_txns b.site_smem_txns;
  a.site_atomic_txns <- merge_sites a.site_atomic_txns b.site_atomic_txns;
  a.site_gmem_bytes <- merge_sites a.site_gmem_bytes b.site_gmem_bytes

(* All stages folded into one (the multi-block overlapped view of paper
   Section 3). *)
let total t =
  let s = empty_stage () in
  Array.iter (fun st -> merge_stage ~into:s st) t.stages;
  s

(* Computational density: fraction of issued warp-instructions that are
   MADs doing "actual computation" (paper Sections 5.1-5.3). *)
let computational_density (s : stage) =
  let n = total_issued s in
  if n = 0 then 0.0 else float_of_int s.mads /. float_of_int n

(* Coalescing efficiency: requested / transferred global bytes. *)
let coalescing_efficiency (s : stage) =
  if s.gmem_transferred_bytes = 0 then 1.0
  else
    float_of_int s.gmem_requested_bytes
    /. float_of_int s.gmem_transferred_bytes

(* Bank-conflict penalty: effective / ideal shared transactions (1.0 means
   conflict-free). *)
let bank_conflict_penalty (s : stage) =
  if s.smem_ideal_txns = 0 then 1.0
  else float_of_int s.smem_txns /. float_of_int s.smem_ideal_txns

(* Atomic-contention penalty: serialized / contention-free atomic
   transactions (1.0 means every atomic hit its own bank and word). *)
let atomic_contention_penalty (s : stage) =
  if s.atomic_ideal_txns = 0 then 1.0
  else float_of_int s.atomic_txns /. float_of_int s.atomic_ideal_txns

let pp_stage ppf (s : stage) =
  let classes =
    List.map
      (fun c -> Printf.sprintf "%s=%d" (I.cost_class_name c)
          (issued_of s c))
      I.all_cost_classes
  in
  Fmt.pf ppf
    "@[<v>issued: %s (mad %d)@,shared txns: %d (ideal %d)@,atomic txns: %d \
     (ideal %d)@,global txns: %d \
     (%d B moved, %d B requested)@,barriers: %d@]"
    (String.concat " " classes)
    s.mads s.smem_txns s.smem_ideal_txns s.atomic_txns s.atomic_ideal_txns
    s.gmem_txns
    s.gmem_transferred_bytes s.gmem_requested_bytes s.barriers

let pp ppf t =
  Array.iteri
    (fun i s -> Fmt.pf ppf "@[<v>stage %d:@,  %a@]@." i pp_stage s)
    t.stages
