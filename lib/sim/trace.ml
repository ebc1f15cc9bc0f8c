(* Execution traces for the timing simulator: one compact event per issued
   warp-instruction, carrying just what timing needs — the cost class, the
   register dependence information for the per-warp scoreboard, and the
   memory transactions the access generated.  Predicate registers share the
   register id space at [pred_reg_base + n].

   The interpreter builds events, the checking harness lowers generated
   cases to them, the workflow compares them for homogeneity, and the
   timing engine cooks each distinct warp trace straight from its event
   array before replay. *)

module I = Gpu_isa.Instr

let pred_reg_base = 1000

let no_reg = -1

type mem =
  | No_mem
  | Smem of int (* conflict-adjusted half-warp transaction count *)
  | Smem_atomic of int (* contention-serialized half-warp transactions *)
  | Gmem_load of (int * int) array (* (base, size) transactions *)
  | Gmem_store of (int * int) array

type event = {
  cls : I.cost_class;
  dst : int; (* destination register id, or [no_reg] *)
  srcs : int array; (* source register ids *)
  mem : mem;
  bar : bool;
}

type warp_trace = event array

type block_trace = { block : int; warps : warp_trace array }

(* Builder used by the interpreter: an amortized-doubling buffer, so a
   trace of n events costs O(log n) allocations instead of an n-long
   reversed list plus the [Array.of_list] copy. *)
type builder = { mutable buf : event array; mutable count : int }

let builder () = { buf = [||]; count = 0 }

let add b e =
  let cap = Array.length b.buf in
  if b.count = cap then begin
    let buf = Array.make (max 16 (2 * cap)) e in
    Array.blit b.buf 0 buf 0 b.count;
    b.buf <- buf
  end;
  b.buf.(b.count) <- e;
  b.count <- b.count + 1

let finish b = Array.sub b.buf 0 b.count

let event_count (t : block_trace) =
  Array.fold_left (fun acc w -> acc + Array.length w) 0 t.warps

(* Gmem transaction bytes of one event. *)
let mem_bytes = function
  | No_mem | Smem _ | Smem_atomic _ -> 0
  | Gmem_load txns | Gmem_store txns ->
    Array.fold_left (fun acc (_, size) -> acc + size) 0 txns

(* --- interning key ------------------------------------------------------- *)

(* [Hashtbl.hash] visits at most 100 values breadth-first, so for a trace
   of 98 or more events it sees only the event pointers and its value
   depends on the length alone.  This key instead mixes the length with at
   most [key_samples] evenly spaced events' destination, sources and
   memory shape (kind, transaction count, first transaction), so warps
   that differ anywhere in those events key apart, at a cost independent
   of the trace length. *)
let key_samples = 16

let mix h x = (h lxor x) * 0x100000001b3

let mix_txns h txns =
  let h = mix h (Array.length txns) in
  if Array.length txns = 0 then h
  else
    let base, size = txns.(0) in
    mix (mix h base) size

let mix_mem h = function
  | No_mem -> mix h 0
  | Smem txns -> mix (mix h 1) txns
  | Smem_atomic txns -> mix (mix h 2) txns
  | Gmem_load txns -> mix_txns (mix h 3) txns
  | Gmem_store txns -> mix_txns (mix h 4) txns

let key (w : warp_trace) =
  let n = Array.length w in
  let k = min n key_samples in
  let h = ref n in
  for s = 0 to k - 1 do
    let e = w.(s * n / k) in
    h := mix !h e.dst;
    for j = 0 to Array.length e.srcs - 1 do
      h := mix !h e.srcs.(j)
    done;
    h := mix_mem !h e.mem
  done;
  Hashtbl.hash !h
