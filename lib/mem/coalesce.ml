(* Memory-transaction simulator implementing the CUDA compute-capability
   1.2/1.3 coalescing protocol (paper Section 4.3):

     1. find the segment containing the address requested by the lowest
        numbered active thread;
     2. find all other threads whose requested address is in that segment;
     3. reduce the segment size if possible;
     4. repeat until all threads of the issue group are served.

   The issue group is a half-warp (16 threads) on real hardware; the paper's
   Figure 10 example uses 2 threads and an 8-byte segment, and its Figure 11
   what-if sweeps segment granularities of 32, 16 and 4 bytes, so all three
   parameters are configurable.

   One core ([serve]) implements the protocol.  It reads lanes in the
   [Lanes] form (address buffer plus active-lane mask) and writes
   transactions into a caller-owned [scratch], so the functional simulator
   coalesces each global access without allocating; the [int option array]
   entry points stage their argument and run the same core. *)

type txn = { base : int; size : int }

type config = {
  group : int; (* threads per transaction issue (half-warp = 16) *)
  min_segment : int; (* smallest transaction, bytes *)
  max_segment : int; (* initial segment size, bytes *)
}

let config_of_spec (spec : Gpu_hw.Spec.t) =
  {
    group = spec.coalesce_threads;
    min_segment = spec.min_segment_bytes;
    max_segment = spec.max_segment_bytes;
  }

let check_config c =
  let power_of_two n = n > 0 && n land (n - 1) = 0 in
  if not (power_of_two c.min_segment && power_of_two c.max_segment) then
    invalid_arg "Coalesce: segment sizes must be powers of two";
  if c.min_segment > c.max_segment then
    invalid_arg "Coalesce: min_segment > max_segment";
  if c.group <= 0 then invalid_arg "Coalesce: group must be positive"

(* Transaction buffers the counting core writes into: transaction [i] is
   [(bases.(i), sizes.(i))].  A warp access needs at most one transaction
   per active lane.  Owned by the caller — one simulated run, or one call
   — so concurrent domains never share one. *)
type scratch = { bases : int array; sizes : int array }

let scratch () =
  { bases = Array.make Lanes.max_lanes 0; sizes = Array.make Lanes.max_lanes 0 }

let misaligned () =
  invalid_arg "Coalesce.group_transactions: addresses must be width-aligned"

(* Serve the issue group whose active lanes are the bits of [gmask] (bit 0
   = lane [start]), writing its transactions in service order into [s]
   from index [k]; returns the new transaction count. *)
let serve_group c s ~width addrs start gmask k =
  let pending = ref gmask and k = ref k in
  while !pending <> 0 do
    (* Step 1: the max_segment-aligned segment holding the lowest pending
       lane. *)
    let leader = ref 0 in
    while (!pending lsr !leader) land 1 = 0 do
      incr leader
    done;
    let seg = c.max_segment in
    let base = addrs.(start + !leader) land lnot (seg - 1) in
    (* Step 2: which pending lanes fall entirely inside it.  The leader
       always leaves [pending], so the loop ends even for an access that
       straddles its segment. *)
    let lo = ref max_int and hi = ref 0 and members = ref (1 lsl !leader) in
    let m = ref !pending and lane = ref 0 in
    while !m <> 0 do
      (if !m land 1 <> 0 then
         let a = addrs.(start + !lane) in
         if a >= base && a + width <= base + seg then begin
           if a < !lo then lo := a;
           if a + width > !hi then hi := a + width;
           members := !members lor (1 lsl !lane)
         end);
      m := !m lsr 1;
      incr lane
    done;
    (* Step 3: shrink while all members fit in one half. *)
    let tbase = ref base and tsize = ref seg and fits = ref true in
    while !fits && !tsize / 2 >= c.min_segment do
      let half = !tsize / 2 in
      if !hi <= !tbase + half then tsize := half
      else if !lo >= !tbase + half then begin
        tbase := !tbase + half;
        tsize := half
      end
      else fits := false
    done;
    s.bases.(!k) <- !tbase;
    s.sizes.(!k) <- !tsize;
    incr k;
    pending := !pending land lnot !members
  done;
  !k

(* The counting core: serve the active lanes of [mask] in issue groups of
   [c.group] threads.  Transactions land in [s] in service order; returns
   how many.  The width and the segment sizes are powers of two, and
   every active address is checked non-negative before a group is
   served, so the alignment test and the segment bases are masks. *)
let serve c s ~width addrs ~mask =
  check_config c;
  if width <= 0 || width land (width - 1) <> 0 then
    invalid_arg "Coalesce.group_transactions: width must be a power of two";
  if width > c.max_segment then
    invalid_arg "Coalesce.group_transactions: access wider than a segment";
  let m = ref mask and lane = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let a = addrs.(!lane) in
       if a < 0 || a land (width - 1) <> 0 then misaligned ());
    m := !m lsr 1;
    incr lane
  done;
  let k = ref 0 and start = ref 0 in
  while Lanes.more mask ~start:!start do
    let gmask = Lanes.group_mask mask ~start:!start ~group:c.group in
    if gmask <> 0 then k := serve_group c s ~width addrs !start gmask !k;
    start := !start + c.group
  done;
  !k

(* --- [int option array] entry points ------------------------------------ *)

let to_list s n =
  let rec go i acc =
    if i < 0 then acc
    else go (i - 1) ({ base = s.bases.(i); size = s.sizes.(i) } :: acc)
  in
  go (n - 1) []

let transactions ~who c ~width addresses =
  let addrs, mask = Lanes.of_options ~who addresses in
  let s = scratch () in
  to_list s (serve c s ~width addrs ~mask)

(* Serve one issue group.  [addresses.(i) = Some a] is the byte address
   requested by thread [i]; [None] marks an inactive thread.  [width] is the
   access width in bytes.  Returns transactions in service order. *)
let group_transactions c ~width addresses =
  check_config c;
  if Array.length addresses > c.group then
    invalid_arg "Coalesce.group_transactions: more threads than group size";
  transactions ~who:"Coalesce.group_transactions" c ~width addresses

(* Serve a full warp, split into issue groups of [c.group] threads. *)
let warp_transactions = transactions ~who:"Coalesce.warp_transactions"

let bytes txns = List.fold_left (fun acc t -> acc + t.size) 0 txns

let count = List.length

(* Fraction of transferred bytes actually requested: 1.0 means perfectly
   coalesced traffic. *)
let efficiency ~width addresses txns =
  let requested =
    Array.fold_left
      (fun acc a -> match a with Some _ -> acc + width | None -> acc)
      0 addresses
  in
  let transferred = bytes txns in
  if transferred = 0 then 1.0
  else float_of_int requested /. float_of_int transferred

let pp_txn ppf t = Fmt.pf ppf "[%#x..%#x)" t.base (t.base + t.size)
