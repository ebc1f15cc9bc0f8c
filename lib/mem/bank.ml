(* Shared-memory bank-conflict analyzer (paper Section 4.2).

   Shared memory stores adjacent 4-byte words in adjacent banks.  A
   half-warp access where k threads hit distinct words of the same bank
   serializes into k transactions.  Threads reading the *same* word of a
   bank are served by one broadcast.  The paper notes Barra does not track
   conflicts, so it derives effective transaction counts with a separate
   tool; this module is that tool, generalized to any bank count so the
   prime-bank-count architectural proposal of Section 5.2 can be evaluated.

   Accesses wider than one word span several banks: a 64-bit access on
   GT200 touches two adjacent 4-byte words, so even a perfectly strided
   64-bit pattern costs two transactions per half-warp — every word a lane
   touches is tallied in its bank.

   One counting core serves every entry point.  It reads lanes in the
   [Lanes] form (an address buffer plus an active-lane mask) and tallies
   into a caller-owned [scratch], so the functional simulator counts each
   shared access without allocating; the [int option array] functions at
   the end stage their argument into that form and run the same core. *)

let word_size = 4

let word_shift = 2 (* log2 word_size *)

(* Per-bank tallies: the distinct words seen in each bank (plain accesses)
   or the accesses landing there (atomics), with bank [b]'s distinct words
   at [words.(b * slots ..)].  A scratch belongs to its caller — one
   simulated run, or one adapter call — never to this module, so domains
   counting at once never share one. *)
type scratch = {
  mutable tally : int array;
  mutable words : int array;
  mutable slots : int; (* word slots per bank *)
}

let scratch () = { tally = [||]; words = [||]; slots = 0 }

(* Size [s] for one group of [group] lanes of [width] bytes over [banks]
   banks; it only ever grows, so a run allocates here once. *)
let reserve s ~banks ~group ~width =
  let per_lane = ((width - 1) / word_size) + 2 in
  let slots = max s.slots (min group Lanes.max_lanes * per_lane) in
  if Array.length s.tally < banks then s.tally <- Array.make banks 0;
  if Array.length s.words < banks * slots then
    s.words <- Array.make (banks * slots) 0;
  s.slots <- slots

(* OCaml's [/] and [mod] truncate toward zero, so [-1 / 4 = 0] would
   silently tally the access in word 0 of bank 0 instead of failing like
   [Machine.shared_check] does. *)
let negative addr =
  invalid_arg (Printf.sprintf "Bank: negative address %d" addr)

let positive ~what who n =
  if n <= 0 then invalid_arg (Printf.sprintf "Bank.%s: %s must be > 0" who what)

(* The bank holding word [w]: a mask when [banks] is a power of two
   ([bmask = banks - 1]), else a division (the prime-bank proposal's 17). *)
let[@inline] bank ~banks ~bmask w =
  if bmask >= 0 then w land bmask else w mod banks

(* One pass over the group's lane-words deciding that its degree is 1:
   every lane-word is the same word (a broadcast), or no two fall in the
   same bank (the bank set is a bitmask, so [banks <= Sys.int_size]).
   Both are the common conflict-free shapes, and both leave every bank
   with at most one distinct word.  The pass stops at the first lane-word
   that rules both out, and raises on a negative address in lane order
   before it, as the tally does. *)
let conflict_free ~width ~banks ~bmask addrs start gmask =
  let first = ref (-1) and same = ref true in
  let seen = ref 0 and apart = ref true in
  let m = ref gmask and lane = ref start in
  while !m <> 0 && (!same || !apart) do
    if !m land 1 <> 0 then begin
      let addr = addrs.(!lane) in
      if addr < 0 then negative addr;
      for w = addr lsr word_shift to (addr + width - 1) lsr word_shift do
        if !first < 0 then first := w else if w <> !first then same := false;
        let bit = 1 lsl bank ~banks ~bmask w in
        if !seen land bit <> 0 then apart := false;
        seen := !seen lor bit
      done
    end;
    m := !m lsr 1;
    incr lane
  done;
  !same || !apart

(* Degree of one issue group, whose active lanes are the bits of [gmask]
   (bit 0 = lane [start]): the maximum over banks of the distinct words
   addressed there when [distinct], else of every lane-word access with
   multiplicity (atomics: same-word accesses cannot broadcast).  Words
   [addr/4 .. (addr+width-1)/4] of each active lane are tallied; a
   non-negative address makes those shifts. *)
let group_degree s ~distinct ~width ~banks ~bmask addrs start gmask =
  if
    distinct && banks <= Sys.int_size
    && conflict_free ~width ~banks ~bmask addrs start gmask
  then 1
  else begin
    let tally = s.tally and words = s.words and slots = s.slots in
    let degree = ref 0 in
    let m = ref gmask and lane = ref start in
    while !m <> 0 do
      if !m land 1 <> 0 then begin
        let addr = addrs.(!lane) in
        if addr < 0 then negative addr;
        for w = addr lsr word_shift to (addr + width - 1) lsr word_shift
        do
          let b = bank ~banks ~bmask w in
          let n = tally.(b) in
          let k = ref 0 in
          if distinct then begin
            let base = b * slots in
            while !k < n && words.(base + !k) <> w do
              incr k
            done;
            if !k = n then words.(base + n) <- w
          end
          else k := n;
          if !k = n then begin
            tally.(b) <- n + 1;
            if n + 1 > !degree then degree := n + 1
          end
        done
      end;
      m := !m lsr 1;
      incr lane
    done;
    for b = 0 to banks - 1 do
      tally.(b) <- 0
    done;
    !degree
  end

let walk s ~distinct ~width ~banks ~group addrs mask =
  reserve s ~banks ~group ~width;
  let bmask = if banks land (banks - 1) = 0 then banks - 1 else -1 in
  let total = ref 0 and start = ref 0 in
  while Lanes.more mask ~start:!start do
    let gmask = Lanes.group_mask mask ~start:!start ~group in
    if gmask <> 0 then
      total :=
        !total
        + group_degree s ~distinct ~width ~banks ~bmask addrs !start gmask;
    start := !start + group
  done;
  !total

(* --- The counting core -------------------------------------------------- *)

(* Effective transactions of a warp access split into issue groups of
   [group] lanes: the sum of the groups' conflict degrees (0 for a group
   with no active lane).  This is what the performance model charges
   against shared-memory bandwidth. *)
let conflicts s ~width ~banks ~group addrs ~mask =
  positive ~what:"group" "warp_transactions" group;
  positive ~what:"banks" "conflict_degree" banks;
  positive ~what:"width" "conflict_degree" width;
  walk s ~distinct:true ~width ~banks ~group addrs mask

(* --- Atomic serialization (DESIGN §15) --------------------------------

   An atomic read-modify-write cannot be served by broadcast: two lanes
   hitting the *same* word must still serialize, because each one's read
   must observe the previous one's write.  So where [conflicts] counts
   distinct words per bank, the atomic degree counts every access per
   bank *with multiplicity* — the maximum over banks of the total
   lane-word accesses landing there is how many back-to-back shared-memory
   cycles the group occupies. *)
let atomic_conflicts s ~width ~banks ~group addrs ~mask =
  positive ~what:"group" "warp_atomic_transactions" group;
  positive ~what:"banks" "atomic_degree" banks;
  positive ~what:"width" "atomic_degree" width;
  walk s ~distinct:false ~width ~banks ~group addrs mask

(* Issue groups of [group] lanes with at least one active lane.  It is
   also both counts of a one-word access whose active lanes all address
   the same aligned word: each active group is one broadcast transaction
   ([conflicts]' degree 1) needing one word ([ideal]'s count), so the
   simulator takes it for such a shared access instead of walking the
   lanes twice. *)
let active_groups ~group ~mask =
  positive ~what:"group" "active_groups" group;
  let total = ref 0 and start = ref 0 in
  while Lanes.more mask ~start:!start do
    if Lanes.group_mask mask ~start:!start ~group <> 0 then incr total;
    start := !start + group
  done;
  !total

(* Conflict-free transaction count for the same access: the widest active
   lane's word count per group with at least one active lane (a multi-word
   access needs that many transactions even without conflicts).  When
   every active address is non-negative and word-aligned — the OR of them
   all has neither the sign bit nor a low bit set — every lane spans the
   same [(width - 1) / 4 + 1] words, so the count is that times the
   active groups. *)
let ideal ~width ~group addrs ~mask =
  positive ~what:"group" "ideal_warp_transactions" group;
  positive ~what:"width" "ideal_warp_transactions" width;
  let any = ref 0 and m = ref mask and lane = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then any := !any lor addrs.(!lane);
    m := !m lsr 1;
    incr lane
  done;
  if !any land (min_int lor (word_size - 1)) = 0 then
    (((width - 1) / word_size) + 1) * active_groups ~group ~mask
  else begin
    let total = ref 0 and start = ref 0 in
    while Lanes.more mask ~start:!start do
      let m = ref (Lanes.group_mask mask ~start:!start ~group)
      and lane = ref !start
      and widest = ref 0 in
      while !m <> 0 do
        if !m land 1 <> 0 then begin
          let a = addrs.(!lane) in
          let words = ((a + width - 1) / word_size) - (a / word_size) + 1 in
          if words > !widest then widest := words
        end;
        m := !m lsr 1;
        incr lane
      done;
      total := !total + !widest;
      start := !start + group
    done;
    !total
  end

(* Contention-free floor for an atomic access: one transaction per group
   with at least one active lane — the count a conflict-free, fully
   diverged-address atomic would achieve. *)
let ideal_atomic ~group ~mask =
  positive ~what:"group" "ideal_warp_atomic_transactions" group;
  active_groups ~group ~mask

(* --- [int option array] entry points ------------------------------------ *)

let stage = Lanes.of_options ~who:"Bank"

(* One access group: the whole array. *)
let conflict_degree ?(width = word_size) ~banks addresses =
  let addrs, mask = stage addresses in
  conflicts (scratch ()) ~width ~banks
    ~group:(max 1 (Array.length addrs))
    addrs ~mask

let transactions = conflict_degree

let warp_transactions ?(width = word_size) ~banks ~group addresses =
  let addrs, mask = stage addresses in
  conflicts (scratch ()) ~width ~banks ~group addrs ~mask

let ideal_warp_transactions ?(width = word_size) ~group addresses =
  let addrs, mask = stage addresses in
  ideal ~width ~group addrs ~mask

let atomic_transactions ?(width = word_size) ~banks addresses =
  let addrs, mask = stage addresses in
  atomic_conflicts (scratch ()) ~width ~banks
    ~group:(max 1 (Array.length addrs))
    addrs ~mask

let warp_atomic_transactions ?(width = word_size) ~banks ~group addresses =
  let addrs, mask = stage addresses in
  atomic_conflicts (scratch ()) ~width ~banks ~group addrs ~mask

let ideal_warp_atomic_transactions ~group addresses =
  let _, mask = stage addresses in
  ideal_atomic ~group ~mask
