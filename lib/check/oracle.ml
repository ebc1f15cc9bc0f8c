(* Brute-force reference oracles for the memory-system analyzers.

   These deliberately share no machinery with lib/mem: the coalescer
   oracle grows segments upward from min_segment instead of halving
   downward, and the bank oracle tallies (bank, word) pairs through
   sorted lists instead of per-bank tally arrays over a lane mask.
   Agreement between two
   independently-derived implementations of the CUDA CC 1.2/1.3 protocol
   (paper Section 4.3) and the bank-conflict rule (Section 4.2) is the
   property the harness checks. *)

module C = Gpu_mem.Coalesce

type access = {
  group : int;
  min_segment : int;
  max_segment : int;
  banks : int;
  width : int;
  lanes : int option array;
}

let pp_access ppf a =
  Fmt.pf ppf
    "group=%d min_segment=%d max_segment=%d banks=%d width=%d lanes=[%a]"
    a.group a.min_segment a.max_segment a.banks a.width
    Fmt.(
      array ~sep:(any ",") (fun ppf -> function
        | None -> Fmt.string ppf "-"
        | Some x -> Fmt.int ppf x))
    a.lanes

(* --- coalescing ---------------------------------------------------------- *)

(* Serve one issue group by direct protocol enumeration:
     1. the max_segment-aligned window of the lowest active lane;
     2. every pending lane whose whole access lies inside it joins;
     3. the served segment is the *smallest* aligned power-of-two window
        of size >= min_segment containing the members' span — found by
        growing upward from min_segment, the opposite search direction
        from the implementation's shrink-by-halving.  (Aligned
        power-of-two windows containing a fixed interval form a chain
        under inclusion, so both searches meet at the same window.) *)
let coalesce_group ~min_segment ~max_segment ~width lanes =
  let pending = Array.copy lanes in
  let rec lowest i =
    if i >= Array.length pending then None
    else match pending.(i) with Some a -> Some a | None -> lowest (i + 1)
  in
  let rec serve acc =
    match lowest 0 with
    | None -> List.rev acc
    | Some leader ->
      let seg_base = leader / max_segment * max_segment in
      let members = ref [] in
      Array.iteri
        (fun i la ->
          match la with
          | Some a when a >= seg_base && a + width <= seg_base + max_segment
            ->
            members := (i, a) :: !members
          | _ -> ())
        pending;
      let lo = List.fold_left (fun m (_, a) -> min m a) max_int !members in
      let hi = List.fold_left (fun m (_, a) -> max m (a + width)) 0 !members in
      let rec grow size =
        if size >= max_segment then (seg_base, max_segment)
        else
          let base = lo / size * size in
          if hi <= base + size then (base, size) else grow (size * 2)
      in
      let base, size = grow min_segment in
      List.iter (fun (i, _) -> pending.(i) <- None) !members;
      serve ({ C.base; size } :: acc)
  in
  serve []

let coalesce_warp a =
  let n = Array.length a.lanes in
  let rec go start acc =
    if start >= n then List.concat (List.rev acc)
    else
      let len = min a.group (n - start) in
      let slice = Array.sub a.lanes start len in
      go (start + a.group)
        (coalesce_group ~min_segment:a.min_segment ~max_segment:a.max_segment
           ~width:a.width slice
        :: acc)
  in
  go 0 []

(* The implementation serves lanes in a deterministic order, but only the
   transaction *multiset* is architecturally meaningful — compare sorted. *)
let sort_txns l =
  List.sort
    (fun (a : C.txn) (b : C.txn) -> compare (a.base, a.size) (b.base, b.size))
    l

let coalesce_agrees a =
  let cfg =
    {
      C.group = a.group;
      min_segment = a.min_segment;
      max_segment = a.max_segment;
    }
  in
  let impl = C.warp_transactions cfg ~width:a.width a.lanes in
  let ref_ = coalesce_warp a in
  if sort_txns impl = sort_txns ref_ then Ok ()
  else
    Error
      (Fmt.str "@[<v>coalesce mismatch on %a@,impl: %a@,oracle: %a@]"
         pp_access a
         Fmt.(list ~sep:(any " ") C.pp_txn)
         (sort_txns impl)
         Fmt.(list ~sep:(any " ") C.pp_txn)
         (sort_txns ref_))

(* --- bank conflicts ------------------------------------------------------ *)

(* Per issue group: collect every (bank, word) pair any active lane
   touches (a width-w access covers words addr/4 .. (addr+width-1)/4),
   dedupe, and take the largest per-bank count.  A group with no active
   lane costs nothing. *)
let bank_group ~banks ~width lanes =
  let word_size = 4 in
  let pairs = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some addr ->
        for w = addr / word_size to (addr + width - 1) / word_size do
          pairs := (w mod banks, w) :: !pairs
        done)
    lanes;
  let distinct = List.sort_uniq compare !pairs in
  let degree_of b =
    List.length (List.filter (fun (b', _) -> b' = b) distinct)
  in
  List.fold_left (fun m (b, _) -> max m (degree_of b)) 0 distinct

let bank_warp a =
  let n = Array.length a.lanes in
  let rec go start acc =
    if start >= n then acc
    else
      let len = min a.group (n - start) in
      let slice = Array.sub a.lanes start len in
      go (start + a.group) (acc + bank_group ~banks:a.banks ~width:a.width slice)
  in
  go 0 0

let bank_agrees a =
  let impl =
    Gpu_mem.Bank.warp_transactions ~width:a.width ~banks:a.banks
      ~group:a.group a.lanes
  in
  let ref_ = bank_warp a in
  if impl = ref_ then Ok ()
  else
    Error
      (Fmt.str "bank mismatch on %a: impl=%d oracle=%d" pp_access a impl ref_)

(* --- atomic serialization ------------------------------------------------ *)

(* Per issue group: one bank entry per lane-word access, *with*
   multiplicity — unlike plain loads, two atomics on the same word cannot
   broadcast, because each read-modify-write must observe the previous
   one's write.  The count per bank is found by sorting the bank list and
   taking the longest run (the implementation counts into a per-bank
   tally array, the opposite machinery); the group's cost is the busiest
   bank. *)
let atomic_group ~banks ~width lanes =
  let word_size = 4 in
  let hits = ref [] in
  Array.iter
    (function
      | None -> ()
      | Some addr ->
        for w = addr / word_size to (addr + width - 1) / word_size do
          hits := (w mod banks) :: !hits
        done)
    lanes;
  let sorted = List.sort compare !hits in
  let rec runs cur len best = function
    | [] -> max best len
    | b :: rest ->
      if b = cur then runs cur (len + 1) best rest
      else runs b 1 (max best len) rest
  in
  match sorted with [] -> 0 | b :: rest -> runs b 1 0 rest

let atomic_warp a =
  let n = Array.length a.lanes in
  let rec go start acc =
    if start >= n then acc
    else
      let len = min a.group (n - start) in
      let slice = Array.sub a.lanes start len in
      go (start + a.group)
        (acc + atomic_group ~banks:a.banks ~width:a.width slice)
  in
  go 0 0

let atomic_ideal_warp a =
  let n = Array.length a.lanes in
  let rec go start acc =
    if start >= n then acc
    else
      let len = min a.group (n - start) in
      let active = ref false in
      for i = start to start + len - 1 do
        if a.lanes.(i) <> None then active := true
      done;
      go (start + a.group) (acc + if !active then 1 else 0)
  in
  go 0 0

let atomic_agrees a =
  let impl =
    Gpu_mem.Bank.warp_atomic_transactions ~width:a.width ~banks:a.banks
      ~group:a.group a.lanes
  in
  let impl_ideal =
    Gpu_mem.Bank.ideal_warp_atomic_transactions ~group:a.group a.lanes
  in
  let ref_ = atomic_warp a in
  let ref_ideal = atomic_ideal_warp a in
  if impl <> ref_ then
    Error
      (Fmt.str "atomic mismatch on %a: impl=%d oracle=%d" pp_access a impl
         ref_)
  else if impl_ideal <> ref_ideal then
    Error
      (Fmt.str "atomic ideal mismatch on %a: impl=%d oracle=%d" pp_access a
         impl_ideal ref_ideal)
  else Ok ()
