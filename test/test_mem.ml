(* Tests for the memory-system analyzers: the coalescing protocol of
   Section 4.3 (including the Figure 10 granularity example), the
   bank-conflict tool of Section 4.2 (including the Figure 5 cyclic
   reduction strides), and the texture-cache model. *)

module C = Gpu_mem.Coalesce
module B = Gpu_mem.Bank
module Cache = Gpu_mem.Cache

let cfg = { C.group = 16; min_segment = 32; max_segment = 128 }

let addrs xs = Array.map (fun a -> Some a) (Array.of_list xs)

let active n f = Array.init n (fun i -> Some (f i))

(* --- Coalescing: protocol behaviour ------------------------------------- *)

let test_dense_half_warp () =
  (* 16 consecutive 4-byte words = one 64-byte transaction *)
  let txns = C.group_transactions cfg ~width:4 (active 16 (fun i -> 4 * i)) in
  Alcotest.(check int) "one transaction" 1 (C.count txns);
  Alcotest.(check int) "64 bytes" 64 (C.bytes txns);
  Alcotest.(check (float 1e-9)) "fully efficient" 1.0
    (C.efficiency ~width:4 (active 16 (fun i -> 4 * i)) txns)

let test_single_thread () =
  let a = addrs [ 4096 ] in
  let txns = C.group_transactions cfg ~width:4 a in
  Alcotest.(check int) "one transaction" 1 (C.count txns);
  Alcotest.(check int) "shrunk to the 32-byte minimum" 32 (C.bytes txns)

let test_strided_worst_case () =
  (* stride of 128 bytes: every thread in its own segment *)
  let a = active 16 (fun i -> 128 * i) in
  let txns = C.group_transactions cfg ~width:4 a in
  Alcotest.(check int) "16 transactions" 16 (C.count txns);
  Alcotest.(check int) "each 32 bytes" (16 * 32) (C.bytes txns)

let test_unaligned_dense () =
  (* 16 words starting at byte 16 span [16, 80): they straddle the 64-byte
     midpoint of their 128-byte segment, so the transaction cannot shrink
     and 128 bytes move for 64 useful ones *)
  let a = active 16 (fun i -> 16 + (4 * i)) in
  let txns = C.group_transactions cfg ~width:4 a in
  Alcotest.(check int) "one transaction" 1 (C.count txns);
  Alcotest.(check int) "128 bytes moved" 128 (C.bytes txns);
  Alcotest.(check (float 1e-9)) "half the traffic is useful" 0.5
    (C.efficiency ~width:4 a txns)

let test_inactive_lanes () =
  let a = Array.make 16 None in
  Alcotest.(check int) "no transactions for idle lanes" 0
    (C.count (C.group_transactions cfg ~width:4 a));
  a.(3) <- Some 0;
  a.(7) <- Some 4;
  Alcotest.(check int) "partial activity coalesces" 1
    (C.count (C.group_transactions cfg ~width:4 a))

let test_shared_address_broadcastish () =
  (* all threads read the same word: one minimal transaction *)
  let a = active 16 (fun _ -> 256) in
  let txns = C.group_transactions cfg ~width:4 a in
  Alcotest.(check int) "one transaction" 1 (C.count txns);
  Alcotest.(check int) "32 bytes" 32 (C.bytes txns)

let test_misaligned_rejected () =
  Alcotest.(check bool) "misaligned address rejected" true
    (try
       ignore (C.group_transactions cfg ~width:4 (addrs [ 2 ]));
       false
     with Invalid_argument _ -> true)

let test_warp_split () =
  (* a full warp splits into two half-warp issues *)
  let a = active 32 (fun i -> 4 * i) in
  let txns = C.warp_transactions cfg ~width:4 a in
  Alcotest.(check int) "two transactions" 2 (C.count txns);
  Alcotest.(check int) "128 bytes" 128 (C.bytes txns)

(* Figure 10: 2-thread issue granularity, 8-byte transactions.  With the
   straightforward vector layout threads 1 and 2 gather entries 1 and 7 —
   too far apart to share a transaction; interleaving brings paired
   accesses within one 8-byte segment. *)
let test_figure10 () =
  let fig_cfg = { C.group = 2; min_segment = 8; max_segment = 8 } in
  let straight = C.group_transactions fig_cfg ~width:4 (addrs [ 0; 24 ]) in
  Alcotest.(check int) "straightforward: no sharing" 2 (C.count straight);
  let interleaved = C.group_transactions fig_cfg ~width:4 (addrs [ 0; 4 ]) in
  Alcotest.(check int) "interleaved: shared transaction" 1
    (C.count interleaved)

(* --- Coalescing: properties --------------------------------------------- *)

let gen_addresses =
  QCheck.make
    QCheck.Gen.(
      array_size (return 16)
        (oneof
           [
             return None;
             map (fun w -> Some (4 * w)) (int_bound 4096);
           ]))

let covered txns a width =
  match a with
  | None -> true
  | Some addr ->
    List.exists
      (fun (t : C.txn) -> addr >= t.base && addr + width <= t.base + t.size)
      txns

let prop_coverage =
  QCheck.Test.make ~count:500 ~name:"every active lane is served"
    gen_addresses
    (fun a ->
      let txns = C.group_transactions cfg ~width:4 a in
      Array.for_all (fun x -> covered txns x 4) a)

let prop_disjoint =
  QCheck.Test.make ~count:500 ~name:"transactions never overlap"
    gen_addresses
    (fun a ->
      let txns = C.group_transactions cfg ~width:4 a in
      let rec pairs = function
        | [] -> true
        | (t : C.txn) :: rest ->
          List.for_all
            (fun (u : C.txn) ->
              t.base + t.size <= u.base || u.base + u.size <= t.base)
            rest
          && pairs rest
      in
      pairs txns)

let prop_aligned_sizes =
  QCheck.Test.make ~count:500
    ~name:"transactions are power-of-two sized, self-aligned, in range"
    gen_addresses
    (fun a ->
      let txns = C.group_transactions cfg ~width:4 a in
      List.for_all
        (fun (t : C.txn) ->
          t.size >= cfg.min_segment
          && t.size <= cfg.max_segment
          && t.size land (t.size - 1) = 0
          && t.base mod t.size = 0)
        txns)

let prop_finer_granularity_never_moves_more =
  QCheck.Test.make ~count:300
    ~name:"smaller minimum segments never increase traffic" gen_addresses
    (fun a ->
      let coarse = C.bytes (C.group_transactions cfg ~width:4 a) in
      let fine =
        C.bytes
          (C.group_transactions { cfg with C.min_segment = 4 } ~width:4 a)
      in
      fine <= coarse)

(* --- Bank conflicts ------------------------------------------------------ *)

let test_conflict_free () =
  Alcotest.(check int) "linear lanes are conflict-free" 1
    (B.conflict_degree ~banks:16 (active 16 (fun i -> 4 * i)))

let test_broadcast () =
  Alcotest.(check int) "same word is a broadcast" 1
    (B.conflict_degree ~banks:16 (active 16 (fun _ -> 128)))

(* Figure 5: cyclic reduction's stride doubles each step, and so does the
   conflict degree: stride 2 -> 2-way, 4 -> 4-way, 8 -> 8-way... capped at
   the bank count. *)
let test_figure5_strides () =
  List.iter
    (fun (stride, expect) ->
      Alcotest.(check int)
        (Printf.sprintf "stride %d words" stride)
        expect
        (B.conflict_degree ~banks:16
           (active 16 (fun i -> 4 * stride * i))))
    [ (1, 1); (2, 2); (4, 4); (8, 8); (16, 16); (32, 16) ]

let test_prime_banks_remove_conflicts () =
  (* the Section 5.2 architectural proposal: 17 banks break every
     power-of-two stride *)
  List.iter
    (fun stride ->
      Alcotest.(check int)
        (Printf.sprintf "stride %d with 17 banks" stride)
        1
        (B.conflict_degree ~banks:17 (active 16 (fun i -> 4 * stride * i))))
    [ 2; 4; 8; 16; 32 ]

let test_warp_transactions () =
  let a = active 32 (fun i -> 4 * 2 * i) in
  Alcotest.(check int) "2-way conflicts double the transactions" 4
    (B.warp_transactions ~banks:16 ~group:16 a);
  Alcotest.(check int) "ideal is one per half-warp" 2
    (B.ideal_warp_transactions ~group:16 a)

let test_wide_accesses () =
  (* a 64-bit access spans two adjacent banks; sequential 8-byte lanes
     over 16 banks put two distinct words in every bank of each
     half-warp: 2-way conflicts *)
  Alcotest.(check int) "sequential 64-bit lanes conflict 2-way" 2
    (B.conflict_degree ~width:8 ~banks:16 (active 16 (fun i -> 8 * i)));
  (* with 32 banks the same pattern spreads out again *)
  Alcotest.(check int) "32 banks absorb sequential 64-bit lanes" 1
    (B.conflict_degree ~width:8 ~banks:32 (active 16 (fun i -> 8 * i)));
  (* a 64-bit broadcast still touches only one word per bank *)
  Alcotest.(check int) "64-bit broadcast stays free" 1
    (B.conflict_degree ~width:8 ~banks:16 (active 16 (fun _ -> 256)));
  (* ideal transactions count words, so doubles for 64-bit accesses *)
  Alcotest.(check int) "ideal is two words per half-warp" 4
    (B.ideal_warp_transactions ~width:8 ~group:16
       (active 32 (fun i -> 8 * i)))

(* --- Atomic serialization (DESIGN section 15) ---------------------------- *)

let test_atomic_full_contention () =
  (* every lane atomically updates the same word: a plain access would
     broadcast (1 transaction); atomics serialize per lane *)
  let a = active 16 (fun _ -> 128) in
  Alcotest.(check int) "plain access broadcasts" 1
    (B.conflict_degree ~banks:16 a);
  Alcotest.(check int) "atomics serialize all 16 lanes" 16
    (B.atomic_transactions ~banks:16 a)

let test_atomic_conflict_free () =
  (* sequential words, one per bank: no contention either way *)
  let a = active 16 (fun i -> 4 * i) in
  Alcotest.(check int) "distinct banks stay parallel" 1
    (B.atomic_transactions ~banks:16 a)

let test_atomic_kway_duplicates () =
  (* pairs of lanes share a word: 2 accesses per word, still one distinct
     word per bank — the atomic degree sees the multiplicity the plain
     degree cannot *)
  let a = active 16 (fun i -> 4 * (i mod 8)) in
  Alcotest.(check int) "plain degree blind to duplicates" 1
    (B.conflict_degree ~banks:16 a);
  Alcotest.(check int) "2 same-word atomics serialize" 2
    (B.atomic_transactions ~banks:16 a)

let test_atomic_same_bank_stride () =
  (* stride of 16 words: distinct words, all in bank 0 — atomics degrade
     exactly like plain conflicts *)
  let a = active 16 (fun i -> 4 * 16 * i) in
  Alcotest.(check int) "plain 16-way conflict" 16
    (B.conflict_degree ~banks:16 a);
  Alcotest.(check int) "atomic matches on distinct words" 16
    (B.atomic_transactions ~banks:16 a)

let test_atomic_warp_split () =
  let a = active 32 (fun i -> 4 * (i mod 4)) in
  (* per half-warp: 4 words hit 4 times each -> 4 per group *)
  Alcotest.(check int) "groups serialize independently" 8
    (B.warp_atomic_transactions ~banks:16 ~group:16 a);
  Alcotest.(check int) "ideal is one per active group" 2
    (B.ideal_warp_atomic_transactions ~group:16 a);
  Alcotest.(check int) "idle lanes cost nothing" 0
    (B.warp_atomic_transactions ~banks:16 ~group:16 (Array.make 32 None));
  Alcotest.(check int) "no active group, no ideal floor" 0
    (B.ideal_warp_atomic_transactions ~group:16 (Array.make 32 None))

let test_negative_address_rejected () =
  (* OCaml's / and mod truncate toward zero, so -1/4 = 0 would silently
     tally word 0 of bank 0; the analyzer must fail loudly instead *)
  let raises f =
    try
      ignore (f ());
      false
    with Invalid_argument _ -> true
  in
  let neg = addrs [ -4 ] in
  Alcotest.(check bool) "conflict_degree rejects" true
    (raises (fun () -> B.conflict_degree ~banks:16 neg));
  Alcotest.(check bool) "atomic_transactions rejects" true
    (raises (fun () -> B.atomic_transactions ~banks:16 neg));
  Alcotest.(check bool) "warp_transactions rejects" true
    (raises (fun () -> B.warp_transactions ~banks:16 ~group:16 neg));
  Alcotest.(check bool) "warp_atomic_transactions rejects" true
    (raises (fun () -> B.warp_atomic_transactions ~banks:16 ~group:16 neg));
  Alcotest.(check bool) "-1 rejected at the boundary" true
    (raises (fun () -> B.conflict_degree ~banks:16 (addrs [ -1 ])));
  (* address 0 is the valid boundary on the other side *)
  Alcotest.(check int) "address 0 is valid" 1
    (B.conflict_degree ~banks:16 (addrs [ 0 ]));
  Alcotest.(check int) "address 0 atomics are valid" 1
    (B.atomic_transactions ~banks:16 (addrs [ 0 ]))

(* The warp walkers compute per-group degrees over index ranges of the
   one lane array (no per-group slice allocation).  They must agree with
   the obvious slice-then-analyze formulation for any lane pattern. *)
let prop_warp_walkers_match_slices =
  QCheck.Test.make ~count:500
    ~name:"range-based warp walkers equal per-slice analysis"
    (QCheck.make
       QCheck.Gen.(
         array_size (oneofl [ 8; 16; 24; 32 ])
           (oneof
              [
                return None;
                map (fun w -> Some (4 * w)) (int_bound 256);
              ])))
    (fun a ->
      let group = 16 in
      let sliced per_group =
        let n = Array.length a in
        let rec go start acc =
          if start >= n then acc
          else
            let len = min group (n - start) in
            go (start + group) (acc + per_group (Array.sub a start len))
        in
        go 0 0
      in
      B.warp_transactions ~banks:16 ~group a
      = sliced (fun g -> B.conflict_degree ~banks:16 g)
      && B.warp_atomic_transactions ~banks:16 ~group a
         = sliced (fun g -> B.atomic_transactions ~banks:16 g))

let prop_atomic_bounds =
  QCheck.Test.make ~count:500
    ~name:"atomic serialization dominates plain conflicts and its ideal"
    gen_addresses
    (fun a ->
      let atomic = B.warp_atomic_transactions ~banks:16 ~group:16 a in
      let plain = B.warp_transactions ~banks:16 ~group:16 a in
      let ideal = B.ideal_warp_atomic_transactions ~group:16 a in
      let actives =
        Array.fold_left
          (fun n x -> match x with Some _ -> n + 1 | None -> n)
          0 a
      in
      ideal <= atomic && plain <= atomic && atomic <= actives)

let prop_conflict_degree_bounds =
  QCheck.Test.make ~count:500 ~name:"conflict degree within bounds"
    gen_addresses
    (fun a ->
      let actives =
        Array.fold_left
          (fun n x -> match x with Some _ -> n + 1 | None -> n)
          0 a
      in
      let d = B.conflict_degree ~banks:16 a in
      if actives = 0 then d = 0 else d >= 1 && d <= min actives 16)

(* --- Counting core against the reference ---------------------------------- *)

(* The per-lane algorithms the counting core had before its shortcuts,
   kept as the reference its fast paths must equal on every lane set,
   exceptions included: a division for every bank, word and segment base,
   a per-bank tally for every group (no conflict-free pass), the
   widest-lane scan for the ideal count, and the [mod] alignment test. *)
module Ref_mem = struct
  let word_size = 4

  (* The active lanes of each issue group, in lane order. *)
  let groups ~group ~lanes mask =
    List.init
      ((lanes + group - 1) / group)
      (fun g ->
        List.filter
          (fun l -> l < lanes && mask land (1 lsl l) <> 0)
          (List.init group (fun i -> (g * group) + i)))

  let degree ~distinct ~width ~banks addrs lanes =
    let per_bank = Array.make banks [] in
    List.iter
      (fun l ->
        let a = addrs.(l) in
        if a < 0 then
          invalid_arg (Printf.sprintf "Bank: negative address %d" a);
        for w = a / word_size to (a + width - 1) / word_size do
          let b = w mod banks in
          if not (distinct && List.mem w per_bank.(b)) then
            per_bank.(b) <- w :: per_bank.(b)
        done)
      lanes;
    Array.fold_left (fun d ws -> max d (List.length ws)) 0 per_bank

  let conflicts ~distinct ~width ~banks ~group addrs mask =
    List.fold_left
      (fun n lanes -> n + degree ~distinct ~width ~banks addrs lanes)
      0
      (groups ~group ~lanes:(Array.length addrs) mask)

  let ideal ~width ~group addrs mask =
    List.fold_left
      (fun n lanes ->
        n
        + List.fold_left
            (fun m l ->
              let a = addrs.(l) in
              max m (((a + width - 1) / word_size) - (a / word_size) + 1))
            0 lanes)
      0
      (groups ~group ~lanes:(Array.length addrs) mask)

  let misaligned () =
    invalid_arg "Coalesce.group_transactions: addresses must be width-aligned"

  (* Transactions in service order, as (base, size) pairs. *)
  let coalesce (c : C.config) ~width addrs mask =
    let groups = groups ~group:c.C.group ~lanes:(Array.length addrs) mask in
    List.iter
      (List.iter (fun l ->
           let a = addrs.(l) in
           if a < 0 || a mod width <> 0 then misaligned ()))
      groups;
    let serve lanes =
      let rec go pending acc =
        match pending with
        | [] -> List.rev acc
        | leader :: _ ->
          let seg = c.C.max_segment in
          let base = addrs.(leader) / seg * seg in
          let inside l =
            let a = addrs.(l) in
            a >= base && a + width <= base + seg
          in
          let members = List.filter inside pending in
          let lo =
            List.fold_left (fun m l -> min m addrs.(l)) max_int members
          and hi =
            List.fold_left (fun m l -> max m (addrs.(l) + width)) 0 members
          in
          let rec shrink tbase tsize =
            let half = tsize / 2 in
            if half < c.C.min_segment then (tbase, tsize)
            else if hi <= tbase + half then shrink tbase half
            else if lo >= tbase + half then shrink (tbase + half) half
            else (tbase, tsize)
          in
          let served l = l = leader || inside l in
          go
            (List.filter (fun l -> not (served l)) pending)
            (shrink base seg :: acc)
      in
      go lanes []
    in
    List.concat_map serve groups
end

type lane_set = {
  width : int;
  banks : int;
  group : int;
  addrs : int array; (* 32 lanes *)
  mask : int;
}

let pp_lane_set ls =
  Printf.sprintf "width %d banks %d group %d mask %#x addrs [%s]" ls.width
    ls.banks ls.group ls.mask
    (String.concat "; " (Array.to_list (Array.map string_of_int ls.addrs)))

(* Lane shapes the simulator meets — broadcast, consecutive words,
   strided, random, duplicated words — plus negative and misaligned
   addresses, at widths 4 and 8, over 16, 17 or 32 banks in groups of 16
   or 32, under full, half-warp, random and single-lane masks. *)
let gen_lane_set =
  let open QCheck.Gen in
  let* width = oneofl [ 4; 8 ] in
  let* banks = oneofl [ 16; 17; 32 ] in
  let* group = oneofl [ 16; 32 ] in
  let* base = map (fun w -> width * w) (int_bound 1023) in
  let* stride = oneofl [ 2; 3; 4; 8; 16; 17; 32 ] in
  let lanes f = return (Array.init 32 f) in
  let* shape =
    oneof
      [
        lanes (fun _ -> base);
        lanes (fun i -> base + (width * i));
        lanes (fun i -> base + (stride * width * i));
        array_repeat 32 (map (fun w -> width * w) (int_bound 1023));
        array_repeat 32 (map (fun w -> base + (width * w)) (int_bound 3));
      ]
  in
  let* bad = int_bound 3 in
  let* bad_lanes = list_repeat bad (int_bound 31) in
  let* spoil = oneofl [ `Negative; `Misaligned ] in
  let* offset = oneofl [ 1; 2; 3; 4; 6 ] in
  let addrs = Array.copy shape in
  List.iter
    (fun l ->
      addrs.(l) <-
        (match spoil with
        | `Negative -> -offset - (width * l)
        | `Misaligned -> addrs.(l) + offset))
    bad_lanes;
  let* mask =
    oneof
      [
        return 0xFFFF_FFFF;
        oneofl [ 0xFFFF; 0xFFFF_0000; 0 ];
        map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF)
          (int_bound 0xFFFF);
        map (fun l -> 1 lsl l) (int_bound 31);
      ]
  in
  return { width; banks; group; addrs; mask }

let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* One-address lane sets: every active lane reads the same aligned word,
   inactive lanes hold anything (negative and misaligned included).  The
   simulator's broadcast shortcut must equal what the counting core finds
   for them, over 16, 32 and the prime 17 banks, under partial masks. *)
let gen_broadcast_set =
  let open QCheck.Gen in
  let* banks = oneofl [ 16; 17; 32 ] in
  let* group = oneofl [ 16; 32 ] in
  let* word = int_bound 4095 in
  let* junk = array_repeat 32 (int_range (-64) 16_383) in
  let* mask =
    oneof
      [
        return 0xFFFF_FFFF;
        oneofl [ 0xFFFF; 0xFFFF_0000; 0x1; 0x8000_0000; 0 ];
        map2 (fun hi lo -> (hi lsl 16) lor lo) (int_bound 0xFFFF)
          (int_bound 0xFFFF);
        map (fun l -> 1 lsl l) (int_bound 31);
      ]
  in
  let addrs =
    Array.mapi
      (fun l j -> if mask land (1 lsl l) <> 0 then 4 * word else j)
      junk
  in
  return { width = 4; banks; group; addrs; mask }

let prop_broadcast_shortcut =
  QCheck.Test.make ~count:2000
    ~name:"broadcast shortcut equals conflicts and ideal"
    (QCheck.make ~print:pp_lane_set gen_broadcast_set)
    (fun ({ width; banks; group; addrs; mask } as ls) ->
      let n = B.active_groups ~group ~mask in
      let conflicts =
        B.conflicts (B.scratch ()) ~width ~banks ~group addrs ~mask
      and ideal = B.ideal ~width ~group addrs ~mask in
      if n <> conflicts || n <> ideal then
        QCheck.Test.fail_reportf "broadcast %d, conflicts %d, ideal %d on %s" n
          conflicts ideal (pp_lane_set ls);
      true)

let prop_core_matches_reference =
  QCheck.Test.make ~count:3000
    ~name:"bank, ideal and coalescing core equal the reference"
    (QCheck.make ~print:pp_lane_set gen_lane_set)
    (fun ({ width; banks; group; addrs; mask } as ls) ->
      let agree what got want =
        if got <> want then
          QCheck.Test.fail_reportf "%s differs on %s" what (pp_lane_set ls)
      in
      let scratch = B.scratch () in
      agree "conflicts"
        (outcome (fun () ->
             B.conflicts scratch ~width ~banks ~group addrs ~mask))
        (outcome (fun () ->
             Ref_mem.conflicts ~distinct:true ~width ~banks ~group addrs mask));
      agree "atomic_conflicts"
        (outcome (fun () ->
             B.atomic_conflicts scratch ~width ~banks ~group addrs ~mask))
        (outcome (fun () ->
             Ref_mem.conflicts ~distinct:false ~width ~banks ~group addrs
               mask));
      agree "ideal"
        (outcome (fun () -> B.ideal ~width ~group addrs ~mask))
        (outcome (fun () -> Ref_mem.ideal ~width ~group addrs mask));
      List.iter
        (fun min_segment ->
          let c = { C.group; min_segment; max_segment = 128 } in
          let s = C.scratch () in
          agree
            (Printf.sprintf "serve (min segment %d)" min_segment)
            (outcome (fun () ->
                 let n = C.serve c s ~width addrs ~mask in
                 List.init n (fun i -> (s.C.bases.(i), s.C.sizes.(i)))))
            (outcome (fun () -> Ref_mem.coalesce c ~width addrs mask)))
        [ 8; 32 ];
      true)

(* --- Global memory lane sets --------------------------------------------- *)

module Memory = Gpu_sim.Memory

let fault_text f =
  match f () with
  | () -> Alcotest.fail "expected a memory fault"
  | exception Memory.Fault m -> m

(* A lane set with two bad lanes faults with the first one's message, in
   lane order, whichever check each one fails; a store that faults has
   written no lane, not even the good lanes before the bad one. *)
let test_lane_set_first_fault () =
  let mem = Memory.create ~bytes:1024 in
  let regs = Bytes.make (8 * 32) '\001' in
  let addrs = Array.init 32 (fun l -> 4 * l) in
  let mask = 0xFFFF in
  let with_bad pairs =
    let a = Array.copy addrs in
    List.iter (fun (l, x) -> a.(l) <- x) pairs;
    a
  in
  let both f a = f mem ~width:4 a ~mask regs ~reg:0 in
  List.iter
    (fun (pairs, want) ->
      Alcotest.(check string) "load" want
        (fault_text (fun () -> both Memory.load_lanes (with_bad pairs)));
      Alcotest.(check string) "store" want
        (fault_text (fun () -> both Memory.store_lanes (with_bad pairs))))
    [
      ( [ (3, 0x102); (7, 0x1000) ],
        "misaligned global memory access at 0x102 (width 4)" );
      ( [ (3, 0x1000); (7, 0x102) ],
        "global memory access at 0x1000 (width 4) outside [0, 0x400)" );
      ( [ (3, 0x3fe); (9, 0x2) ],
        "global memory access at 0x3fe (width 4) outside [0, 0x400)" );
    ];
  (* inactive lanes are never checked *)
  both Memory.load_lanes (with_bad [ (20, 0x1000) ]);
  (* nothing moved: reading the lanes back gives the zeros [create]
     wrote, not the 0x01 bytes of the register row *)
  let back = Bytes.make (8 * 32) '\255' in
  Memory.load_lanes mem ~width:8 (Array.init 32 (fun l -> 8 * l)) ~mask
    back ~reg:0;
  Alcotest.(check bool) "faulting stores wrote nothing" true
    (Bytes.for_all (fun c -> c = '\000') (Bytes.sub back 0 (8 * 16)));
  Memory.poison mem ~addr:0x20 ~width:4;
  Alcotest.(check string) "poison"
    "poisoned global memory transaction at 0x20 (injected fault)"
    (fault_text (fun () -> both Memory.load_lanes (with_bad [ (12, 0x7) ])));
  Alcotest.(check bool) "other widths rejected" true
    (match Memory.load_lanes mem ~width:2 addrs ~mask regs ~reg:0 with
    | () -> false
    | exception Invalid_argument _ -> true)

(* The same through a kernel: lane [t] stores at word [t * t * t] of a
   32-word buffer, so lanes 4 and 5 are out of bounds.  The fault names
   lane 4's address, as the per-lane loop always did, and
   [launch_result] copies nothing back. *)
let test_kernel_first_fault () =
  let module Ir = Gpu_kernel.Ir in
  let k =
    Gpu_kernel.Compile.compile
      {
        Ir.name = "cubes";
        params = [ "x" ];
        shared = [];
        body = [ Ir.St_global ("x", Ir.(Tid * Tid * Tid), Ir.Int 7) ];
      }
  in
  let x = Memory.zeros 32 in
  match
    Gpu_sim.Sim.launch_result ~grid:1 ~block:32 ~args:[ ("x", x) ] k
  with
  | Ok _ -> Alcotest.fail "out-of-bounds lanes did not fault"
  | Error f ->
    Alcotest.(check string) "first bad lane"
      "global memory access at 0x100 (width 4) outside [0, 0x80)"
      f.Gpu_sim.Sim.diag.Gpu_diag.Diag.message;
    Alcotest.(check (array int)) "nothing copied back" (Array.make 32 0)
      (Array.init 32 (Memory.get_int x))

(* --- Cache model --------------------------------------------------------- *)

let test_cache_hits_on_reuse () =
  let c = Cache.create Cache.gt200_texture_l1 in
  ignore (Cache.access c 0);
  Alcotest.(check bool) "second access hits" true (Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Cache.access c 28);
  Alcotest.(check bool) "different line misses" false (Cache.access c 64)

let test_cache_streaming_misses () =
  (* streaming through 4x the cache size: all cold misses *)
  let trace = Array.init 2048 (fun i -> i * 32) in
  Alcotest.(check (float 1e-9)) "no reuse, no hits" 0.0
    (Cache.run Cache.gt200_texture_l1 trace)

let test_cache_lru () =
  let c = Cache.create { Cache.size_bytes = 64; line_bytes = 32; ways = 2 } in
  (* one set of 2 ways when sets = 1 *)
  ignore (Cache.access c 0);
  ignore (Cache.access c 32);
  ignore (Cache.access c 0);
  (* inserting a third line evicts the LRU (32) *)
  ignore (Cache.access c 64);
  Alcotest.(check bool) "0 survives" true (Cache.access c 0);
  Alcotest.(check bool) "32 was evicted" false (Cache.access c 32)

let () =
  Alcotest.run "mem"
    [
      ( "coalescing",
        [
          Alcotest.test_case "dense half-warp" `Quick test_dense_half_warp;
          Alcotest.test_case "single thread" `Quick test_single_thread;
          Alcotest.test_case "strided worst case" `Quick
            test_strided_worst_case;
          Alcotest.test_case "unaligned dense" `Quick test_unaligned_dense;
          Alcotest.test_case "inactive lanes" `Quick test_inactive_lanes;
          Alcotest.test_case "broadcast" `Quick
            test_shared_address_broadcastish;
          Alcotest.test_case "misaligned rejected" `Quick
            test_misaligned_rejected;
          Alcotest.test_case "warp split" `Quick test_warp_split;
          Alcotest.test_case "figure 10 example" `Quick test_figure10;
        ] );
      ( "coalescing properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_coverage;
            prop_disjoint;
            prop_aligned_sizes;
            prop_finer_granularity_never_moves_more;
          ] );
      ( "bank conflicts",
        [
          Alcotest.test_case "conflict-free" `Quick test_conflict_free;
          Alcotest.test_case "broadcast" `Quick test_broadcast;
          Alcotest.test_case "figure 5 strides" `Quick test_figure5_strides;
          Alcotest.test_case "prime banks (Section 5.2)" `Quick
            test_prime_banks_remove_conflicts;
          Alcotest.test_case "warp transactions" `Quick
            test_warp_transactions;
          Alcotest.test_case "wide (64-bit) accesses" `Quick
            test_wide_accesses;
          QCheck_alcotest.to_alcotest prop_conflict_degree_bounds;
        ] );
      ( "atomics",
        [
          Alcotest.test_case "full contention serializes" `Quick
            test_atomic_full_contention;
          Alcotest.test_case "conflict-free stays parallel" `Quick
            test_atomic_conflict_free;
          Alcotest.test_case "k-way duplicates" `Quick
            test_atomic_kway_duplicates;
          Alcotest.test_case "same-bank stride" `Quick
            test_atomic_same_bank_stride;
          Alcotest.test_case "warp split and ideal floor" `Quick
            test_atomic_warp_split;
          Alcotest.test_case "negative addresses rejected" `Quick
            test_negative_address_rejected;
          QCheck_alcotest.to_alcotest prop_warp_walkers_match_slices;
          QCheck_alcotest.to_alcotest prop_atomic_bounds;
        ] );
      ( "counting core",
        [
          QCheck_alcotest.to_alcotest prop_core_matches_reference;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 24 |])
            prop_broadcast_shortcut;
        ] );
      ( "global lane sets",
        [
          Alcotest.test_case "first bad lane faults" `Quick
            test_lane_set_first_fault;
          Alcotest.test_case "kernel fault names the first bad lane" `Quick
            test_kernel_first_fault;
        ] );
      ( "cache",
        [
          Alcotest.test_case "reuse hits" `Quick test_cache_hits_on_reuse;
          Alcotest.test_case "streaming misses" `Quick
            test_cache_streaming_misses;
          Alcotest.test_case "LRU eviction" `Quick test_cache_lru;
        ] );
    ]
