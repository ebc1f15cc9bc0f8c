(* Global device memory: a flat byte buffer of 32-bit words addressed by
   byte.  The driver allocates kernel-argument buffers here with 256-byte
   alignment (as cudaMalloc does), which matters for coalescing behavior.

   Words live unboxed in [Bytes] (native byte order; only this module reads
   them back).  The interpreter hands over a warp's whole access — its
   lanes' addresses and the register row — so the per-lane accesses
   allocate nothing and cross no module boundary.  Kernel arguments use
   the same layout ([buffer]), so copying one in or out of device memory
   is one blit, or its recipe run in place. *)

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

type t = {
  bytes : Bytes.t; (* empty when not [backed] *)
  size : int; (* bytes, a multiple of 4 *)
  backed : bool;
  mutable poisoned : (int * int) list; (* injected-fault byte ranges *)
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let words_size name bytes =
  if bytes < 0 then invalid_arg name;
  4 * ((bytes + 3) / 4)

let create ~bytes =
  let size = words_size "Memory.create" bytes in
  { bytes = Bytes.make size '\000'; size; backed = true; poisoned = [] }

(* A statistics launch that loads no global word needs the checks, which
   read only the size and the poisoned ranges, and never the words: a
   count-only access checks its lanes and moves nothing (DESIGN §18,
   "Layout-only device memory"). *)
let layout_only ~bytes =
  let size = words_size "Memory.layout_only" bytes in
  { bytes = Bytes.empty; size; backed = false; poisoned = [] }

let size_bytes t = t.size

(* The words of a memory that has them.  Reaching a layout-only memory's
   words is a bug in whoever chose it, so it raises rather than reading
   zeros. *)
let contents t =
  if not t.backed then
    invalid_arg "Memory: a layout-only memory holds no words";
  t.bytes

(* Fault injection: a poisoned range models a failing memory transaction —
   any access overlapping it traps, the way an Xid/ECC error would surface
   on real hardware.  Used by the fault-injection suite. *)
let poison t ~addr ~width = t.poisoned <- (addr, width) :: t.poisoned

let rec check_poison addr width = function
  | [] -> ()
  | (base, w) :: rest ->
    if addr < base + w && base < addr + width then
      fault "poisoned global memory transaction at %#x (injected fault)" addr;
    check_poison addr width rest

(* [width] is 4 or 8, so the alignment test is a mask, not a division. *)
let check t addr width =
  if addr < 0 || addr + width > size_bytes t then
    fault "global memory access at %#x (width %d) outside [0, %#x)" addr
      width (size_bytes t);
  if addr land (width - 1) <> 0 then
    fault "misaligned global memory access at %#x (width %d)" addr width;
  check_poison addr width t.poisoned

(* --- Lane sets ----------------------------------------------------------- *)

(* Every active lane is checked, in lane order, before any word moves: the
   first bad lane raises with its own message, and a faulting store leaves
   memory as it was. *)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let check_lanes t ~width addrs ~mask =
  if width <> 4 && width <> 8 then
    invalid_arg "Memory: lane access width must be 4 or 8";
  let m = ref mask and lane = ref 0 in
  while !m <> 0 do
    if !m land 1 <> 0 then check t addrs.(!lane) width;
    m := !m lsr 1;
    incr lane
  done

let load_lanes t ~width addrs ~mask regs ~reg =
  let b = contents t in
  check_lanes t ~width addrs ~mask;
  let m = ref mask and lane = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let a = addrs.(!lane) and o = reg + (8 * !lane) in
       let lo = Int64.logand (Int64.of_int32 (get32 b a)) 0xFFFF_FFFFL in
       if width = 8 then
         let hi = Int64.of_int32 (get32 b (a + 4)) in
         set64 regs o (Int64.logor lo (Int64.shift_left hi 32))
       else set64 regs o lo);
    m := !m lsr 1;
    incr lane
  done

let store_lanes t ~width addrs ~mask regs ~reg =
  let b = contents t in
  check_lanes t ~width addrs ~mask;
  let m = ref mask and lane = ref 0 in
  while !m <> 0 do
    (if !m land 1 <> 0 then
       let a = addrs.(!lane) in
       let v = get64 regs (reg + (8 * !lane)) in
       set32 b a (Int64.to_int32 v);
       if width = 8 then
         set32 b (a + 4) (Int64.to_int32 (Int64.shift_right_logical v 32)));
    m := !m lsr 1;
    incr lane
  done

(* --- Argument buffers ---------------------------------------------------- *)

(* A host-side argument: its words in device-memory layout, or, until
   someone reads them, the recipe that writes them.  [write dst off]
   writes every word into [dst] from byte [off], in one loop inside this
   module, so no [int32] or [float] crosses a module boundary per word
   (under [-opaque] without flambda such a crossing boxes); [init], [init2]
   and [gather_floats] call back only for [int]s.  The two-index builders
   hand a layout its outer and inner index, so it needs no division per
   word.

   A launch copies a recipe straight into its device memory and a
   layout-only launch never runs it, so an analysis builds each argument
   word at most once, where the kernel reads it (DESIGN §18, "Argument
   recipes").  The state changes once, from the recipe to its words (or
   to the words a values launch copies out); two host reads that race
   both build equal words, and either may win. *)
type state = Words of Bytes.t | Recipe of (Bytes.t -> int -> unit)

type buffer = { len : int; mutable state : state }

let checked words =
  if words < 0 then invalid_arg "Memory: negative buffer length";
  words

let recipe words write = { len = checked words; state = Recipe write }

let eager words write =
  let b = Bytes.create (4 * checked words) in
  write b 0;
  { len = words; state = Words b }

let length b = b.len

let zeros words =
  recipe words (fun dst off -> Bytes.fill dst off (4 * words) '\000')

let const_float words x =
  let w = Int32.bits_of_float x in
  recipe words (fun dst off ->
      for i = 0 to words - 1 do
        set32 dst (off + (4 * i)) w
      done)

let of_floats xs =
  eager (Array.length xs) (fun dst off ->
      for i = 0 to Array.length xs - 1 do
        set32 dst (off + (4 * i)) (Int32.bits_of_float xs.(i))
      done)

let of_ints xs =
  eager (Array.length xs) (fun dst off ->
      for i = 0 to Array.length xs - 1 do
        set32 dst (off + (4 * i)) (Int32.of_int xs.(i))
      done)

let of_int32s xs =
  eager (Array.length xs) (fun dst off ->
      for i = 0 to Array.length xs - 1 do
        set32 dst (off + (4 * i)) xs.(i)
      done)

let init words f =
  recipe words (fun dst off ->
      for i = 0 to words - 1 do
        set32 dst (off + (4 * i)) (Int32.of_int (f i))
      done)

(* The two-index builders write in tiles of [tile] inner indices, each
   across every outer index: a layout that transposes its source (SpMV's
   blocked ELL reads a 117-float row per inner index) then reads a few
   cache-resident source rows per tile instead of striding over the whole
   source for every outer index.  On the QCD-like matrix (2-vCPU Xeon
   VM) the blocked-ELL gather takes about 25 ms tiled and 54 ms in plain
   storage order. *)
let tile = 64

let grid_words ~outer ~inner =
  if outer < 0 || inner < 0 then invalid_arg "Memory: negative buffer shape";
  outer * inner

let init2 ~outer ~inner f =
  recipe (grid_words ~outer ~inner) (fun dst off ->
      for t = 0 to (inner - 1) / tile do
        let lo = t * tile in
        let hi = min inner (lo + tile) - 1 in
        for o = 0 to outer - 1 do
          let row = off + (4 * o * inner) in
          for i = lo to hi do
            set32 dst (row + (4 * i)) (Int32.of_int (f o i))
          done
        done
      done)

let gather_floats ~outer ~inner src index =
  recipe (grid_words ~outer ~inner) (fun dst off ->
      for t = 0 to (inner - 1) / tile do
        let lo = t * tile in
        let hi = min inner (lo + tile) - 1 in
        for o = 0 to outer - 1 do
          let row = off + (4 * o * inner) in
          for i = lo to hi do
            set32 dst (row + (4 * i)) (Int32.bits_of_float src.(index o i))
          done
        done
      done)

(* The words, built from the recipe on the first host read. *)
let words b =
  match b.state with
  | Words w -> w
  | Recipe write ->
    let w = Bytes.create (4 * b.len) in
    write w 0;
    b.state <- Words w;
    w

let get_int b i =
  if i < 0 || i >= length b then invalid_arg "Memory.get_int";
  Int32.to_int (get32 (words b) (4 * i))

let to_floats b =
  let w = words b in
  let xs = Array.create_float (length b) in
  for i = 0 to Array.length xs - 1 do
    xs.(i) <- Int32.float_of_bits (get32 w (4 * i))
  done;
  xs

let to_int32s b =
  let w = words b in
  Array.init (length b) (fun i -> get32 w (4 * i))

let copy b = { len = b.len; state = Words (Bytes.copy (words b)) }

(* --- Buffer allocation (the driver's cudaMalloc) ---------------------- *)

let alignment = 256

type allocation = { base : int; length : int (* words *) }

(* Lay out buffers back to back with [alignment]-byte aligned bases;
   returns the allocations and the total byte size needed. *)
let layout sizes_in_words =
  let allocs, top =
    List.fold_left
      (fun (acc, off) words ->
        if words < 0 then invalid_arg "Memory.layout: negative size";
        let base = (off + alignment - 1) / alignment * alignment in
        ({ base; length = words } :: acc, base + (4 * words)))
      ([], 0) sizes_in_words
  in
  (List.rev allocs, top)

let copy_in t alloc data =
  if length data <> alloc.length then
    invalid_arg "Memory.copy_in: size mismatch";
  let dst = contents t in
  match data.state with
  | Words w -> Bytes.blit w 0 dst alloc.base (4 * alloc.length)
  | Recipe write -> write dst alloc.base

(* Copying out overwrites every word, so a pending recipe is dropped
   unrun. *)
let copy_out t alloc data =
  if length data <> alloc.length then
    invalid_arg "Memory.copy_out: size mismatch";
  let src = contents t in
  let w =
    match data.state with
    | Words w -> w
    | Recipe _ -> Bytes.create (4 * alloc.length)
  in
  Bytes.blit src alloc.base w 0 (4 * alloc.length);
  data.state <- Words w
