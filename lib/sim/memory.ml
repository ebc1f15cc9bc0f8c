(* Global device memory: a flat byte buffer of 32-bit words addressed by
   byte.  The driver allocates kernel-argument buffers here with 256-byte
   alignment (as cudaMalloc does), which matters for coalescing behavior.

   Words live unboxed in [Bytes] (native byte order; only this module reads
   them back), and 32-bit loads and stores cross the module boundary as
   immediate [int]s, so the interpreter's per-lane accesses allocate
   nothing. *)

external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"
external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

type t = {
  bytes : Bytes.t;
  mutable poisoned : (int * int) list; (* injected-fault byte ranges *)
}

exception Fault of string

let fault fmt = Printf.ksprintf (fun s -> raise (Fault s)) fmt

let create ~bytes =
  if bytes < 0 then invalid_arg "Memory.create";
  { bytes = Bytes.make (4 * ((bytes + 3) / 4)) '\000'; poisoned = [] }

let size_bytes t = Bytes.length t.bytes

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

let check t addr width =
  if addr < 0 || addr + width > size_bytes t then
    fault "global memory access at %#x (width %d) outside [0, %#x)" addr
      width (size_bytes t);
  if addr mod width <> 0 then
    fault "misaligned global memory access at %#x (width %d)" addr width;
  check_poison addr width t.poisoned

let load32 t addr =
  check t addr 4;
  Int32.to_int (get32 t.bytes addr)

let store32 t addr v =
  check t addr 4;
  set32 t.bytes addr (Int32.of_int v)

let load64 t addr =
  check t addr 8;
  let lo = Int64.logand (Int64.of_int32 (get32 t.bytes addr)) 0xFFFF_FFFFL in
  let hi = Int64.of_int32 (get32 t.bytes (addr + 4)) in
  Int64.logor lo (Int64.shift_left hi 32)

let store64 t addr v =
  check t addr 8;
  set32 t.bytes addr (Int64.to_int32 v);
  set32 t.bytes (addr + 4) (Int64.to_int32 (Int64.shift_right_logical v 32))

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

let copy_in t alloc (data : int32 array) =
  if Array.length data <> alloc.length then
    invalid_arg "Memory.copy_in: size mismatch";
  for i = 0 to alloc.length - 1 do
    set32 t.bytes (alloc.base + (4 * i)) data.(i)
  done

(* Only words the kernel changed are written back: an [int32 array] slot
   holds a boxed value, so rewriting every word would allocate one box per
   word of every buffer. *)
let copy_out t alloc (data : int32 array) =
  if Array.length data <> alloc.length then
    invalid_arg "Memory.copy_out: size mismatch";
  for i = 0 to alloc.length - 1 do
    let v = get32 t.bytes (alloc.base + (4 * i)) in
    if v <> data.(i) then data.(i) <- v
  done

(* --- Float views ------------------------------------------------------ *)

let floats_to_words xs = Array.map Int32.bits_of_float xs

let words_to_floats ws = Array.map Int32.float_of_bits ws
