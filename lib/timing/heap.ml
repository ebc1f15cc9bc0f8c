(* Binary min-heap of int payloads keyed by integer time: the event queue of
   the timing engine.  Payloads are warp-slot indices into a per-cluster
   table (see [Engine]), so both arrays hold immediates: a sift step is two
   plain int stores, with none of the write barrier ([caml_modify]) that
   storing pointers into a long-lived array costs on every move.

   Both sifts move a hole instead of swapping, and make exactly the
   comparisons of the textbook swap-based heap in the same order, so equal
   keys pop in the same order as they always have: the engine's schedule
   depends on that tie order.

   Every key slot at or beyond [size] holds the sentinel [max_int], so the
   sift-down reads both children of a node with a left child without
   testing whether the right one exists, and picks the smaller with
   [Bool.to_int] instead of a branch (DESIGN §14).  A missing right child
   reads [max_int], which is never strictly below its sibling, so the
   choice and the sinking test come out as the bounds-tested sift's. *)

type t = {
  mutable keys : int array;
  mutable data : int array;
  mutable size : int;
}

let create () =
  { keys = Array.make 64 max_int; data = Array.make 64 0; size = 0 }

let is_empty t = t.size = 0
let size t = t.size

let min_key t =
  if t.size = 0 then invalid_arg "Heap.min_key: empty heap";
  t.keys.(0)

let grow t =
  let n = Array.length t.keys in
  let keys = Array.make (2 * n) max_int in
  let data = Array.make (2 * n) 0 in
  Array.blit t.keys 0 keys 0 n;
  Array.blit t.data 0 data 0 n;
  t.keys <- keys;
  t.data <- data

let add t ~key v =
  if t.size = Array.length t.keys then grow t;
  let keys = t.keys and data = t.data in
  (* the hole starts at the new leaf and rises past every strictly
     greater parent *)
  let i = ref t.size in
  let rising = ref true in
  while !rising && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = keys.(parent) in
    if key < pk then begin
      keys.(!i) <- pk;
      data.(!i) <- data.(parent);
      i := parent
    end
    else rising := false
  done;
  keys.(!i) <- key;
  data.(!i) <- v;
  t.size <- t.size + 1

let pop_min t =
  if t.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let keys = t.keys and data = t.data in
  let top = data.(0) in
  let size = t.size - 1 in
  t.size <- size;
  let key = keys.(size) and v = data.(size) in
  keys.(size) <- max_int;
  if size > 0 then begin
    (* the last element drops from the root into the hole, which sinks
       toward the smaller child while that child is strictly smaller; a
       right child at [size] is the sentinel, so [r <= size] needs no
       test, and a node whose left child is past the end stops *)
    let i = ref 0 and l = ref 1 in
    while !l < size do
      let c = !l + Bool.to_int (keys.(!l + 1) < keys.(!l)) in
      let kc = keys.(c) in
      if kc < key then begin
        keys.(!i) <- kc;
        data.(!i) <- data.(c);
        i := c;
        l := (2 * c) + 1
      end
      else l := size
    done;
    keys.(!i) <- key;
    data.(!i) <- v
  end;
  top

let iter t f =
  for i = 0 to t.size - 1 do
    f t.data.(i) t.keys.(i)
  done

(* Adding one constant to every key keeps every parent at or below its
   children, so the layout stays a valid heap. *)
let shift t d =
  for i = 0 to t.size - 1 do
    t.keys.(i) <- t.keys.(i) + d
  done
