(* Lane sets in the allocation-free form the memory analyzers count:
   byte addresses in an [int array] indexed by lane, plus an [int] bitmask
   of the active lanes (bit [i] set = lane [i] active).  The functional
   simulator stages each warp access into one reused buffer in this form;
   the [int option array] entry points of [Bank] and [Coalesce] convert
   through [of_options] and then run the same counting core. *)

let max_lanes = Sys.int_size

let of_options ~who (addresses : int option array) =
  let n = Array.length addresses in
  if n > max_lanes then
    invalid_arg (Printf.sprintf "%s: more than %d lanes" who max_lanes);
  let a = Array.make n 0 in
  let mask = ref 0 in
  for i = 0 to n - 1 do
    match addresses.(i) with
    | Some x ->
      a.(i) <- x;
      mask := !mask lor (1 lsl i)
    | None -> ()
  done;
  (a, !mask)

let group_mask mask ~start ~group =
  if start >= max_lanes then 0
  else
    let bits = if group >= max_lanes then -1 else (1 lsl group) - 1 in
    (mask lsr start) land bits

let more mask ~start = start < max_lanes && mask lsr start <> 0

let count mask =
  let m = ref mask and n = ref 0 in
  while !m <> 0 do
    n := !n + (!m land 1);
    m := !m lsr 1
  done;
  !n
