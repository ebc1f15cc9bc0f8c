(* Generated kernel cases: the abstract workload shape the checking
   harness fuzzes over.

   A case is a grid of blocks; a block is a fixed number of
   barrier-delimited stages executed by a set of warps; a warp is either
   [Empty] (retires at launch, exercising the slot-return path) or a
   per-stage event list.  Lowering to [Gpu_sim.Trace] inserts one barrier
   event after every stage but the last, so every non-empty warp of a
   block executes the same barrier count — the validity condition CUDA
   imposes and the timing engine's liveness depends on.  A warp whose
   *final* stage is empty ends its trace on the barrier itself and must
   retire from inside the barrier-release path — the shape of the
   barrier/retirement engine bug this harness exists to catch. *)

module I = Gpu_isa.Instr
module Trace = Gpu_sim.Trace

type ev =
  | Alu of { cls : I.cost_class; dst : int; srcs : int array }
  | Smem of { fused : bool; txns : int; dst : int; srcs : int array }
      (** [fused] = arithmetic with a shared operand (Fmad_smem, class II);
          otherwise a plain load/store dispatched through the LSU
          (class mem) *)
  | Atomic of { txns : int; dst : int; srcs : int array }
      (** shared-memory atomic: [txns] is the contention-serialized
          half-warp transaction count *)
  | Gmem of {
      store : bool;
      txns : (int * int) array;  (** (base, size) transactions *)
      dst : int;
      srcs : int array;
    }

type warp = Empty | Stages of ev array array
type block = { nstages : int; warps : warp array }

type t = {
  max_resident : int;
  uniform : bool;
      (** every block has the same shape and every warp of a block the
          same stage structure — the precondition for comparing against
          the throughput model, which assumes a homogeneous grid *)
  blocks : block array;
}

(* --- structure ---------------------------------------------------------- *)

let num_blocks c = Array.length c.blocks

let num_warps c =
  Array.fold_left (fun acc b -> acc + Array.length b.warps) 0 c.blocks

let num_events c =
  Array.fold_left
    (fun acc b ->
      Array.fold_left
        (fun acc -> function
          | Empty -> acc
          | Stages st ->
            Array.fold_left (fun acc evs -> acc + Array.length evs) acc st)
        acc b.warps)
    0 c.blocks

let validate c =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  if c.max_resident < 1 then err "max_resident must be >= 1"
  else if num_blocks c = 0 then err "case has no blocks"
  else
    let problem = ref None in
    Array.iteri
      (fun bi b ->
        if !problem = None then
          if b.nstages < 1 then
            problem := Some (Printf.sprintf "block %d: nstages < 1" bi)
          else if Array.length b.warps = 0 then
            problem := Some (Printf.sprintf "block %d: no warps" bi)
          else
            Array.iteri
              (fun wi -> function
                | Empty -> ()
                | Stages st ->
                  if !problem = None && Array.length st <> b.nstages then
                    problem :=
                      Some
                        (Printf.sprintf
                           "block %d warp %d: %d stages, block declares %d"
                           bi wi (Array.length st) b.nstages))
              b.warps)
      c.blocks;
    match !problem with None -> Ok () | Some m -> Error m

(* --- lowering to engine traces ------------------------------------------ *)

let bar_event =
  {
    Trace.cls = I.Class_ctrl;
    dst = Trace.no_reg;
    srcs = [||];
    mem = Trace.No_mem;
    bar = true;
  }

let event_of_ev = function
  | Alu { cls; dst; srcs } ->
    { Trace.cls; dst; srcs; mem = Trace.No_mem; bar = false }
  | Smem { fused; txns; dst; srcs } ->
    {
      Trace.cls = (if fused then I.Class_ii else I.Class_mem);
      dst;
      srcs;
      mem = Trace.Smem txns;
      bar = false;
    }
  | Atomic { txns; dst; srcs } ->
    {
      Trace.cls = I.Class_mem;
      dst;
      srcs;
      mem = Trace.Smem_atomic txns;
      bar = false;
    }
  | Gmem { store; txns; dst; srcs } ->
    {
      Trace.cls = I.Class_mem;
      dst;
      srcs;
      mem = (if store then Trace.Gmem_store txns else Trace.Gmem_load txns);
      bar = false;
    }

let warp_trace = function
  | Empty -> [||]
  | Stages stages ->
    let n = Array.length stages in
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun k evs ->
              let evs = Array.map event_of_ev evs in
              if k < n - 1 then Array.append evs [| bar_event |] else evs)
            stages))

let traces c =
  Array.mapi
    (fun b (blk : block) ->
      { Trace.block = b; warps = Array.map warp_trace blk.warps })
    c.blocks

(* --- pretty-printing ----------------------------------------------------- *)

let pp_ints ppf a =
  if Array.length a = 0 then Fmt.string ppf "-"
  else
    Fmt.(array ~sep:(any ",") int) ppf a

let pp_ev ppf = function
  | Alu { cls; dst; srcs } ->
    Fmt.pf ppf "alu %s dst=%d srcs=%a" (I.cost_class_name cls) dst pp_ints
      srcs
  | Smem { fused; txns; dst; srcs } ->
    Fmt.pf ppf "smem %s txns=%d dst=%d srcs=%a"
      (if fused then "fused" else "plain")
      txns dst pp_ints srcs
  | Atomic { txns; dst; srcs } ->
    Fmt.pf ppf "atomic txns=%d dst=%d srcs=%a" txns dst pp_ints srcs
  | Gmem { store; txns; dst; srcs } ->
    Fmt.pf ppf "gmem %s dst=%d srcs=%a txns=%a"
      (if store then "store" else "load")
      dst pp_ints srcs
      Fmt.(array ~sep:(any ",") (pair ~sep:(any ":") int int))
      txns

let pp ppf c =
  Fmt.pf ppf "case: %d blocks, %d warps, %d events, max_resident=%d%s@,"
    (num_blocks c) (num_warps c) (num_events c) c.max_resident
    (if c.uniform then ", uniform" else "");
  Array.iteri
    (fun bi b ->
      Fmt.pf ppf "block %d (%d stages):@," bi b.nstages;
      Array.iteri
        (fun wi w ->
          match w with
          | Empty -> Fmt.pf ppf "  warp %d: empty@," wi
          | Stages st ->
            Fmt.pf ppf "  warp %d:@," wi;
            Array.iteri
              (fun k evs ->
                Fmt.pf ppf "    stage %d: %a@," k
                  Fmt.(array ~sep:(any "; ") pp_ev)
                  evs)
              st)
        b.warps)
    c.blocks

(* --- serialization -------------------------------------------------------
   A line-oriented replayable format: [gpuperf check --replay FILE] parses
   it back.  Shrunk reproducers are dumped in this format. *)

let cls_name = I.cost_class_name

let cls_of_name = I.of_name I.cost_classes

let ints_to_string a =
  if Array.length a = 0 then "-"
  else String.concat "," (Array.to_list (Array.map string_of_int a))

let txns_to_string a =
  if Array.length a = 0 then "-"
  else
    String.concat ","
      (Array.to_list
         (Array.map (fun (b, s) -> Printf.sprintf "%d:%d" b s) a))

let to_string c =
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "gpuperf-check-case v1";
  line "max_resident %d" c.max_resident;
  line "uniform %b" c.uniform;
  Array.iter
    (fun b ->
      line "block %d" b.nstages;
      Array.iter
        (function
          | Empty -> line "warp empty"
          | Stages st ->
            line "warp";
            Array.iter
              (fun evs ->
                line "stage";
                Array.iter
                  (function
                    | Alu { cls; dst; srcs } ->
                      line "alu %s %d %s" (cls_name cls) dst
                        (ints_to_string srcs)
                    | Smem { fused; txns; dst; srcs } ->
                      line "smem %s %d %d %s"
                        (if fused then "fused" else "plain")
                        txns dst (ints_to_string srcs)
                    | Atomic { txns; dst; srcs } ->
                      line "atomic %d %d %s" txns dst (ints_to_string srcs)
                    | Gmem { store; txns; dst; srcs } ->
                      line "gmem %s %d %s %s"
                        (if store then "store" else "load")
                        dst (ints_to_string srcs) (txns_to_string txns))
                  evs)
              st)
        b.warps)
    c.blocks;
  line "end";
  Buffer.contents buf

exception Parse of string

let parse_ints s =
  if s = "-" then [||]
  else
    Array.of_list
      (List.map
         (fun tok ->
           match int_of_string_opt tok with
           | Some n -> n
           | None -> raise (Parse ("bad integer list element: " ^ tok)))
         (String.split_on_char ',' s))

let parse_txns s =
  if s = "-" then [||]
  else
    Array.of_list
      (List.map
         (fun tok ->
           match String.split_on_char ':' tok with
           | [ b; sz ] -> (
             match (int_of_string_opt b, int_of_string_opt sz) with
             | Some b, Some sz -> (b, sz)
             | _ -> raise (Parse ("bad transaction: " ^ tok)))
           | _ -> raise (Parse ("bad transaction: " ^ tok)))
         (String.split_on_char ',' s))

(* Mutable accumulators, flushed bottom-up: events into the open stage,
   stages into the open warp, warps into the open block. *)
let of_string s =
  let lines =
    String.split_on_char '\n' s
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  try
    let max_resident = ref 1 in
    let uniform = ref false in
    let blocks = ref [] in
    let cur_nstages = ref None in
    (* None = no open block *)
    let cur_warps = ref [] in
    let warp_open = ref false in
    let cur_stages = ref [] in
    let stage_open = ref false in
    let cur_evs = ref [] in
    let flush_stage () =
      if !stage_open then begin
        cur_stages := Array.of_list (List.rev !cur_evs) :: !cur_stages;
        cur_evs := [];
        stage_open := false
      end
    in
    let flush_warp () =
      flush_stage ();
      if !warp_open then begin
        cur_warps := Stages (Array.of_list (List.rev !cur_stages)) :: !cur_warps;
        cur_stages := [];
        warp_open := false
      end
    in
    let flush_block () =
      flush_warp ();
      match !cur_nstages with
      | None -> ()
      | Some n ->
        blocks :=
          { nstages = n; warps = Array.of_list (List.rev !cur_warps) }
          :: !blocks;
        cur_warps := [];
        cur_nstages := None
    in
    let ev e =
      if not !stage_open then raise (Parse "event outside a stage");
      cur_evs := e :: !cur_evs
    in
    List.iter
      (fun l ->
        match String.split_on_char ' ' l with
        | [ "gpuperf-check-case"; "v1" ] -> ()
        | [ "max_resident"; n ] -> (
          match int_of_string_opt n with
          | Some n -> max_resident := n
          | None -> raise (Parse ("bad max_resident: " ^ n)))
        | [ "uniform"; b ] -> (
          match bool_of_string_opt b with
          | Some b -> uniform := b
          | None -> raise (Parse ("bad uniform flag: " ^ b)))
        | [ "block"; n ] -> (
          flush_block ();
          match int_of_string_opt n with
          | Some n -> cur_nstages := Some n
          | None -> raise (Parse ("bad block stage count: " ^ n)))
        | [ "warp"; "empty" ] ->
          flush_warp ();
          if !cur_nstages = None then raise (Parse "warp outside a block");
          cur_warps := Empty :: !cur_warps
        | [ "warp" ] ->
          flush_warp ();
          if !cur_nstages = None then raise (Parse "warp outside a block");
          warp_open := true
        | [ "stage" ] ->
          if not !warp_open then raise (Parse "stage outside a warp");
          flush_stage ();
          stage_open := true
        | [ "alu"; cls; dst; srcs ] -> (
          match (cls_of_name cls, int_of_string_opt dst) with
          | Some cls, Some dst -> ev (Alu { cls; dst; srcs = parse_ints srcs })
          | _ -> raise (Parse ("bad alu event: " ^ l)))
        | [ "smem"; fused; txns; dst; srcs ] -> (
          let fused =
            match fused with
            | "fused" -> true
            | "plain" -> false
            | _ -> raise (Parse ("bad smem kind: " ^ fused))
          in
          match (int_of_string_opt txns, int_of_string_opt dst) with
          | Some txns, Some dst ->
            ev (Smem { fused; txns; dst; srcs = parse_ints srcs })
          | _ -> raise (Parse ("bad smem event: " ^ l)))
        | [ "atomic"; txns; dst; srcs ] -> (
          match (int_of_string_opt txns, int_of_string_opt dst) with
          | Some txns, Some dst ->
            ev (Atomic { txns; dst; srcs = parse_ints srcs })
          | _ -> raise (Parse ("bad atomic event: " ^ l)))
        | [ "gmem"; kind; dst; srcs; txns ] -> (
          let store =
            match kind with
            | "store" -> true
            | "load" -> false
            | _ -> raise (Parse ("bad gmem kind: " ^ kind))
          in
          match int_of_string_opt dst with
          | Some dst ->
            ev
              (Gmem
                 { store; txns = parse_txns txns; dst; srcs = parse_ints srcs })
          | _ -> raise (Parse ("bad gmem event: " ^ l)))
        | [ "end" ] -> flush_block ()
        | _ -> raise (Parse ("unrecognized line: " ^ l)))
      lines;
    flush_block ();
    let c =
      {
        max_resident = !max_resident;
        uniform = !uniform;
        blocks = Array.of_list (List.rev !blocks);
      }
    in
    match validate c with Ok () -> Ok c | Error m -> Error m
  with Parse m -> Error m
