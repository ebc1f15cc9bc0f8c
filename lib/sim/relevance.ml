(* Which instructions of a program compute a value that a statistics-only
   launch can observe (DESIGN §18, "Statistics-only simulation").

   The statistics, traces and faults of a run read lane values in three
   places only: the address base of a memory instruction, a guard
   predicate (the enabled-lane mask feeds the active-warp count), and the
   predicate of a conditional branch (the SIMT stack).  Those registers
   are the roots.  One backward dataflow pass over the control-flow graph
   finds every instruction whose result can reach a root:
   - liveness is per lane, and each lane follows one CFG path (pc + 1, a
     branch target, or both for a conditional branch; nothing after
     [Exit]), so reconvergence needs no edge;
   - an unguarded write kills its destination in the lane that runs it;
     a guarded write does not, since its disabled lanes keep the old
     value;
   - an instruction is needed when its destination (register or
     predicate) is live after it, or when it writes a needed memory
     space; the operands of a needed instruction are live before it;
   - memory is one cell per space: a load (or a fused shared MAD, or an
     atomic's old value) with a live destination makes its space needed,
     and then every store and atomic to that space is needed.
   Everything is monotone, so iterating from empty sets to no change
   reaches the least fixpoint.  The sets are bitsets over the program's
   own registers ([max_reg + 1] general registers, then the predicates),
   one word for up to 59 registers. *)

module I = Gpu_isa.Instr

(* Bits per set word: an OCaml [int] has 63.  A literal, so [/] and [mod]
   by it compile to a multiplication; the fixpoint loop uses neither. *)
let word_bits = 63

(* Memory spaces as cells of the needed-space array. *)
let space_index = function I.Global -> 0 | I.Shared -> 1

(* A set per pc: [words] ints at [pc * words] of one array.  Register
   [r] is bit [r], predicate [p] bit [nregs + p]. *)
type sets = { bits : int array; words : int; nregs : int }

let bit s = function I.Gpr (I.R r) -> r | I.Prd (I.P p) -> s.nregs + p

let add s pc r =
  let b = bit s r in
  let k = (pc * s.words) + (b / word_bits) in
  s.bits.(k) <- s.bits.(k) lor (1 lsl (b mod word_bits))

let rec add_all s pc = function
  | [] -> ()
  | r :: rest ->
    add s pc r;
    add_all s pc rest

let needed program =
  let code = Gpu_isa.Program.code program in
  let n = Array.length code in
  let nregs = Gpu_isa.Program.max_reg program + 1 in
  let words = (nregs + I.num_preds + word_bits - 1) / word_bits in
  let sets () = { bits = Array.make (n * words) 0; words; nregs } in
  (* Per pc, as sets: the roots it reads, the operands a needed instance
     reads, its destination, and the destination it kills (none when
     guarded).  Its successors are [succ.(2 pc)] and [succ.(2 pc + 1)]
     (-1: none), and it reads [reads_space] into its destination and
     writes [writes_space] (-1: none). *)
  let roots = sets () and ops = sets () and dst = sets () and kill = sets () in
  let succ = Array.make (2 * n) (-1) in
  let reads_space = Array.make n (-1) and writes_space = Array.make n (-1) in
  (* A successor past the last instruction is a fault, not a path. *)
  let edge j s = if s < n then succ.(j) <- s in
  let target = Gpu_isa.Program.target_pc program in
  for pc = 0 to n - 1 do
    let { I.op; pred } = code.(pc) in
    add_all ops pc (I.reads op);
    (match I.writes op with
    | Some w ->
      add dst pc w;
      if Option.is_none pred then add kill pc w
    | None -> ());
    (match pred with Some (p, _) -> add roots pc (I.Prd p) | None -> ());
    (match op with
    | I.Ld (sp, _, _, _) -> reads_space.(pc) <- space_index sp
    | I.Fmad_smem _ -> reads_space.(pc) <- space_index I.Shared
    | I.St (sp, _, _, _) -> writes_space.(pc) <- space_index sp
    | I.Atom _ ->
      reads_space.(pc) <- space_index I.Shared;
      writes_space.(pc) <- space_index I.Shared
    | _ -> ());
    match op with
    | I.Ld (_, _, _, m)
    | I.Fmad_smem (_, _, m, _)
    | I.St (_, _, m, _)
    | I.Atom (_, _, m, _, _) ->
      add roots pc (I.Gpr m.base);
      edge (2 * pc) (pc + 1)
    | I.Bra l -> edge (2 * pc) (target l)
    | I.Bra_pred (p, _, l, _) ->
      add roots pc (I.Prd p);
      edge (2 * pc) (target l);
      edge ((2 * pc) + 1) (pc + 1)
    | I.Exit -> ()
    | I.Mov _ | I.Mov_sreg _ | I.Iop _ | I.Imad _ | I.Fop _ | I.Fmad _
    | I.Dop _ | I.Dfma _ | I.Sfu _ | I.Cvt _ | I.Setp _ | I.Selp _ | I.Bar ->
      edge (2 * pc) (pc + 1)
  done;
  let roots = roots.bits and ops = ops.bits and dst = dst.bits in
  let kill = kill.bits in
  let live_in = Array.make (n * words) 0 in
  let out = Array.make words 0 in
  let space_needed = [| false; false |] in
  let needed = Array.make n false in
  let changed = ref true in
  while !changed do
    changed := false;
    for pc = n - 1 downto 0 do
      let s1 = succ.(2 * pc) * words and s2 = succ.((2 * pc) + 1) * words in
      let base = pc * words in
      let dst_live = ref false in
      for k = 0 to words - 1 do
        let o =
          (if s1 >= 0 then live_in.(s1 + k) else 0)
          lor if s2 >= 0 then live_in.(s2 + k) else 0
        in
        out.(k) <- o;
        if o land dst.(base + k) <> 0 then dst_live := true
      done;
      let dst_live = !dst_live in
      let r = reads_space.(pc) in
      if dst_live && r >= 0 && not space_needed.(r) then begin
        space_needed.(r) <- true;
        changed := true
      end;
      let w = writes_space.(pc) in
      let need = dst_live || (w >= 0 && space_needed.(w)) in
      needed.(pc) <- need;
      for k = 0 to words - 1 do
        let i = base + k in
        let v =
          roots.(i)
          lor (out.(k) land lnot kill.(i))
          lor if need then ops.(i) else 0
        in
        if v <> live_in.(i) then begin
          live_in.(i) <- v;
          changed := true
        end
      done
    done
  done;
  needed
