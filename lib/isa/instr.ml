(* Native GT200-class instruction set.

   This is the OCaml analog of the (undocumented) NVIDIA GT200 machine ISA
   that the paper accesses through Decuda.  It is a scalar, predicated,
   three-address SIMT instruction set.  The paper's Table 1 classifies
   instructions into four cost classes by the number of functional units an
   SM provides for them; [cost_class] reproduces that classification. *)

type cost_class =
  | Class_i (* 10 units: single-precision multiply *)
  | Class_ii (* 8 units: mov, add, mad and other simple ALU ops *)
  | Class_iii (* 4 units: transcendental / SFU ops *)
  | Class_iv (* 1 unit: double precision *)
  | Class_mem (* memory instructions: timed by the memory pipelines *)
  | Class_ctrl (* control: barriers, exits *)

type reg = R of int

type pred = P of int

(* Register-file bounds: a thread names at most [num_regs] general-purpose
   and [num_preds] predicate registers.  The assembler, the image decoder
   and the simulator all enforce them. *)
let num_regs = 4096

let num_preds = 4

(* Special (read-only) registers exposing the launch geometry to a thread. *)
type sreg =
  | Tid_x
  | Ntid_x
  | Ctaid_x
  | Nctaid_x
  | Laneid
  | Warpid

type operand =
  | Reg of reg
  | Imm of int32 (* integer immediate *)
  | Fimm of float (* single-precision immediate (stored rounded) *)

type ibinop =
  | Add
  | Sub
  | Mul24 (* 24-bit multiply: the GT200 fast integer multiply *)
  | Mul
  | Min
  | Max
  | And
  | Or
  | Xor
  | Shl
  | Shr

type fbinop = Fadd | Fsub | Fmul | Fmin | Fmax

type dbinop = Dadd | Dmul

type sfu_op = Rcp | Rsqrt | Sin | Cos | Lg2 | Ex2

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type cmp_type = S32 | F32

type cvt_op = I2f | F2i | F2i_rni (* round to nearest int *)

type atomic_op = Aadd | Amin | Amax | Acas

type space = Global | Shared

(* A memory address is [base register + byte offset].  Width is in bytes:
   4 for 32-bit words, 8 for double words. *)
type maddr = { base : reg; offset : int }

type op =
  | Mov of reg * operand
  | Mov_sreg of reg * sreg
  | Iop of ibinop * reg * operand * operand
  | Imad of reg * operand * operand * operand (* dst <- a*b + c, 24-bit mul *)
  | Fop of fbinop * reg * operand * operand
  | Fmad of reg * operand * operand * operand (* dst <- a*b + c, fp32 *)
  | Fmad_smem of reg * operand * maddr * operand
    (* dst <- a * shared[addr] + c: the GT200 MAD reads one operand
       directly from shared memory, which is what lets tuned kernels issue
       one instruction per multiply-add while still generating a shared
       transaction *)
  | Dop of dbinop * reg * operand * operand (* fp64: the Class IV ops *)
  | Dfma of reg * operand * operand * operand
  | Sfu of sfu_op * reg * operand
  | Cvt of cvt_op * reg * operand
  | Setp of cmp * cmp_type * pred * operand * operand
  | Selp of reg * operand * operand * pred (* dst <- p ? a : b *)
  | Ld of space * int * reg * maddr (* width, dst, address *)
  | St of space * int * maddr * operand (* width, address, src *)
  | Atom of atomic_op * reg * maddr * operand * operand option
    (* shared-memory 32-bit read-modify-write: dst <- old shared[addr];
       shared[addr] <- op(old, src).  The trailing operand is the CAS swap
       value ([Some] iff the op is [Acas]: shared[addr] <- old = src ?
       swap : old).  Lanes of a warp hitting the same word serialize —
       the contention the atomic cost class charges for. *)
  | Bra of string (* unconditional branch to label *)
  | Bra_pred of pred * bool * string * string
    (* [Bra_pred (p, sense, target, reconv)]: branch to [target] for lanes
       where [p = sense]; [reconv] labels the immediate post-dominator where
       divergent lanes reconverge (the SSY point of the real hardware). *)
  | Bar (* block-wide barrier: __syncthreads *)
  | Exit

(* An instruction is an optionally predicated operation.  [pred = Some (p,
   sense)] executes the operation only in lanes where [p = sense]. *)
type t = { pred : (pred * bool) option; op : op }

let mk ?pred op = { pred; op }

(* Classification reproducing Table 1 of the paper.  The GT200 SM has 8
   SP cores plus 2 SFUs able to issue single-precision multiplies (10 units
   for class I), 8 units for simple ALU ops (class II), 4 SFU lanes for
   transcendentals (class III) and a single double-precision unit (class
   IV). *)
let classify_op = function
  | Fop (Fmul, _, _, _) -> Class_i
  | Mov _ | Mov_sreg _ | Iop _ | Imad _
  | Fop ((Fadd | Fsub | Fmin | Fmax), _, _, _)
  | Fmad _ | Fmad_smem _ | Cvt _ | Setp _ | Selp _ ->
    Class_ii
  | Sfu _ -> Class_iii
  | Dop _ | Dfma _ -> Class_iv
  | Ld _ | St _ | Atom _ -> Class_mem
  | Bra _ | Bra_pred _ -> Class_ii
  | Bar | Exit -> Class_ctrl

let classify { op; _ } = classify_op op

(* --- Register roles ---------------------------------------------------- *)

type reg_ref = Gpr of reg | Prd of pred

let writes = function
  | Mov (d, _) | Mov_sreg (d, _) | Iop (_, d, _, _) | Imad (d, _, _, _)
  | Fop (_, d, _, _) | Fmad (d, _, _, _) | Fmad_smem (d, _, _, _)
  | Dop (_, d, _, _) | Dfma (d, _, _, _) | Sfu (_, d, _) | Cvt (_, d, _)
  | Selp (d, _, _, _) | Ld (_, _, d, _) | Atom (_, d, _, _, _) ->
    Some (Gpr d)
  | Setp (_, _, p, _, _) -> Some (Prd p)
  | St _ | Bra _ | Bra_pred _ | Bar | Exit -> None

(* The address base first, then register operands in listing order, then
   a predicate operand: the simulator's trace sources are this list
   reversed onto the guard, so the order is part of the trace format. *)
let reads op =
  let opnd a rest =
    match a with Reg r -> Gpr r :: rest | Imm _ | Fimm _ -> rest
  in
  match op with
  | Mov (_, a) | Sfu (_, _, a) | Cvt (_, _, a) -> opnd a []
  | Iop (_, _, a, b) | Fop (_, _, a, b) | Dop (_, _, a, b)
  | Setp (_, _, _, a, b) ->
    opnd a (opnd b [])
  | Imad (_, a, b, c) | Fmad (_, a, b, c) | Dfma (_, a, b, c) ->
    opnd a (opnd b (opnd c []))
  | Fmad_smem (_, a, m, c) -> Gpr m.base :: opnd a (opnd c [])
  | Selp (_, a, b, p) -> opnd a (opnd b [ Prd p ])
  | Ld (_, _, _, m) -> [ Gpr m.base ]
  | St (_, _, m, s) -> Gpr m.base :: opnd s []
  | Atom (_, _, m, s, None) -> Gpr m.base :: opnd s []
  | Atom (_, _, m, s, Some sw) -> Gpr m.base :: opnd s (opnd sw [])
  | Bra_pred (p, _, _, _) -> [ Prd p ]
  | Mov_sreg _ | Bra _ | Bar | Exit -> []

(* --- Spelling tables ---------------------------------------------------

   Each enumeration is spelled once, here: every member beside its
   listing text.  The printer below, the assembler ([Asm]), the image
   codec ([Encode]) and the check-case format read these tables.  A
   table's order is the image format — [Encode] writes a member as its
   row's position — so a new member is appended, never inserted.  Tables
   trade the compiler's exhaustiveness check for a single spelling; the
   tests list every member themselves, so a missing row fails their
   round trips. *)

(* Not in the image: this order is [all_cost_classes]', the order every
   report and histogram lists the classes in. *)
let cost_classes =
  [ (Class_i, "I"); (Class_ii, "II"); (Class_iii, "III"); (Class_iv, "IV");
    (Class_mem, "mem"); (Class_ctrl, "ctrl") ]

let sregs =
  [ (Tid_x, "%tid.x"); (Ntid_x, "%ntid.x"); (Ctaid_x, "%ctaid.x");
    (Nctaid_x, "%nctaid.x"); (Laneid, "%laneid"); (Warpid, "%warpid") ]

let ibinops =
  [ (Add, "add.s32"); (Sub, "sub.s32"); (Mul24, "mul24.s32");
    (Mul, "mul.s32"); (Min, "min.s32"); (Max, "max.s32"); (And, "and.b32");
    (Or, "or.b32"); (Xor, "xor.b32"); (Shl, "shl.b32"); (Shr, "shr.s32") ]

let fbinops =
  [ (Fadd, "add.f32"); (Fsub, "sub.f32"); (Fmul, "mul.f32");
    (Fmin, "min.f32"); (Fmax, "max.f32") ]

let dbinops = [ (Dadd, "add.f64"); (Dmul, "mul.f64") ]

let sfu_ops =
  [ (Rcp, "rcp.f32"); (Rsqrt, "rsqrt.f32"); (Sin, "sin.f32");
    (Cos, "cos.f32"); (Lg2, "lg2.f32"); (Ex2, "ex2.f32") ]

let cmps =
  [ (Eq, "eq"); (Ne, "ne"); (Lt, "lt"); (Le, "le"); (Gt, "gt"); (Ge, "ge") ]

let cmp_types = [ (S32, "s32"); (F32, "f32") ]

let cvt_ops =
  [ (I2f, "cvt.f32.s32"); (F2i, "cvt.s32.f32");
    (F2i_rni, "cvt.rni.s32.f32") ]

let spaces = [ (Global, "global"); (Shared, "shared") ]

let atomic_ops = [ (Aadd, "add"); (Amin, "min"); (Amax, "max"); (Acas, "cas") ]

(* Access widths in bytes.  The image stores the width itself, so this
   table fixes the accepted widths, not their bytes. *)
let widths = [ (4, "b32"); (8, "b64") ]

(* A value no row lists — an access width other than 4 or 8, or a member
   whose row is missing — prints as "?", so the printer never raises. *)
let name table x = Option.value (List.assoc_opt x table) ~default:"?"

let of_name table s =
  List.find_map (fun (x, spelled) -> if spelled = s then Some x else None) table

let cost_class_name = name cost_classes

let all_cost_classes = List.map fst cost_classes

(* --- Pretty-printing in a Decuda-like textual syntax ------------------ *)

let pp_reg ppf (R i) = Fmt.pf ppf "$r%d" i

let pp_pred ppf (P i) = Fmt.pf ppf "$p%d" i

let pp_operand ppf = function
  | Reg r -> pp_reg ppf r
  | Imm i -> Fmt.pf ppf "%ld" i
  | Fimm f -> Fmt.pf ppf "0f%08lX" (Int32.bits_of_float f)

let pp_maddr ppf { base; offset } =
  if offset = 0 then Fmt.pf ppf "[%a]" pp_reg base
  else Fmt.pf ppf "[%a+%d]" pp_reg base offset

let pp_op ppf op =
  let po = pp_operand in
  let op1 m d a = Fmt.pf ppf "%s %a, %a" m pp_reg d po a in
  let op2 m d a b = Fmt.pf ppf "%s %a, %a, %a" m pp_reg d po a po b in
  let op3 m d a b c =
    Fmt.pf ppf "%s %a, %a, %a, %a" m pp_reg d po a po b po c
  in
  match op with
  | Mov (d, s) -> op1 "mov.b32" d s
  | Mov_sreg (d, s) -> Fmt.pf ppf "mov.b32 %a, %s" pp_reg d (name sregs s)
  | Iop (o, d, a, b) -> op2 (name ibinops o) d a b
  | Imad (d, a, b, c) -> op3 "mad24.s32" d a b c
  | Fop (o, d, a, b) -> op2 (name fbinops o) d a b
  | Fmad (d, a, b, c) -> op3 "mad.f32" d a b c
  | Fmad_smem (d, a, m, c) ->
    Fmt.pf ppf "mad.f32 %a, %a, %a, %a" pp_reg d po a pp_maddr m po c
  | Dop (o, d, a, b) -> op2 (name dbinops o) d a b
  | Dfma (d, a, b, c) -> op3 "fma.f64" d a b c
  | Sfu (o, d, a) -> op1 (name sfu_ops o) d a
  | Cvt (o, d, a) -> op1 (name cvt_ops o) d a
  | Setp (c, ty, p, a, b) ->
    Fmt.pf ppf "set.%s.%s %a, %a, %a" (name cmps c) (name cmp_types ty) pp_pred
      p po a po b
  | Selp (d, a, b, p) ->
    Fmt.pf ppf "selp.b32 %a, %a, %a, %a" pp_reg d po a po b pp_pred p
  | Ld (sp, w, d, m) ->
    Fmt.pf ppf "ld.%s.%s %a, %a" (name spaces sp) (name widths w) pp_reg d
      pp_maddr m
  | St (sp, w, m, s) ->
    Fmt.pf ppf "st.%s.%s %a, %a" (name spaces sp) (name widths w) pp_maddr m
      po s
  | Atom (o, d, m, s, swap) -> (
    Fmt.pf ppf "atom.shared.%s.b32 %a, %a, %a" (name atomic_ops o) pp_reg d
      pp_maddr m po s;
    match swap with None -> () | Some sw -> Fmt.pf ppf ", %a" po sw)
  | Bra l -> Fmt.pf ppf "bra %s" l
  | Bra_pred (p, sense, target, reconv) ->
    Fmt.pf ppf "@%s%a bra %s, %s"
      (if sense then "" else "!")
      pp_pred p target reconv
  | Bar -> Fmt.pf ppf "bar.sync 0"
  | Exit -> Fmt.pf ppf "exit"

let pp ppf { pred; op } =
  (match pred with
  | None -> ()
  | Some (p, sense) ->
    Fmt.pf ppf "@%s%a " (if sense then "" else "!") pp_pred p);
  pp_op ppf op

let to_string i = Fmt.str "%a" pp i
