(* Kernel intermediate representation: the role CUDA C plays in the paper's
   workflow.  Kernels are structured (if / while / for with explicit
   barriers) over a 1-D grid of 1-D blocks; the compiler lowers them to the
   native ISA, making all address arithmetic and control explicit — the
   "bookkeeping instructions" whose cost the paper's model exposes.

   Values are untyped 32-bit words; integer and floating-point operators
   interpret the bits.  Global arrays are kernel parameters bound at launch;
   shared arrays are declared with a static word count. *)

(* The operators are the ISA's own types, restated as type equations so
   that [Ir.Add] and the other [Ir.] paths keep working; [Compile] emits
   them unchanged. *)

type ibin = Gpu_isa.Instr.ibinop =
  | Add | Sub | Mul24 | Mul | Min | Max | And | Or | Xor | Shl | Shr

type fbin = Gpu_isa.Instr.fbinop = Fadd | Fsub | Fmul | Fmin | Fmax

type sfu = Gpu_isa.Instr.sfu_op = Rcp | Rsqrt | Sin | Cos | Lg2 | Ex2

type cmp = Gpu_isa.Instr.cmp = Eq | Ne | Lt | Le | Gt | Ge

type cmp_type = Gpu_isa.Instr.cmp_type = S32 | F32

type exp =
  | Int of int
  | Float of float
  | Var of string
  | Tid (* thread index within the block *)
  | Ctaid (* block index within the grid *)
  | Ntid (* threads per block *)
  | Nctaid (* blocks in the grid *)
  | Ibin of ibin * exp * exp
  | Imad of exp * exp * exp (* a*b + c, 24-bit multiply *)
  | Fbin of fbin * exp * exp
  | Fmad of exp * exp * exp (* a*b + c, fused, single precision *)
  | Sfu of sfu * exp
  | I2f of exp
  | F2i of exp (* truncating *)
  | Select of cond * exp * exp
  | Ld_global of string * exp (* array parameter, word index *)
  | Ld_shared of string * exp (* shared array, word index *)
  | Shared_addr of string * exp
    (* byte address of element [exp] of a shared array: tuned kernels keep
       such pointers in registers so inner-loop accesses fold the varying
       part into the instruction's immediate offset *)
  | Ld_shared_at of exp * int (* byte address, extra byte offset *)
  | Global_addr of string * exp
    (* byte address of element [exp] of a global array parameter *)
  | Ld_global_at of exp * int (* global byte address, extra byte offset *)
  | Fmad_at of exp * exp * int * exp
    (* [Fmad_at (a, addr, off, c)] = a * shared[addr + off] + c as a single
       fused instruction (the GT200 MAD-with-shared-operand) *)

and cond = Cmp of cmp * cmp_type * exp * exp

type atomic = Atomic_add | Atomic_min | Atomic_max
(* CAS stays ISA-only: structured kernels express read-modify-write
   reductions, and those three cover the paper-era workloads *)

type stmt =
  | Let of string * exp (* immutable binding, scoped to the block *)
  | Local of string * exp (* mutable local with initial value *)
  | Assign of string * exp (* update of a [Local] *)
  | St_global of string * exp * exp (* array, word index, value *)
  | St_shared of string * exp * exp
  | Atom_shared of atomic * string * exp * exp
    (* atomic read-modify-write of shared[idx]: serializes under
       same-word contention, the fourth cost class *)
  | If of cond * stmt list * stmt list
  | While of cond * stmt list
  | For of string * exp * exp * stmt list
    (* [For (i, lo, hi, body)] runs body for i = lo .. hi-1 *)
  | Sync (* block-wide barrier *)

type t = {
  name : string;
  params : string list; (* global array parameters, in binding order *)
  shared : (string * int) list; (* shared arrays: name, size in words *)
  body : stmt list;
}

(* --- Convenience constructors (the embedded DSL surface) -------------- *)

let i n = Int n
let f x = Float x
let v name = Var name
let ( + ) a b = Ibin (Add, a, b)
let ( - ) a b = Ibin (Sub, a, b)
let ( * ) a b = Ibin (Mul24, a, b)
let ( lsl ) a b = Ibin (Shl, a, b)
let ( lsr ) a b = Ibin (Shr, a, b)
let ( land ) a b = Ibin (And, a, b)
let ( +. ) a b = Fbin (Fadd, a, b)
let ( -. ) a b = Fbin (Fsub, a, b)
let ( *. ) a b = Fbin (Fmul, a, b)
let fmad a b c = Fmad (a, b, c)
let shared_addr arr idx = Shared_addr (arr, idx)
let fmad_at a addr off c = Fmad_at (a, addr, off, c)
let global_addr arr idx = Global_addr (arr, idx)
let ld_global_at addr off = Ld_global_at (addr, off)
let imad a b c = Imad (a, b, c)
let atomic_add arr idx value = Atom_shared (Atomic_add, arr, idx, value)
let ( < ) a b = Cmp (Lt, S32, a, b)
let ( <= ) a b = Cmp (Le, S32, a, b)
let ( > ) a b = Cmp (Gt, S32, a, b)
let ( >= ) a b = Cmp (Ge, S32, a, b)
let ( = ) a b = Cmp (Eq, S32, a, b)
let ( <> ) a b = Cmp (Ne, S32, a, b)
let ( <. ) a b = Cmp (Lt, F32, a, b)
