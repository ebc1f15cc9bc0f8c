(** Kernel intermediate representation — the role CUDA C plays in the
    paper's workflow.  Structured kernels (if / while / for, explicit
    barriers) over a 1-D grid of 1-D blocks; {!Compile} lowers them to the
    native ISA with explicit address-arithmetic "bookkeeping" instructions.

    Values are untyped 32-bit words; integer and floating-point operators
    interpret the bits. *)

(** The operators are the ISA's own ({!Gpu_isa.Instr}). *)

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
  | Tid
  | Ctaid
  | Ntid
  | Nctaid
  | Ibin of ibin * exp * exp
  | Imad of exp * exp * exp
  | Fbin of fbin * exp * exp
  | Fmad of exp * exp * exp
  | Sfu of sfu * exp
  | I2f of exp
  | F2i of exp
  | Select of cond * exp * exp
  | Ld_global of string * exp  (** array parameter, word index *)
  | Ld_shared of string * exp  (** shared array, word index *)
  | Shared_addr of string * exp
      (** byte address of element [exp] of a shared array *)
  | Ld_shared_at of exp * int  (** byte address, extra byte offset *)
  | Global_addr of string * exp
      (** byte address of element [exp] of a global array parameter *)
  | Ld_global_at of exp * int  (** global byte address, extra byte offset *)
  | Fmad_at of exp * exp * int * exp
      (** [Fmad_at (a, addr, off, c)] = [a * shared\[addr + off\] + c] as
          one fused GT200-style MAD-with-shared-operand *)

and cond = Cmp of cmp * cmp_type * exp * exp

(** Atomic read-modify-write operators on shared memory (CAS stays
    ISA-only: structured kernels express reductions with these three). *)
type atomic = Atomic_add | Atomic_min | Atomic_max

type stmt =
  | Let of string * exp  (** immutable binding, scoped to enclosing block *)
  | Local of string * exp  (** mutable local with initial value *)
  | Assign of string * exp
  | St_global of string * exp * exp  (** array, word index, value *)
  | St_shared of string * exp * exp
  | Atom_shared of atomic * string * exp * exp
      (** atomic read-modify-write of shared\[idx\]: serializes under
          same-word contention, the fourth cost class *)
  | If of cond * stmt list * stmt list
  | While of cond * stmt list
  | For of string * exp * exp * stmt list
      (** [For (i, lo, hi, body)]: body for i = lo .. hi-1 *)
  | Sync  (** block-wide barrier *)

type t = {
  name : string;
  params : string list;  (** global array parameters, in binding order *)
  shared : (string * int) list;  (** shared arrays: name, size in words *)
  body : stmt list;
}

(** {2 DSL constructors} — designed for local [Ir.(...)] opens; the
    arithmetic and comparison operators shadow the stdlib ones. *)

val i : int -> exp
val f : float -> exp
val v : string -> exp
val ( + ) : exp -> exp -> exp
val ( - ) : exp -> exp -> exp

(** 24-bit integer multiply *)
val ( * ) : exp -> exp -> exp

val ( lsl ) : exp -> exp -> exp
val ( lsr ) : exp -> exp -> exp
val ( land ) : exp -> exp -> exp
val ( +. ) : exp -> exp -> exp
val ( -. ) : exp -> exp -> exp
val ( *. ) : exp -> exp -> exp
val fmad : exp -> exp -> exp -> exp
val shared_addr : string -> exp -> exp
val fmad_at : exp -> exp -> int -> exp -> exp
val global_addr : string -> exp -> exp
val ld_global_at : exp -> int -> exp
val imad : exp -> exp -> exp -> exp
val atomic_add : string -> exp -> exp -> stmt
val ( < ) : exp -> exp -> cond
val ( <= ) : exp -> exp -> cond
val ( > ) : exp -> exp -> cond
val ( >= ) : exp -> exp -> cond
val ( = ) : exp -> exp -> cond
val ( <> ) : exp -> exp -> cond
val ( <. ) : exp -> exp -> cond
