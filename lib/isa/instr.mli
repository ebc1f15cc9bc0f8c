(** Native GT200-class instruction set: the OCaml analog of the machine ISA
    the paper accesses through Decuda.  Scalar, predicated, three-address.

    The paper's Table 1 classifies instructions into four cost classes by
    functional-unit count per SM; {!cost_class} reproduces that
    classification, extended with classes for memory and control
    instructions which are timed by dedicated pipelines. *)

type cost_class =
  | Class_i (** 10 units: single-precision multiply *)
  | Class_ii (** 8 units: mov, add, mad and other simple ALU ops *)
  | Class_iii (** 4 units: transcendental / SFU ops *)
  | Class_iv (** 1 unit: double precision *)
  | Class_mem (** memory instructions, timed by the memory pipelines *)
  | Class_ctrl (** barriers and exits *)

val cost_class_name : cost_class -> string
val all_cost_classes : cost_class list

type reg = R of int
type pred = P of int

(** Register-file bounds: a thread names registers [$r0] to
    [$r(num_regs - 1)] and predicates [$p0] to [$p(num_preds - 1)].  The
    assembler, the image decoder and the simulator all enforce them. *)

val num_regs : int
val num_preds : int

(** Special read-only registers exposing launch geometry (1-D grids). *)
type sreg = Tid_x | Ntid_x | Ctaid_x | Nctaid_x | Laneid | Warpid

type operand =
  | Reg of reg
  | Imm of int32
  | Fimm of float (** single-precision immediate *)

type ibinop = Add | Sub | Mul24 | Mul | Min | Max | And | Or | Xor | Shl | Shr
type fbinop = Fadd | Fsub | Fmul | Fmin | Fmax
type dbinop = Dadd | Dmul
type sfu_op = Rcp | Rsqrt | Sin | Cos | Lg2 | Ex2
type cmp = Eq | Ne | Lt | Le | Gt | Ge
type cmp_type = S32 | F32
type cvt_op = I2f | F2i | F2i_rni

type atomic_op = Aadd | Amin | Amax | Acas

type space = Global | Shared

type maddr = { base : reg; offset : int (** byte offset *) }

type op =
  | Mov of reg * operand
  | Mov_sreg of reg * sreg
  | Iop of ibinop * reg * operand * operand
  | Imad of reg * operand * operand * operand
  | Fop of fbinop * reg * operand * operand
  | Fmad of reg * operand * operand * operand
  | Fmad_smem of reg * operand * maddr * operand
      (** [dst <- a * shared\[addr\] + c]: GT200 MADs may read one operand
          directly from shared memory (one issued instruction, one shared
          access) *)
  | Dop of dbinop * reg * operand * operand
  | Dfma of reg * operand * operand * operand
  | Sfu of sfu_op * reg * operand
  | Cvt of cvt_op * reg * operand
  | Setp of cmp * cmp_type * pred * operand * operand
  | Selp of reg * operand * operand * pred
  | Ld of space * int * reg * maddr (** width in bytes, dst, address *)
  | St of space * int * maddr * operand
  | Atom of atomic_op * reg * maddr * operand * operand option
      (** shared-memory 32-bit read-modify-write:
          [dst <- old shared\[addr\]; shared\[addr\] <- op(old, src)].  The
          trailing operand is the CAS swap value, [Some] iff the op is
          {!Acas}. *)
  | Bra of string
  | Bra_pred of pred * bool * string * string
      (** [Bra_pred (p, sense, target, reconv)]: branch to [target] in lanes
          where [p = sense]; [reconv] is the reconvergence (post-dominator)
          label, the analog of the hardware SSY point. *)
  | Bar (** block-wide barrier: __syncthreads *)
  | Exit

type t = { pred : (pred * bool) option; op : op }

(** [mk ?pred op] builds an instruction, optionally predicated: with
    [pred = Some (p, sense)] the operation executes only in lanes where
    [p = sense]. *)
val mk : ?pred:pred * bool -> op -> t

val classify_op : op -> cost_class
val classify : t -> cost_class
val is_memory : t -> bool
val is_barrier : t -> bool

(** {2 Register roles} *)

type reg_ref = Gpr of reg | Prd of pred

(** The register an operation writes, if any. *)
val writes : op -> reg_ref option

(** The registers an operation reads: the address base, then register
    operands in listing order, then a predicate operand.  An instruction's
    guard is not the operation's: see {!t}. *)
val reads : op -> reg_ref list

(** {2 Spelling tables}

    One table per enumeration, each member beside its listing spelling.
    The printer, {!Asm}, {!Encode} and the check-case format read their
    names here.  The order is the image format: {!Encode} writes a member
    as its row's position, so new members are appended. *)

val cost_classes : (cost_class * string) list
val sregs : (sreg * string) list
val ibinops : (ibinop * string) list
val fbinops : (fbinop * string) list
val dbinops : (dbinop * string) list
val sfu_ops : (sfu_op * string) list
val cvt_ops : (cvt_op * string) list
val cmps : (cmp * string) list
val cmp_types : (cmp_type * string) list
val atomic_ops : (atomic_op * string) list
val spaces : (space * string) list

(** Access widths in bytes: 4 is [b32], 8 is [b64]. *)
val widths : (int * string) list

(** [name table x] is the spelling of [x]; ["?"] when no row lists it
    (an access width other than 4 or 8), so printing never raises. *)
val name : ('a * string) list -> 'a -> string

(** [of_name table s] is the member spelled [s]. *)
val of_name : ('a * string) list -> string -> 'a option

val pp_reg : Format.formatter -> reg -> unit
val pp_pred : Format.formatter -> pred -> unit
val pp_operand : Format.formatter -> operand -> unit
val pp : Format.formatter -> t -> unit

(** Decuda-style textual rendering; parseable back by {!Asm.parse_instr}. *)
val to_string : t -> string
