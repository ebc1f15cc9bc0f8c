(** Tridiagonal systems solver by cyclic reduction — the paper's
    Section 5.2 case study.  One system per block, n/2 threads, the five
    coefficient arrays in shared memory.  [padded:true] is CR-NBC: one pad
    word per 16 redirects all conflicted accesses to free banks.

    Equation i: a.(i) x.(i-1) + b.(i) x.(i) + c.(i) x.(i+1) = d.(i), with
    a.(0) = c.(n-1) = 0. *)

val threads : n:int -> int

(** Padded word index i + i/16 (identity when unpadded). *)
val pad_int : padded:bool -> int -> int

val shared_words : n:int -> padded:bool -> int

(** The kernel for systems of size [n] (a power of two >= 8). *)
val kernel : n:int -> padded:bool -> Gpu_kernel.Ir.t

(** CPU reference: the Thomas algorithm in double precision. *)
val reference_thomas :
  n:int -> float array -> float array -> float array -> float array ->
  float array

(** A random diagonally dominant system (a, b, c, d) — well-conditioned
    for the single-precision solver. *)
val random_system :
  n:int -> Random.State.t -> float array * float array * float array
  * float array

(** Solve the given systems on the functional simulator; returns the
    solutions flattened system-major. *)
val run_simulated :
  ?spec:Gpu_hw.Spec.t ->
  n:int ->
  padded:bool ->
  (float array * float array * float array * float array) list ->
  float array

(** The workflow input for [nsys] systems of [n] equations (512 x 512 at
    the paper's scale): b = 1 and every other coefficient zero, with a
    2-block sample, exact because blocks are homogeneous. *)
val input : nsys:int -> n:int -> padded:bool -> Gpu_model.Workflow.input

(** [Gpu_model.Workflow.analyze ?spec ?measure (input ~nsys ~n ~padded)],
    for the repository benchmark (perfbench), which calls it; every other
    caller analyses {!input}. *)
val analyze :
  ?spec:Gpu_hw.Spec.t -> ?measure:bool -> nsys:int -> n:int ->
  padded:bool -> unit -> Gpu_model.Workflow.report
