(* Compiler from the kernel IR to the native ISA — the nvcc analog of the
   paper's workflow (Figure 1).

   Calling convention: registers r0..r(n-1) hold the byte base addresses of
   the n global-array parameters (loaded by the driver at launch); the used
   special registers are materialized next; named variables and expression
   temporaries follow.  There is no spilling: kernels needing more than the
   device register file are rejected, which mirrors how the paper's kernels
   are tuned to explicit register budgets. *)

module I = Gpu_isa.Instr

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

type compiled = {
  program : Gpu_isa.Program.t;
  param_regs : (string * int) list; (* parameter -> base-address register *)
  shared_offsets : (string * int) list; (* shared array -> byte offset *)
  smem_bytes : int;
  reg_demand : int;
  srcmap : string array; (* pc -> IR statement path ("for i > store c[..]") *)
}

(* Which special registers does a kernel body mention? *)
let used_sregs body =
  let tid = ref false
  and ctaid = ref false
  and ntid = ref false
  and nctaid = ref false in
  let rec exp = function
    | Ir.Int _ | Ir.Float _ | Ir.Var _ -> ()
    | Ir.Tid -> tid := true
    | Ir.Ctaid -> ctaid := true
    | Ir.Ntid -> ntid := true
    | Ir.Nctaid -> nctaid := true
    | Ir.Ibin (_, a, b) | Ir.Fbin (_, a, b) -> exp a; exp b
    | Ir.Imad (a, b, c) | Ir.Fmad (a, b, c) -> exp a; exp b; exp c
    | Ir.Sfu (_, a) | Ir.I2f a | Ir.F2i a -> exp a
    | Ir.Select (c, a, b) -> cond c; exp a; exp b
    | Ir.Ld_global (_, idx) | Ir.Ld_shared (_, idx) | Ir.Shared_addr (_, idx)
      ->
      exp idx
    | Ir.Ld_shared_at (a, _) | Ir.Ld_global_at (a, _) -> exp a
    | Ir.Global_addr (_, idx) -> exp idx
    | Ir.Fmad_at (a, addr, _, c) -> exp a; exp addr; exp c
  and cond (Ir.Cmp (_, _, a, b)) = exp a; exp b
  and stmt = function
    | Ir.Let (_, e) | Ir.Local (_, e) | Ir.Assign (_, e) -> exp e
    | Ir.St_global (_, idx, e)
    | Ir.St_shared (_, idx, e)
    | Ir.Atom_shared (_, _, idx, e) ->
      exp idx; exp e
    | Ir.If (c, t, e) -> cond c; List.iter stmt t; List.iter stmt e
    | Ir.While (c, b) -> cond c; List.iter stmt b
    | Ir.For (_, lo, hi, b) -> exp lo; exp hi; List.iter stmt b
    | Ir.Sync -> ()
  in
  List.iter stmt body;
  (!tid, !ctaid, !ntid, !nctaid)

let atomic_op : Ir.atomic -> I.atomic_op = function
  | Ir.Atomic_add -> I.Aadd
  | Ir.Atomic_min -> I.Amin
  | Ir.Atomic_max -> I.Amax

type state = {
  mutable lines : Gpu_isa.Program.line list; (* reversed *)
  mutable srcs : string list; (* reversed, one per emitted instruction *)
  mutable env : (string * int) list; (* variable -> register *)
  mutable var_top : int; (* first register free for temporaries *)
  mutable temps : int; (* temporaries currently live *)
  mutable max_reg : int;
  mutable next_label : int;
  ctx : string list ref; (* innermost-first statement path, for diags *)
  param_regs : (string * int) list;
  shared_offsets : (string * int) list;
  max_registers : int;
}

(* One-word descriptions of statements, composed into the IR path a
   diagnostic reports ("for i > if > store gA[..]"). *)
let stmt_tag : Ir.stmt -> string = function
  | Ir.Let (n, _) -> "let " ^ n
  | Ir.Local (n, _) -> "local " ^ n
  | Ir.Assign (n, _) -> "assign " ^ n
  | Ir.St_global (a, _, _) -> "store " ^ a ^ "[..]"
  | Ir.St_shared (a, _, _) -> "store shared " ^ a ^ "[..]"
  | Ir.Atom_shared (_, a, _, _) -> "atom shared " ^ a ^ "[..]"
  | Ir.If _ -> "if"
  | Ir.While _ -> "while"
  | Ir.For (x, _, _, _) -> "for " ^ x
  | Ir.Sync -> "sync"

(* Labels carry no pc, so the per-instruction source map is tracked here
   and nowhere else: one entry per [emit], aligned with instruction order
   (= pc order after label resolution). *)
let src_of_ctx ctx =
  match ctx with
  | [] -> "<entry>"
  | path -> String.concat " > " (List.rev path)

let emit st op =
  st.lines <- Gpu_isa.Program.Instr (I.mk op) :: st.lines;
  st.srcs <- src_of_ctx !(st.ctx) :: st.srcs

let emit_label st l = st.lines <- Gpu_isa.Program.Label l :: st.lines

let fresh_label st prefix =
  let n = st.next_label in
  st.next_label <- n + 1;
  Printf.sprintf "%s_%d" prefix n

let track st r =
  if r > st.max_reg then st.max_reg <- r;
  if r >= st.max_registers then
    error "kernel needs more than %d registers" st.max_registers

let alloc_temp st =
  let r = st.var_top + st.temps in
  st.temps <- st.temps + 1;
  track st r;
  r

let free_operand st = function
  | I.Reg (I.R r) when r >= st.var_top ->
    (* invariant of the temporary stack discipline, not input-reachable:
       frees happen in reverse allocation order *)
    assert (r = st.var_top + st.temps - 1);
    st.temps <- st.temps - 1
  | I.Reg _ | I.Imm _ | I.Fimm _ -> ()

let lookup st name =
  match List.assoc_opt name st.env with
  | Some r -> r
  | None -> error "unbound variable %s" name

let declare st name =
  (* invariant, not input-reachable: statements start with no live temps *)
  assert (st.temps = 0);
  let r = st.var_top in
  st.var_top <- r + 1;
  track st r;
  st.env <- (name, r) :: st.env;
  r

let param_reg st name =
  match List.assoc_opt name st.param_regs with
  | Some r -> r
  | None -> error "unknown global array %s" name

let shared_offset st name =
  match List.assoc_opt name st.shared_offsets with
  | Some o -> o
  | None -> error "unknown shared array %s" name

let pred0 = I.P 0

(* Expression evaluation uses a stack of temporaries above the named
   variables.  Operands are evaluated first; their temporaries are then
   released and the destination allocated, which reuses the lowest operand
   slot (the emitted instruction reads its sources before writing, so a
   destination aliasing a source is fine).  This keeps the temporary
   footprint at the expression's width rather than its depth — register
   budgets are a first-class concern for occupancy (Table 2). *)

(* Release temporaries among [operands] (listed in allocation order). *)
let free_operands st operands =
  List.iter (free_operand st) (List.rev operands)

(* Pick the destination register: the caller-supplied one, or a fresh
   temporary after releasing the operand temporaries. *)
let destination st dst operands =
  match dst with
  | Some d -> d
  | None ->
    free_operands st operands;
    I.R (alloc_temp st)

(* After emitting into a caller-supplied destination, operand temporaries
   still need releasing. *)
let finish st dst operands =
  match dst with Some _ -> free_operands st operands | None -> ()

(* Evaluate [e]; the result lives in [dst] when given, otherwise in an
   immediate operand or a temporary. *)
let rec compute st ?dst (e : Ir.exp) : I.operand =
  match e with
  | Ir.Int n -> leaf st dst (I.Imm (Int32.of_int n))
  | Ir.Float x -> leaf st dst (I.Fimm x)
  | Ir.Var name -> leaf st dst (I.Reg (I.R (lookup st name)))
  | Ir.Tid -> leaf st dst (I.Reg (I.R (lookup st "%tid")))
  | Ir.Ctaid -> leaf st dst (I.Reg (I.R (lookup st "%ctaid")))
  | Ir.Ntid -> leaf st dst (I.Reg (I.R (lookup st "%ntid")))
  | Ir.Nctaid -> leaf st dst (I.Reg (I.R (lookup st "%nctaid")))
  | Ir.Ibin (op, a, b) ->
    let oa = compute st a in
    let ob = compute st b in
    let d = destination st dst [ oa; ob ] in
    emit st (I.Iop (op, d, oa, ob));
    finish st dst [ oa; ob ];
    I.Reg d
  | Ir.Fbin (op, a, b) ->
    let oa = compute st a in
    let ob = compute st b in
    let d = destination st dst [ oa; ob ] in
    emit st (I.Fop (op, d, oa, ob));
    finish st dst [ oa; ob ];
    I.Reg d
  | Ir.Imad (a, b, c) ->
    let oa = compute st a in
    let ob = compute st b in
    let oc = compute st c in
    let d = destination st dst [ oa; ob; oc ] in
    emit st (I.Imad (d, oa, ob, oc));
    finish st dst [ oa; ob; oc ];
    I.Reg d
  | Ir.Fmad (a, b, c) ->
    let oa = compute st a in
    let ob = compute st b in
    let oc = compute st c in
    let d = destination st dst [ oa; ob; oc ] in
    emit st (I.Fmad (d, oa, ob, oc));
    finish st dst [ oa; ob; oc ];
    I.Reg d
  | Ir.Sfu (op, a) ->
    let oa = compute st a in
    let d = destination st dst [ oa ] in
    emit st (I.Sfu (op, d, oa));
    finish st dst [ oa ];
    I.Reg d
  | Ir.I2f a ->
    let oa = compute st a in
    let d = destination st dst [ oa ] in
    emit st (I.Cvt (I.I2f, d, oa));
    finish st dst [ oa ];
    I.Reg d
  | Ir.F2i a ->
    let oa = compute st a in
    let d = destination st dst [ oa ] in
    emit st (I.Cvt (I.F2i, d, oa));
    finish st dst [ oa ];
    I.Reg d
  | Ir.Select (c, a, b) ->
    (* Operands first, condition last: the predicate register is shared and
       must be set immediately before its consumer. *)
    let oa = compute st a in
    let ob = compute st b in
    set_cond st c;
    let d = destination st dst [ oa; ob ] in
    emit st (I.Selp (d, oa, ob, pred0));
    finish st dst [ oa; ob ];
    I.Reg d
  | Ir.Ld_global (arr, idx) -> (
    let base = param_reg st arr in
    match idx with
    | Ir.Int n ->
      let d = destination st dst [] in
      emit st (I.Ld (I.Global, 4, d, { I.base = I.R base; offset = 4 * n }));
      I.Reg d
    | _ ->
      let oi = compute st idx in
      free_operands st [ oi ];
      let addr = I.R (alloc_temp st) in
      emit st (I.Imad (addr, oi, I.Imm 4l, I.Reg (I.R base)));
      free_operand st (I.Reg addr);
      let d = destination st dst [] in
      emit st (I.Ld (I.Global, 4, d, { I.base = addr; offset = 0 }));
      I.Reg d)
  | Ir.Ld_shared (arr, idx) -> (
    let off = shared_offset st arr in
    match idx with
    | Ir.Int n ->
      let addr = I.R (alloc_temp st) in
      emit st (I.Mov (addr, I.Imm (Int32.of_int (off + (4 * n)))));
      free_operand st (I.Reg addr);
      let d = destination st dst [] in
      emit st (I.Ld (I.Shared, 4, d, { I.base = addr; offset = 0 }));
      I.Reg d
    | _ ->
      let oi = compute st idx in
      free_operands st [ oi ];
      let addr = I.R (alloc_temp st) in
      emit st (I.Imad (addr, oi, I.Imm 4l, I.Imm (Int32.of_int off)));
      free_operand st (I.Reg addr);
      let d = destination st dst [] in
      emit st (I.Ld (I.Shared, 4, d, { I.base = addr; offset = 0 }));
      I.Reg d)
  | Ir.Shared_addr (arr, idx) -> (
    let off = shared_offset st arr in
    match idx with
    | Ir.Int n ->
      let d = destination st dst [] in
      emit st (I.Mov (d, I.Imm (Int32.of_int (off + (4 * n)))));
      I.Reg d
    | _ ->
      let oi = compute st idx in
      let d = destination st dst [ oi ] in
      emit st (I.Imad (d, oi, I.Imm 4l, I.Imm (Int32.of_int off)));
      finish st dst [ oi ];
      I.Reg d)
  | Ir.Global_addr (arr, idx) -> (
    let base = param_reg st arr in
    match idx with
    | Ir.Int n ->
      let d = destination st dst [] in
      emit st
        (I.Iop (I.Add, d, I.Reg (I.R base), I.Imm (Int32.of_int (4 * n))));
      I.Reg d
    | _ ->
      let oi = compute st idx in
      let d = destination st dst [ oi ] in
      emit st (I.Imad (d, oi, I.Imm 4l, I.Reg (I.R base)));
      finish st dst [ oi ];
      I.Reg d)
  | Ir.Ld_global_at (a, off) -> (
    let oa = compute st a in
    match oa with
    | I.Reg base ->
      let d = destination st dst [ oa ] in
      emit st (I.Ld (I.Global, 4, d, { I.base; offset = off }));
      finish st dst [ oa ];
      I.Reg d
    | I.Imm _ | I.Fimm _ -> error "Ld_global_at needs a register address")
  | Ir.Ld_shared_at (a, off) -> (
    let oa = compute st a in
    match oa with
    | I.Reg base ->
      let d = destination st dst [ oa ] in
      emit st (I.Ld (I.Shared, 4, d, { I.base; offset = off }));
      finish st dst [ oa ];
      I.Reg d
    | I.Imm _ | I.Fimm _ -> error "Ld_shared_at needs a register address")
  | Ir.Fmad_at (a, addr, off, c) -> (
    let oa = compute st a in
    let oaddr = compute st addr in
    let oc = compute st c in
    match oaddr with
    | I.Reg base ->
      let d = destination st dst [ oa; oaddr; oc ] in
      emit st (I.Fmad_smem (d, oa, { I.base; offset = off }, oc));
      finish st dst [ oa; oaddr; oc ];
      I.Reg d
    | I.Imm _ | I.Fimm _ -> error "Fmad_at needs a register address")

and leaf st dst o =
  match dst with
  | None -> o
  | Some d ->
    if o <> I.Reg d then emit st (I.Mov (d, o));
    I.Reg d

(* Evaluate a condition into predicate register p0. *)
and set_cond st (Ir.Cmp (op, ty, a, b)) =
  let oa = compute st a in
  let ob = compute st b in
  emit st (I.Setp (op, ty, pred0, oa, ob));
  free_operands st [ oa; ob ]

let eval st e = compute st e

let eval_into st dst e = ignore (compute st ~dst e)

(* Compute the byte address of element [idx] of a memory area. *)
let address st ~base_operand idx =
  match idx with
  | Ir.Int n -> (
    match base_operand with
    | `Reg base -> `Based (base, 4 * n)
    | `Off off ->
      let addr = alloc_temp st in
      emit st (I.Mov (I.R addr, I.Imm (Int32.of_int (off + (4 * n)))));
      `Temp addr)
  | _ ->
    let oi = eval st idx in
    free_operands st [ oi ];
    let addr = alloc_temp st in
    (match base_operand with
    | `Reg base -> emit st (I.Imad (I.R addr, oi, I.Imm 4l, I.Reg (I.R base)))
    | `Off off ->
      emit st (I.Imad (I.R addr, oi, I.Imm 4l, I.Imm (Int32.of_int off))));
    `Temp addr

let release_address st = function
  | `Based _ -> ()
  | `Temp addr -> free_operand st (I.Reg (I.R addr))

let maddr_of = function
  | `Based (base, off) -> { I.base = I.R base; offset = off }
  | `Temp addr -> { I.base = I.R addr; offset = 0 }

let rec compile_stmt st (s : Ir.stmt) =
  (* The context stack needs no unwinding on error: a raised [Error] aborts
     the whole compilation, and [compile_result] reads the stack as the
     diagnostic's IR location. *)
  st.ctx := stmt_tag s :: !(st.ctx);
  compile_stmt_inner st s;
  st.ctx := List.tl !(st.ctx)

and compile_stmt_inner st (s : Ir.stmt) =
  match s with
  | Ir.Let (name, e) | Ir.Local (name, e) ->
    let o = eval st e in
    (match o with
    | I.Reg (I.R r) when r >= st.var_top ->
      (* the result already lives in a fresh temporary: claim it *)
      st.temps <- st.temps - 1;
      (* invariant: the claimed temporary was the expression's only one *)
      assert (st.temps = 0);
      st.var_top <- r + 1;
      st.env <- (name, r) :: st.env
    | _ ->
      free_operand st o;
      let r = declare st name in
      emit st (I.Mov (I.R r, o)))
  | Ir.Assign (name, e) ->
    let r = lookup st name in
    eval_into st (I.R r) e
  | Ir.St_global (arr, idx, value) ->
    let ov = eval st value in
    let a = address st ~base_operand:(`Reg (param_reg st arr)) idx in
    emit st (I.St (I.Global, 4, maddr_of a, ov));
    release_address st a;
    free_operand st ov
  | Ir.St_shared (arr, idx, value) ->
    let ov = eval st value in
    let a = address st ~base_operand:(`Off (shared_offset st arr)) idx in
    emit st (I.St (I.Shared, 4, maddr_of a, ov));
    release_address st a;
    free_operand st ov
  | Ir.Atom_shared (op, arr, idx, value) ->
    (* the statement form discards the returned old value, but the ISA
       instruction still writes it: a short-lived temporary, allocated
       last so the reverse-order free discipline holds *)
    let ov = eval st value in
    let a = address st ~base_operand:(`Off (shared_offset st arr)) idx in
    let d = alloc_temp st in
    emit st (I.Atom (atomic_op op, I.R d, maddr_of a, ov, None));
    free_operand st (I.Reg (I.R d));
    release_address st a;
    free_operand st ov
  | Ir.If (c, then_s, []) ->
    let l_end = fresh_label st "l_end" in
    set_cond st c;
    emit st (I.Bra_pred (pred0, false, l_end, l_end));
    compile_block st then_s;
    emit_label st l_end
  | Ir.If (c, then_s, else_s) ->
    let l_else = fresh_label st "l_else" in
    let l_end = fresh_label st "l_end" in
    set_cond st c;
    emit st (I.Bra_pred (pred0, false, l_else, l_end));
    compile_block st then_s;
    emit st (I.Bra l_end);
    emit_label st l_else;
    compile_block st else_s;
    emit_label st l_end
  | Ir.While (c, body) ->
    let l_head = fresh_label st "l_head" in
    let l_end = fresh_label st "l_end" in
    emit_label st l_head;
    set_cond st c;
    emit st (I.Bra_pred (pred0, false, l_end, l_end));
    compile_block st body;
    emit st (I.Bra l_head);
    emit_label st l_end
  | Ir.For (x, lo, hi, body) ->
    let saved_env = st.env in
    let saved_top = st.var_top in
    let r = declare st x in
    let olo = eval st lo in
    if olo <> I.Reg (I.R r) then emit st (I.Mov (I.R r, olo));
    free_operand st olo;
    let l_head = fresh_label st "l_head" in
    let l_end = fresh_label st "l_end" in
    emit_label st l_head;
    let ohi = eval st hi in
    emit st (I.Setp (I.Lt, I.S32, pred0, I.Reg (I.R r), ohi));
    free_operand st ohi;
    emit st (I.Bra_pred (pred0, false, l_end, l_end));
    compile_block st body;
    emit st (I.Iop (I.Add, I.R r, I.Reg (I.R r), I.Imm 1l));
    emit st (I.Bra l_head);
    emit_label st l_end;
    st.env <- saved_env;
    st.var_top <- saved_top
  | Ir.Sync -> emit st I.Bar

and compile_block st body =
  let saved_env = st.env in
  let saved_top = st.var_top in
  List.iter
    (fun s ->
      (* invariant, not input-reachable: expression temporaries never
         survive the statement that allocated them *)
      assert (st.temps = 0);
      compile_stmt st s)
    body;
  st.env <- saved_env;
  st.var_top <- saved_top

let compile_with ~ctx ~max_registers (k : Ir.t) : compiled =
  let param_regs = List.mapi (fun i name -> (name, i)) k.params in
  (match
     List.find_opt
       (fun (n, _) -> List.length (List.filter (fun (m, _) -> m = n)
                                     param_regs) > 1)
       param_regs
   with
  | Some (n, _) -> error "duplicate parameter %s" n
  | None -> ());
  let shared_offsets, smem_bytes =
    List.fold_left
      (fun (acc, off) (name, words) ->
        if words <= 0 then error "shared array %s has no size" name;
        ((name, off) :: acc, off + (4 * words)))
      ([], 0) k.shared
  in
  let st =
    {
      lines = [];
      srcs = [];
      env = [];
      var_top = List.length k.params;
      temps = 0;
      max_reg = List.length k.params - 1;
      next_label = 0;
      ctx;
      param_regs;
      shared_offsets;
      max_registers;
    }
  in
  (* Materialize the used special registers once, at entry. *)
  let tid, ctaid, ntid, nctaid = used_sregs k.body in
  let materialize used name sreg =
    if used then begin
      let r = declare st name in
      emit st (I.Mov_sreg (I.R r, sreg))
    end
  in
  materialize tid "%tid" I.Tid_x;
  materialize ctaid "%ctaid" I.Ctaid_x;
  materialize ntid "%ntid" I.Ntid_x;
  materialize nctaid "%nctaid" I.Nctaid_x;
  List.iter (compile_stmt st) k.body;
  emit st I.Exit;
  let program = Gpu_isa.Program.of_lines ~name:k.name (List.rev st.lines) in
  {
    program;
    param_regs;
    shared_offsets;
    smem_bytes;
    reg_demand = st.max_reg + 1;
    srcmap = Array.of_list (List.rev st.srcs);
  }

let compile ?(max_registers = 128) k =
  compile_with ~ctx:(ref []) ~max_registers k

(* The [Result] face of [compile]: compilation errors are located by the
   statement path being compiled when they surfaced ("for i > if > let x"),
   the IR-level analog of a source position. *)
let compile_result ?(max_registers = 128) (k : Ir.t) =
  let ctx = ref [] in
  let convert = function
    | Error m ->
      let location =
        match !ctx with
        | [] -> Gpu_diag.Diag.Nowhere
        | path ->
          Gpu_diag.Diag.Ir_site (String.concat " > " (List.rev path))
      in
      Some
        (Gpu_diag.Diag.make ~location Gpu_diag.Diag.Error
           Gpu_diag.Diag.Compile
           (Printf.sprintf "kernel %s: %s" k.name m))
    | _ -> None
  in
  Gpu_diag.Diag.protect ~stage:Gpu_diag.Diag.Compile ~convert (fun () ->
      compile_with ~ctx ~max_registers k)
