(* Binary codec for kernel programs: the analog of the CUBIN kernel image.
   The format is a compact tagged byte stream; [decode (encode p)] restores
   the program exactly.  The CUBIN generator of the paper (Figure 1) emits
   these images for synthetic microbenchmarks. *)

let magic = "GCUB"

let version = 1

exception Decode_error of string

(* --- Writer ---------------------------------------------------------- *)

let put_u8 b v = Buffer.add_char b (Char.chr (v land 0xff))

let put_i32 b v =
  put_u8 b (Int32.to_int v);
  put_u8 b (Int32.to_int (Int32.shift_right_logical v 8));
  put_u8 b (Int32.to_int (Int32.shift_right_logical v 16));
  put_u8 b (Int32.to_int (Int32.shift_right_logical v 24))

let put_int b v = put_i32 b (Int32.of_int v)

let put_string b s =
  put_int b (String.length s);
  Buffer.add_string b s

let put_operand b = function
  | Instr.Reg (R r) ->
    put_u8 b 0;
    put_int b r
  | Instr.Imm v ->
    put_u8 b 1;
    put_i32 b v
  | Instr.Fimm f ->
    put_u8 b 2;
    put_i32 b (Int32.bits_of_float f)

let put_reg b (Instr.R r) = put_int b r

let put_pred b (Instr.P p) = put_int b p

let put_maddr b (m : Instr.maddr) =
  put_reg b m.base;
  put_int b m.offset

(* An enumeration member is written as its row's position in [Instr]'s
   table for it; decoding reads the row back, so decode stays total. *)

let put_member b table x =
  match List.find_index (fun (y, _) -> y = x) table with
  | Some i -> put_u8 b i
  | None -> invalid_arg "Encode.put_member: no table row"

let put_op b op =
  match op with
  | Instr.Mov (d, s) ->
    put_u8 b 0;
    put_reg b d;
    put_operand b s
  | Instr.Mov_sreg (d, s) ->
    put_u8 b 1;
    put_reg b d;
    put_member b Instr.sregs s
  | Instr.Iop (o, d, x, y) ->
    put_u8 b 2;
    put_member b Instr.ibinops o;
    put_reg b d;
    put_operand b x;
    put_operand b y
  | Instr.Imad (d, x, y, z) ->
    put_u8 b 3;
    put_reg b d;
    put_operand b x;
    put_operand b y;
    put_operand b z
  | Instr.Fop (o, d, x, y) ->
    put_u8 b 4;
    put_member b Instr.fbinops o;
    put_reg b d;
    put_operand b x;
    put_operand b y
  | Instr.Fmad (d, x, y, z) ->
    put_u8 b 5;
    put_reg b d;
    put_operand b x;
    put_operand b y;
    put_operand b z
  | Instr.Dop (o, d, x, y) ->
    put_u8 b 6;
    put_member b Instr.dbinops o;
    put_reg b d;
    put_operand b x;
    put_operand b y
  | Instr.Dfma (d, x, y, z) ->
    put_u8 b 7;
    put_reg b d;
    put_operand b x;
    put_operand b y;
    put_operand b z
  | Instr.Sfu (o, d, x) ->
    put_u8 b 8;
    put_member b Instr.sfu_ops o;
    put_reg b d;
    put_operand b x
  | Instr.Cvt (o, d, x) ->
    put_u8 b 9;
    put_member b Instr.cvt_ops o;
    put_reg b d;
    put_operand b x
  | Instr.Setp (c, ty, p, x, y) ->
    put_u8 b 10;
    put_member b Instr.cmps c;
    put_member b Instr.cmp_types ty;
    put_pred b p;
    put_operand b x;
    put_operand b y
  | Instr.Selp (d, x, y, p) ->
    put_u8 b 11;
    put_reg b d;
    put_operand b x;
    put_operand b y;
    put_pred b p
  | Instr.Ld (sp, w, d, m) ->
    put_u8 b 12;
    put_member b Instr.spaces sp;
    put_u8 b w;
    put_reg b d;
    put_maddr b m
  | Instr.St (sp, w, m, s) ->
    put_u8 b 13;
    put_member b Instr.spaces sp;
    put_u8 b w;
    put_maddr b m;
    put_operand b s
  | Instr.Bra l ->
    put_u8 b 14;
    put_string b l
  | Instr.Bra_pred (p, sense, target, reconv) ->
    put_u8 b 15;
    put_pred b p;
    put_u8 b (if sense then 1 else 0);
    put_string b target;
    put_string b reconv
  | Instr.Bar -> put_u8 b 16
  | Instr.Exit -> put_u8 b 17
  | Instr.Fmad_smem (d, x, m, z) ->
    put_u8 b 18;
    put_reg b d;
    put_operand b x;
    put_maddr b m;
    put_operand b z
  | Instr.Atom (o, d, m, x, swap) -> (
    put_u8 b 19;
    put_member b Instr.atomic_ops o;
    put_reg b d;
    put_maddr b m;
    put_operand b x;
    match swap with
    | None -> put_u8 b 0
    | Some y ->
      put_u8 b 1;
      put_operand b y)

let put_instr b (i : Instr.t) =
  (match i.pred with
  | None -> put_u8 b 0
  | Some (p, sense) ->
    put_u8 b (if sense then 1 else 2);
    put_pred b p);
  put_op b i.op

let encode program =
  let b = Buffer.create 1024 in
  Buffer.add_string b magic;
  put_u8 b version;
  put_string b (Program.name program);
  let labels =
    List.concat_map
      (fun pc ->
        List.map (fun l -> (l, pc)) (Program.labels_at program pc))
      (List.init (Program.length program + 1) Fun.id)
  in
  put_int b (List.length labels);
  List.iter
    (fun (l, pc) ->
      put_string b l;
      put_int b pc)
    labels;
  let code = Program.code program in
  put_int b (Array.length code);
  Array.iter (put_instr b) code;
  Buffer.contents b

(* --- Reader ---------------------------------------------------------- *)

type reader = { data : string; mutable pos : int }

let get_u8 r =
  if r.pos >= String.length r.data then raise (Decode_error "truncated");
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let get_i32 r =
  let b0 = get_u8 r and b1 = get_u8 r and b2 = get_u8 r and b3 = get_u8 r in
  Int32.logor
    (Int32.of_int (b0 lor (b1 lsl 8) lor (b2 lsl 16)))
    (Int32.shift_left (Int32.of_int b3) 24)

let get_int r = Int32.to_int (get_i32 r)

let get_string r =
  let n = get_int r in
  if n < 0 || r.pos + n > String.length r.data then
    raise (Decode_error "bad string length");
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* Range checks on decoded indices: a corrupted image must be rejected
   here, with a byte offset, rather than fault deep inside the simulator
   with a register-file index out of bounds. *)

let get_index what bound r =
  let i = get_int r in
  if i < 0 || i >= bound then
    raise (Decode_error (Printf.sprintf "%s index %d out of range" what i));
  i

let get_reg r = Instr.R (get_index "register" Instr.num_regs r)

let get_pred r = Instr.P (get_index "predicate" Instr.num_preds r)

(* The member of [table] at the position the next byte names. *)
let nth_of what table r =
  let i = get_u8 r in
  match List.nth_opt table i with
  | Some (x, _) -> x
  | None -> raise (Decode_error (Printf.sprintf "bad %s index %d" what i))

let get_operand r =
  match get_u8 r with
  | 0 -> Instr.Reg (get_reg r)
  | 1 -> Instr.Imm (get_i32 r)
  | 2 -> Instr.Fimm (Int32.float_of_bits (get_i32 r))
  | t -> raise (Decode_error (Printf.sprintf "bad operand tag %d" t))

let get_width r =
  let w = get_u8 r in
  if not (List.mem_assoc w Instr.widths) then
    raise (Decode_error (Printf.sprintf "bad access width %d" w));
  w

let get_maddr r =
  let base = get_reg r in
  let offset = get_int r in
  { Instr.base; offset }

let get_op r =
  match get_u8 r with
  | 0 ->
    let d = get_reg r in
    Instr.Mov (d, get_operand r)
  | 1 ->
    let d = get_reg r in
    Instr.Mov_sreg (d, nth_of "sreg" Instr.sregs r)
  | 2 ->
    let o = nth_of "ibinop" Instr.ibinops r in
    let d = get_reg r in
    let x = get_operand r in
    Instr.Iop (o, d, x, get_operand r)
  | 3 ->
    let d = get_reg r in
    let x = get_operand r in
    let y = get_operand r in
    Instr.Imad (d, x, y, get_operand r)
  | 4 ->
    let o = nth_of "fbinop" Instr.fbinops r in
    let d = get_reg r in
    let x = get_operand r in
    Instr.Fop (o, d, x, get_operand r)
  | 5 ->
    let d = get_reg r in
    let x = get_operand r in
    let y = get_operand r in
    Instr.Fmad (d, x, y, get_operand r)
  | 6 ->
    let o = nth_of "dbinop" Instr.dbinops r in
    let d = get_reg r in
    let x = get_operand r in
    Instr.Dop (o, d, x, get_operand r)
  | 7 ->
    let d = get_reg r in
    let x = get_operand r in
    let y = get_operand r in
    Instr.Dfma (d, x, y, get_operand r)
  | 8 ->
    let o = nth_of "sfu" Instr.sfu_ops r in
    let d = get_reg r in
    Instr.Sfu (o, d, get_operand r)
  | 9 ->
    let o = nth_of "cvt" Instr.cvt_ops r in
    let d = get_reg r in
    Instr.Cvt (o, d, get_operand r)
  | 10 ->
    let c = nth_of "cmp" Instr.cmps r in
    let ty = nth_of "cmp_type" Instr.cmp_types r in
    let p = get_pred r in
    let x = get_operand r in
    Instr.Setp (c, ty, p, x, get_operand r)
  | 11 ->
    let d = get_reg r in
    let x = get_operand r in
    let y = get_operand r in
    Instr.Selp (d, x, y, get_pred r)
  | 12 ->
    let sp = nth_of "space" Instr.spaces r in
    let w = get_width r in
    let d = get_reg r in
    Instr.Ld (sp, w, d, get_maddr r)
  | 13 ->
    let sp = nth_of "space" Instr.spaces r in
    let w = get_width r in
    let m = get_maddr r in
    Instr.St (sp, w, m, get_operand r)
  | 14 -> Instr.Bra (get_string r)
  | 15 ->
    let p = get_pred r in
    let sense =
      match get_u8 r with
      | 0 -> false
      | 1 -> true
      | t -> raise (Decode_error (Printf.sprintf "bad branch sense %d" t))
    in
    let target = get_string r in
    Instr.Bra_pred (p, sense, target, get_string r)
  | 16 -> Instr.Bar
  | 17 -> Instr.Exit
  | 18 ->
    let d = get_reg r in
    let x = get_operand r in
    let m = get_maddr r in
    Instr.Fmad_smem (d, x, m, get_operand r)
  | 19 ->
    let o = nth_of "atomic_op" Instr.atomic_ops r in
    let d = get_reg r in
    let m = get_maddr r in
    let x = get_operand r in
    let swap =
      match get_u8 r with
      | 0 -> None
      | 1 -> Some (get_operand r)
      | t -> raise (Decode_error (Printf.sprintf "bad swap tag %d" t))
    in
    Instr.Atom (o, d, m, x, swap)
  | t -> raise (Decode_error (Printf.sprintf "bad op tag %d" t))

let get_instr r =
  let pred =
    match get_u8 r with
    | 0 -> None
    | 1 -> Some (get_pred r, true)
    | 2 -> Some (get_pred r, false)
    | t -> raise (Decode_error (Printf.sprintf "bad predication tag %d" t))
  in
  Instr.mk ?pred (get_op r)

(* A count field larger than the bytes left to parse is corruption: each
   label costs at least 8 bytes, each instruction at least 2.  Checking
   before allocating keeps a corrupted 4-byte count from provoking a
   gigabyte [Array.init] (or the [Invalid_argument] a negative count would
   raise from the stdlib). *)
let get_count r ~what ~min_bytes =
  let n = get_int r in
  let remaining = String.length r.data - r.pos in
  if n < 0 || n * min_bytes > remaining then
    raise
      (Decode_error
         (Printf.sprintf "implausible %s count %d (%d bytes remain)" what n
            remaining));
  n

let decode_reader r =
  let m = Bytes.create 4 in
  for i = 0 to 3 do Bytes.set m i (Char.chr (get_u8 r)) done;
  if Bytes.to_string m <> magic then raise (Decode_error "bad magic");
  let v = get_u8 r in
  if v <> version then
    raise (Decode_error (Printf.sprintf "unsupported version %d" v));
  let name = get_string r in
  let nlabels = get_count r ~what:"label" ~min_bytes:8 in
  let labels =
    List.init nlabels (fun _ ->
        let l = get_string r in
        let pc = get_int r in
        (l, pc))
  in
  let ninstrs = get_count r ~what:"instruction" ~min_bytes:2 in
  List.iter
    (fun (l, pc) ->
      if pc < 0 || pc > ninstrs then
        raise
          (Decode_error
             (Printf.sprintf "label %s at pc %d outside program of %d" l pc
                ninstrs)))
    labels;
  let instrs = Array.init ninstrs (fun _ -> get_instr r) in
  (* Reconstruct the interleaved line list so pcs match. *)
  let lines = ref [] in
  for pc = ninstrs downto 0 do
    if pc < ninstrs then lines := Program.Instr instrs.(pc) :: !lines;
    let here =
      List.filter_map (fun (l, p) -> if p = pc then Some l else None) labels
    in
    List.iter (fun l -> lines := Program.Label l :: !lines) here
  done;
  Program.of_lines ~name !lines

let decode data = decode_reader { data; pos = 0 }

(* The [Result] face of [decode]: the reader's resting position when the
   failure surfaced is the diagnostic's byte offset. *)
let decode_result data =
  let r = { data; pos = 0 } in
  let convert e =
    let located fmt =
      Format.kasprintf
        (fun m ->
          Some
            (Gpu_diag.Diag.make
               ~location:(Gpu_diag.Diag.Byte_offset r.pos)
               ~hint:
                 "the image is corrupt or not a GCUB kernel image; \
                  re-assemble it with `gpuperf asm`"
               Gpu_diag.Diag.Error Gpu_diag.Diag.Disasm m))
        fmt
    in
    match e with
    | Decode_error m -> located "%s" m
    | Program.Unknown_label l -> located "branch targets unknown label %s" l
    | Program.Duplicate_label l -> located "duplicate label %s" l
    | _ -> None
  in
  Gpu_diag.Diag.protect ~stage:Gpu_diag.Diag.Disasm ~convert (fun () ->
      decode_reader r)
