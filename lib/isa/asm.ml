(* Textual assembler for the native ISA: the analog of the cudasm half of
   the Decuda/cudasm package.  Parses the syntax produced by [Instr.pp] /
   [Program.pp], so that listing and reassembling round-trips. *)

exception Parse_error of { line : int; message : string }

let fail ~line message = raise (Parse_error { line; message })

(* --- Tokenizer ------------------------------------------------------- *)

type token =
  | Tword of string (* mnemonic, label or special-register name *)
  | Treg of int
  | Tpred of int
  | Tint of int32
  | Tfloat of float
  | Taddr of Instr.maddr (* a bracketed address, folded by [args] *)
  | Tcomma
  | Tcolon
  | Tlbracket
  | Trbracket
  | Tplus
  | Tat
  | Tbang

let is_word_char c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '_' || c = '.' || c = '%'

let tokenize ~line s =
  let n = String.length s in
  let rec go i acc =
    if i >= n then List.rev acc
    else
      let c = s.[i] in
      if c = ' ' || c = '\t' then go (i + 1) acc
      else if c = '/' && i + 1 < n && s.[i + 1] = '/' then List.rev acc
      else if c = ',' then go (i + 1) (Tcomma :: acc)
      else if c = ':' then go (i + 1) (Tcolon :: acc)
      else if c = '[' then go (i + 1) (Tlbracket :: acc)
      else if c = ']' then go (i + 1) (Trbracket :: acc)
      else if c = '+' then go (i + 1) (Tplus :: acc)
      else if c = '@' then go (i + 1) (Tat :: acc)
      else if c = '!' then go (i + 1) (Tbang :: acc)
      else if c = '$' then begin
        (* $rN or $pN, N inside the register file *)
        if i + 1 >= n then fail ~line "dangling '$'";
        let kind = s.[i + 1] in
        let j = ref (i + 2) in
        while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
        if !j = i + 2 then fail ~line "register number expected";
        let digits = String.sub s (i + 2) (!j - i - 2) in
        let what, bound, tok =
          match kind with
          | 'r' -> ("register", Instr.num_regs, fun num -> Treg num)
          | 'p' -> ("predicate", Instr.num_preds, fun num -> Tpred num)
          | _ -> fail ~line "expected $r or $p"
        in
        match int_of_string_opt digits with
        | Some num when num < bound -> go !j (tok num :: acc)
        | _ ->
          fail ~line (Printf.sprintf "%s index %s out of range" what digits)
      end
      else if c = '-' || (c >= '0' && c <= '9') then begin
        let j = ref (i + 1) in
        while
          !j < n
          && (is_word_char s.[!j] || s.[!j] = 'x' || s.[!j] = 'X')
        do
          incr j
        done;
        let text = String.sub s i (!j - i) in
        let tok =
          if String.length text > 2 && String.sub text 0 2 = "0f" then
            let bits = String.sub text 2 (String.length text - 2) in
            match Int32.of_string_opt ("0x" ^ bits) with
            | Some b -> Tfloat (Int32.float_of_bits b)
            | None -> fail ~line ("bad float literal " ^ text)
          else
            match Int32.of_string_opt text with
            | Some v -> Tint v
            | None -> fail ~line ("bad integer literal " ^ text)
        in
        go !j (tok :: acc)
      end
      else if is_word_char c then begin
        let j = ref (i + 1) in
        while !j < n && is_word_char s.[!j] do incr j done;
        go !j (Tword (String.sub s i (!j - i)) :: acc)
      end
      else fail ~line (Printf.sprintf "unexpected character %C" c)
  in
  go 0 []

(* --- Parser ---------------------------------------------------------- *)

let operand ~line = function
  | Treg r -> Instr.Reg (Instr.R r)
  | Tint v -> Instr.Imm v
  | Tfloat f -> Instr.Fimm f
  | _ -> fail ~line "operand expected"

let reg ~line = function
  | Treg r -> Instr.R r
  | _ -> fail ~line "register expected"

let pred ~line = function
  | Tpred p -> Instr.P p
  | _ -> fail ~line "predicate register expected"

let maddr ~line = function
  | Taddr m -> m
  | _ -> fail ~line "memory address expected"

(* The operands of an instruction: commas dropped, each bracketed address
   folded into one [Taddr]. *)
let rec args = function
  | [] -> []
  | Tcomma :: rest -> args rest
  | Tlbracket :: Treg b :: Trbracket :: rest ->
    Taddr { Instr.base = R b; offset = 0 } :: args rest
  | Tlbracket :: Treg b :: Tplus :: Tint o :: Trbracket :: rest ->
    Taddr { Instr.base = R b; offset = Int32.to_int o } :: args rest
  | t :: rest -> t :: args rest

(* The member of [table] spelled [s]; [what] names the table in the
   error. *)
let member ~line table what s =
  match Instr.of_name table s with
  | Some x -> x
  | None -> fail ~line (Printf.sprintf "unknown %s %s" what s)

(* The [<space>.<width>] suffix [ld] and [st] share. *)
let access ~line space width =
  let sp = member ~line Instr.spaces "memory space" space in
  (sp, member ~line Instr.widths "width" width)

(* Parse the operation given mnemonic and remaining tokens. *)
let parse_op ~line mnemonic rest =
  let a = args rest in
  let op2 f =
    match a with
    | [ d; x; y ] -> f (reg ~line d) (operand ~line x) (operand ~line y)
    | _ -> fail ~line (mnemonic ^ ": two source operands expected")
  in
  let op3 f =
    match a with
    | [ d; x; y; z ] ->
      f (reg ~line d) (operand ~line x) (operand ~line y) (operand ~line z)
    | _ -> fail ~line (mnemonic ^ ": three source operands expected")
  in
  let op1 f =
    match a with
    | [ d; x ] -> f (reg ~line d) (operand ~line x)
    | _ -> fail ~line (mnemonic ^ ": one source operand expected")
  in
  (* mnemonics that spell their operator outright *)
  let named table build () = Option.map build (Instr.of_name table mnemonic) in
  match
    List.find_map
      (fun parse -> parse ())
      Instr.
        [
          named ibinops (fun o -> op2 (fun d x y -> Iop (o, d, x, y)));
          named fbinops (fun o -> op2 (fun d x y -> Fop (o, d, x, y)));
          named dbinops (fun o -> op2 (fun d x y -> Dop (o, d, x, y)));
          named sfu_ops (fun o -> op1 (fun d x -> Sfu (o, d, x)));
          named cvt_ops (fun o -> op1 (fun d x -> Cvt (o, d, x)));
        ]
  with
  | Some op -> op
  | None -> (
    match mnemonic with
    | "mov.b32" -> (
      match a with
      | [ d; Tword w ] ->
        Instr.Mov_sreg
          (reg ~line d, member ~line Instr.sregs "special register" w)
      | [ d; x ] -> Instr.Mov (reg ~line d, operand ~line x)
      | _ -> fail ~line "mov.b32: destination and source expected")
    | "mad24.s32" -> op3 (fun d x y z -> Instr.Imad (d, x, y, z))
    | "mad.f32" -> (
      match a with
      | [ d; x; Taddr m; z ] ->
        Instr.Fmad_smem (reg ~line d, operand ~line x, m, operand ~line z)
      | _ -> op3 (fun d x y z -> Instr.Fmad (d, x, y, z)))
    | "fma.f64" -> op3 (fun d x y z -> Instr.Dfma (d, x, y, z))
    | "selp.b32" -> (
      match a with
      | [ d; x; y; p ] ->
        Instr.Selp (reg ~line d, operand ~line x, operand ~line y, pred ~line p)
      | _ -> fail ~line "selp.b32: dst, a, b, pred expected")
    | "bra" -> (
      match a with
      | [ Tword l ] -> Instr.Bra l
      | _ -> fail ~line "bra: label expected")
    | "bar.sync" -> (
      match a with
      | [] | [ Tint 0l ] -> Instr.Bar
      | _ -> fail ~line "bar.sync: barrier 0 expected")
    | "exit" -> (
      match a with
      | [] -> Instr.Exit
      | _ -> fail ~line "exit: no operands expected")
    | _ -> (
      (* set.<cmp>.<ty> / ld.<space>.<width> / st.<space>.<width> /
         atom.shared.<op>.b32 *)
      match String.split_on_char '.' mnemonic with
      | [ "set"; c; ty ] -> (
        match a with
        | [ p; x; y ] ->
          Instr.Setp
            ( member ~line Instr.cmps "comparison" c,
              member ~line Instr.cmp_types "comparison type" ty,
              pred ~line p,
              operand ~line x,
              operand ~line y )
        | _ -> fail ~line "set: pred, a, b expected")
      | [ "ld"; space; width ] -> (
        let sp, w = access ~line space width in
        match a with
        | [ d; m ] -> Instr.Ld (sp, w, reg ~line d, maddr ~line m)
        | [] -> fail ~line "ld: destination expected"
        | _ -> fail ~line "memory address expected")
      | [ "st"; space; width ] -> (
        let sp, w = access ~line space width in
        match a with
        | [ m; s ] -> Instr.St (sp, w, maddr ~line m, operand ~line s)
        | [] -> fail ~line "st: source expected"
        | _ -> fail ~line "memory address expected")
      | [ "atom"; "shared"; o; "b32" ] -> (
        let o = member ~line Instr.atomic_ops "atomic operation" o in
        let atom d m x swap =
          Instr.Atom (o, reg ~line d, m, operand ~line x, swap)
        in
        match a with
        | [ d; Taddr m; x ] -> atom d m x None
        | [ d; Taddr m; x; y ] -> atom d m x (Some (operand ~line y))
        | _ -> fail ~line "atom: dst, [addr], src expected")
      | _ -> fail ~line ("unknown mnemonic " ^ mnemonic)))

let parse_tokens ~line toks =
  match toks with
  | [] -> None
  | [ Tword l; Tcolon ] -> Some (Program.Label l)
  | Tat :: rest -> (
    (* Predicated instruction or conditional branch. *)
    let sense, rest =
      match rest with
      | Tbang :: r -> (false, r)
      | r -> (true, r)
    in
    match rest with
    | Tpred p :: Tword "bra" :: brest -> (
      match args brest with
      | [ Tword target; Tword reconv ] ->
        Some
          (Program.Instr
             (Instr.mk (Instr.Bra_pred (P p, sense, target, reconv))))
      | _ -> fail ~line "conditional bra: target and reconvergence label \
                         expected")
    | Tpred p :: Tword mnemonic :: irest ->
      let op = parse_op ~line mnemonic irest in
      Some (Program.Instr (Instr.mk ~pred:(P p, sense) op))
    | _ -> fail ~line "predicate expected after '@'")
  | Tword mnemonic :: rest ->
    Some (Program.Instr (Instr.mk (parse_op ~line mnemonic rest)))
  | _ -> fail ~line "label or instruction expected"

let parse_line ~line s = parse_tokens ~line (tokenize ~line s)

let parse_instr s =
  match parse_line ~line:1 s with
  | Some (Program.Instr i) -> i
  | Some (Program.Label _) -> fail ~line:1 "instruction expected, got label"
  | None -> fail ~line:1 "instruction expected, got blank line"

let parse text =
  let lines = String.split_on_char '\n' text in
  let name = ref "kernel" in
  let rev = ref [] in
  List.iteri
    (fun idx raw ->
      let line = idx + 1 in
      let s = String.trim raw in
      if s = "" then ()
      else if String.length s > 7 && String.sub s 0 7 = ".entry " then
        name := String.trim (String.sub s 7 (String.length s - 7))
      else
        match parse_line ~line s with
        | Some l -> rev := l :: !rev
        | None -> ())
    lines;
  Program.of_lines ~name:!name (List.rev !rev)

(* The [Result] face of [parse]: parse errors carry their source line;
   label-resolution errors from [Program.of_lines] concern the whole
   listing and carry no line. *)
let parse_result text =
  let convert = function
    | Parse_error { line; message } ->
      Some
        (Gpu_diag.Diag.make
           ~location:(Gpu_diag.Diag.Line line)
           Gpu_diag.Diag.Error Gpu_diag.Diag.Asm message)
    | Program.Unknown_label l ->
      Some
        (Gpu_diag.Diag.error Gpu_diag.Diag.Asm
           ~hint:"every branch target must be defined as `label:`"
           "branch targets unknown label %s" l)
    | Program.Duplicate_label l ->
      Some (Gpu_diag.Diag.error Gpu_diag.Diag.Asm "duplicate label %s" l)
    | _ -> None
  in
  Gpu_diag.Diag.protect ~stage:Gpu_diag.Diag.Asm ~convert (fun () ->
      parse text)
