(* Tests for the native ISA: Table 1 classification, the assembler and the
   binary codec (Decuda / cudasm / CUBIN analogs). *)

module I = Gpu_isa.Instr
module P = Gpu_isa.Program

let check = Alcotest.check
let checki = Alcotest.(check int)
let checks = Alcotest.(check string)

(* --- Table 1 classification -------------------------------------------- *)

let r n = I.R n
let rg n = I.Reg (I.R n)

let test_classification () =
  let cls op = I.classify_op op in
  check
    (Alcotest.testable
       (fun ppf c -> Fmt.string ppf (I.cost_class_name c))
       ( = ))
    "fp mul is class I (10 units)" I.Class_i
    (cls (I.Fop (I.Fmul, r 0, rg 1, rg 2)));
  let expect_ii =
    [
      I.Mov (r 0, rg 1);
      I.Mov_sreg (r 0, I.Tid_x);
      I.Iop (I.Add, r 0, rg 1, rg 2);
      I.Imad (r 0, rg 1, rg 2, rg 3);
      I.Fop (I.Fadd, r 0, rg 1, rg 2);
      I.Fmad (r 0, rg 1, rg 2, rg 3);
      I.Fmad_smem (r 0, rg 1, { I.base = r 2; offset = 0 }, rg 3);
      I.Setp (I.Lt, I.S32, I.P 0, rg 1, rg 2);
      I.Selp (r 0, rg 1, rg 2, I.P 0);
      I.Cvt (I.I2f, r 0, rg 1);
    ]
  in
  List.iter
    (fun op ->
      Alcotest.(check bool)
        "mov/add/mad are class II" true
        (I.classify_op op = I.Class_ii))
    expect_ii;
  List.iter
    (fun sfu ->
      Alcotest.(check bool)
        "transcendentals are class III" true
        (I.classify_op (I.Sfu (sfu, r 0, rg 1)) = I.Class_iii))
    [ I.Rcp; I.Rsqrt; I.Sin; I.Cos; I.Lg2; I.Ex2 ];
  Alcotest.(check bool)
    "double precision is class IV" true
    (I.classify_op (I.Dop (I.Dadd, r 0, rg 1, rg 2)) = I.Class_iv);
  Alcotest.(check bool)
    "dfma is class IV" true
    (I.classify_op (I.Dfma (r 0, rg 1, rg 2, rg 3)) = I.Class_iv);
  Alcotest.(check bool)
    "loads are memory class" true
    (I.classify_op (I.Ld (I.Global, 4, r 0, { I.base = r 1; offset = 0 }))
     = I.Class_mem);
  Alcotest.(check bool)
    "barrier is control" true
    (I.classify_op I.Bar = I.Class_ctrl)

let test_units_per_class () =
  let spec = Gpu_hw.Spec.gtx285 in
  checki "class I has 10 units" 10 (Gpu_hw.Spec.units_for spec I.Class_i);
  checki "class II has 8 units" 8 (Gpu_hw.Spec.units_for spec I.Class_ii);
  checki "class III has 4 units" 4 (Gpu_hw.Spec.units_for spec I.Class_iii);
  checki "class IV has 1 unit" 1 (Gpu_hw.Spec.units_for spec I.Class_iv)

(* --- Assembler round-trips --------------------------------------------- *)

let sample_listing =
  ".entry demo\n\
   \  mov.b32 $r0, %tid.x\n\
   \  mad24.s32 $r1, $r0, 4, $r2\n\
   \  mad.f32 $r6, $r4, [$r1+8], $r6\n\
   \  set.lt.s32 $p0, $r0, 16\n\
   \  @!$p0 bra l_else, l_end\n\
   \  ld.shared.b32 $r3, [$r1+64]\n\
   \  add.f32 $r4, $r3, 0f3F800000\n\
   \  bra l_end\n\
   l_else:\n\
   \  mul.f32 $r4, $r3, $r3\n\
   l_end:\n\
   \  st.global.b32 [$r5], $r4\n\
   \  bar.sync 0\n\
   \  exit\n"

let test_asm_round_trip () =
  let p = Gpu_isa.Asm.parse sample_listing in
  let listing = P.to_string p in
  let p2 = Gpu_isa.Asm.parse listing in
  checks "parse-print-parse is stable" listing (P.to_string p2);
  checki "all instructions parsed" 12 (P.length p);
  checks "entry name" "demo" (P.name p)

let test_asm_errors () =
  let bad_label = ".entry k\n  bra nowhere\n" in
  Alcotest.check_raises "unknown label"
    (P.Unknown_label "nowhere")
    (fun () -> ignore (Gpu_isa.Asm.parse bad_label));
  let dup = "l:\nl:\n  exit\n" in
  Alcotest.check_raises "duplicate label" (P.Duplicate_label "l") (fun () ->
      ignore (Gpu_isa.Asm.parse dup));
  Alcotest.(check bool)
    "bad mnemonic raises Parse_error" true
    (try
       ignore (Gpu_isa.Asm.parse "  frobnicate $r1, $r2\n");
       false
     with Gpu_isa.Asm.Parse_error _ -> true);
  (* registers outside the register file, and operands the machine has no
     meaning for, are rejected on their own line rather than assembled
     into an image the decoder refuses or into a different instruction *)
  List.iter
    (fun bad ->
      match Gpu_isa.Asm.parse (".entry k\n" ^ bad ^ "\n  exit\n") with
      | _ -> Alcotest.failf "%s assembled" bad
      | exception Gpu_isa.Asm.Parse_error { line; _ } ->
        checki (bad ^ " rejected on its line") 2 line)
    [
      "  set.lt.s32 $p5, $r0, 1";
      "  mov.b32 $r5000, 1";
      "  mov.b32 $r99999999999999999999, 1";
      "  bar.sync 7";
      "  exit $r1, $r2";
    ]

let test_comments_and_blanks () =
  let p =
    Gpu_isa.Asm.parse "// header comment\n\n  mov.b32 $r0, 5 // five\n  exit\n"
  in
  checki "comments ignored" 2 (P.length p)

(* --- Atomic instructions ------------------------------------------------- *)

let atomic_samples =
  [
    I.Atom (I.Aadd, r 2, { I.base = r 1; offset = 0 }, rg 3, None);
    I.Atom (I.Amin, r 2, { I.base = r 1; offset = 8 }, I.Imm 7l, None);
    I.Atom (I.Amax, r 2, { I.base = r 1; offset = 64 }, rg 3, None);
    I.Atom (I.Acas, r 2, { I.base = r 1; offset = 0 }, rg 3, Some (rg 4));
    I.Atom (I.Acas, r 2, { I.base = r 1; offset = 4 }, I.Imm 0l,
            Some (I.Imm 5l));
  ]

let test_atomic_asm_round_trip () =
  List.iter
    (fun op ->
      let instr = I.mk op in
      let text = I.to_string instr in
      let back = Gpu_isa.Asm.parse_instr text in
      Alcotest.(check bool)
        (Printf.sprintf "%s survives parse-print" text)
        true (back = instr);
      Alcotest.(check bool)
        (Printf.sprintf "%s is memory class" text)
        true
        (I.classify_op op = I.Class_mem))
    atomic_samples

let test_atomic_encode_round_trip () =
  let lines =
    P.Label "entry"
    :: List.map (fun op -> P.Instr (I.mk op)) atomic_samples
    @ [ P.Instr (I.mk I.Exit) ]
  in
  let p = P.of_lines ~name:"atomics" lines in
  let p2 = Gpu_isa.Encode.decode (Gpu_isa.Encode.encode p) in
  checks "binary codec round-trips every atomic opcode" (P.to_string p)
    (P.to_string p2)

(* --- Program utilities -------------------------------------------------- *)

let test_register_demand () =
  let p = Gpu_isa.Asm.parse sample_listing in
  checki "register demand is highest register + 1" 7 (P.register_demand p)

let test_static_histogram () =
  let p = Gpu_isa.Asm.parse sample_listing in
  let h = P.static_histogram p in
  checki "class I count" 1 (List.assoc I.Class_i h);
  checki "mem count" 2 (List.assoc I.Class_mem h);
  checki "ctrl count" 2 (List.assoc I.Class_ctrl h)

let test_target_pc () =
  let p = Gpu_isa.Asm.parse sample_listing in
  checki "l_else points at the mul" 8 (P.target_pc p "l_else");
  checki "l_end points at the store" 9 (P.target_pc p "l_end")

(* --- Property tests: random instruction round-trips -------------------- *)

let gen_reg = QCheck.Gen.(map (fun n -> I.R n) (int_bound 127))

let gen_operand =
  QCheck.Gen.(
    oneof
      [
        map (fun r -> I.Reg r) gen_reg;
        map (fun n -> I.Imm (Int32.of_int n)) (int_range (-100000) 100000);
        map
          (fun n -> I.Fimm (Int32.float_of_bits (Int32.of_int n)))
          (int_range 0 0xFFFFF);
      ])

let gen_maddr =
  QCheck.Gen.(
    map2 (fun b off -> { I.base = b; offset = 4 * off }) gen_reg
      (int_bound 1000))

(* Every constructor and every enumeration member, listed here rather
   than read from [Instr]'s tables, so that a member missing from a table
   fails the round trips below. *)
let gen_op =
  QCheck.Gen.(
    let sregs =
      [ I.Tid_x; I.Ntid_x; I.Ctaid_x; I.Nctaid_x; I.Laneid; I.Warpid ]
    in
    let ibinops =
      [ I.Add; I.Sub; I.Mul24; I.Mul; I.Min; I.Max; I.And; I.Or; I.Xor;
        I.Shl; I.Shr ]
    in
    let fbinops = [ I.Fadd; I.Fsub; I.Fmul; I.Fmin; I.Fmax ] in
    let dbinops = [ I.Dadd; I.Dmul ] in
    let sfus = [ I.Rcp; I.Rsqrt; I.Sin; I.Cos; I.Lg2; I.Ex2 ] in
    let cvts = [ I.I2f; I.F2i; I.F2i_rni ] in
    let cmps = [ I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge ] in
    let cmp_types = [ I.S32; I.F32 ] in
    let spaces = [ I.Global; I.Shared ] in
    let widths = [ 4; 8 ] in
    let gen_pred = map (fun n -> I.P n) (int_bound 3) in
    (* the labels [prop_encode_round_trip]'s programs define *)
    let gen_label = oneofl [ "entry"; "end" ] in
    let op2 build ops =
      let* o = oneofl ops in
      let* d = gen_reg in
      let* a = gen_operand in
      let* b = gen_operand in
      return (build o d a b)
    in
    let op3 build =
      let* d = gen_reg in
      let* a = gen_operand in
      let* b = gen_operand in
      let* c = gen_operand in
      return (build d a b c)
    in
    oneof
      [
        map2 (fun d s -> I.Mov (d, s)) gen_reg gen_operand;
        map2 (fun d s -> I.Mov_sreg (d, s)) gen_reg (oneofl sregs);
        op2 (fun o d a b -> I.Iop (o, d, a, b)) ibinops;
        op3 (fun d a b c -> I.Imad (d, a, b, c));
        op2 (fun o d a b -> I.Fop (o, d, a, b)) fbinops;
        op3 (fun d a b c -> I.Fmad (d, a, b, c));
        (let* d = gen_reg in
         let* a = gen_operand in
         let* m = gen_maddr in
         let* c = gen_operand in
         return (I.Fmad_smem (d, a, m, c)));
        op2 (fun o d a b -> I.Dop (o, d, a, b)) dbinops;
        op3 (fun d a b c -> I.Dfma (d, a, b, c));
        (let* o = oneofl sfus in
         let* d = gen_reg in
         let* a = gen_operand in
         return (I.Sfu (o, d, a)));
        (let* o = oneofl cvts in
         let* d = gen_reg in
         let* a = gen_operand in
         return (I.Cvt (o, d, a)));
        (let* c = oneofl cmps in
         let* ty = oneofl cmp_types in
         let* p = gen_pred in
         let* a = gen_operand in
         let* b = gen_operand in
         return (I.Setp (c, ty, p, a, b)));
        (let* d = gen_reg in
         let* a = gen_operand in
         let* b = gen_operand in
         let* p = gen_pred in
         return (I.Selp (d, a, b, p)));
        (let* sp = oneofl spaces in
         let* w = oneofl widths in
         let* d = gen_reg in
         let* m = gen_maddr in
         return (I.Ld (sp, w, d, m)));
        (let* sp = oneofl spaces in
         let* w = oneofl widths in
         let* m = gen_maddr in
         let* s = gen_operand in
         return (I.St (sp, w, m, s)));
        (let* o = oneofl [ I.Aadd; I.Amin; I.Amax ] in
         let* d = gen_reg in
         let* m = gen_maddr in
         let* x = gen_operand in
         return (I.Atom (o, d, m, x, None)));
        (let* d = gen_reg in
         let* m = gen_maddr in
         let* x = gen_operand in
         let* y = gen_operand in
         return (I.Atom (I.Acas, d, m, x, Some y)));
        map (fun l -> I.Bra l) gen_label;
        (let* p = gen_pred in
         let* sense = bool in
         let* target = gen_label in
         let* reconv = gen_label in
         return (I.Bra_pred (p, sense, target, reconv)));
        return I.Bar;
        return I.Exit;
      ])

let gen_instr =
  QCheck.Gen.(
    let* op = gen_op in
    let* pred =
      oneof
        [
          return None;
          map2
            (fun p sense -> Some (I.P p, sense))
            (int_bound 3) (bool >|= Fun.id);
        ]
    in
    (* branches carry their own predicate, never an instruction guard *)
    match op with
    | I.Bra _ | I.Bra_pred _ -> return (I.mk op)
    | _ -> return (I.mk ?pred op))

let prop_asm_round_trip =
  QCheck.Test.make ~count:500 ~name:"assembler round-trips any instruction"
    (QCheck.make gen_instr)
    (fun instr ->
      let text = I.to_string instr in
      let back = Gpu_isa.Asm.parse_instr text in
      back = instr)

let prop_encode_round_trip =
  QCheck.Test.make ~count:200
    ~name:"binary codec round-trips whole programs"
    (QCheck.make QCheck.Gen.(list_size (int_range 1 40) gen_instr))
    (fun instrs ->
      let lines =
        List.concat
          [
            [ P.Label "entry" ];
            List.map (fun i -> P.Instr i) instrs;
            [ P.Instr (I.mk I.Exit); P.Label "end" ];
          ]
      in
      let p = P.of_lines ~name:"prop" lines in
      let p2 = Gpu_isa.Encode.decode (Gpu_isa.Encode.encode p) in
      P.to_string p2 = P.to_string p && P.name p2 = "prop")

let prop_classification_total =
  QCheck.Test.make ~count:300 ~name:"every instruction classifies"
    (QCheck.make gen_instr)
    (fun instr -> List.mem (I.classify instr) I.all_cost_classes)

let prop_value_roundtrip =
  QCheck.Test.make ~count:500 ~name:"register values round-trip"
    QCheck.(int_range (-1_000_000) 1_000_000)
    (fun n ->
      let module V = Gpu_sim.Value in
      let i = Int32.of_int n in
      let f = Int32.to_float i /. 7.0 in
      V.to_i32 (V.of_i32 i) = i
      && V.to_f32 (V.of_f32 (V.round_f32 f)) = V.round_f32 f
      && V.to_f64 (V.of_f64 f) = f
      && V.to_int (V.of_int n) = n)

let () =
  Alcotest.run "isa"
    [
      ( "classification",
        [
          Alcotest.test_case "table 1 classes" `Quick test_classification;
          Alcotest.test_case "functional units" `Quick test_units_per_class;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "round trip" `Quick test_asm_round_trip;
          Alcotest.test_case "errors" `Quick test_asm_errors;
          Alcotest.test_case "comments" `Quick test_comments_and_blanks;
          Alcotest.test_case "atomic opcodes round-trip" `Quick
            test_atomic_asm_round_trip;
          Alcotest.test_case "atomic binary codec" `Quick
            test_atomic_encode_round_trip;
        ] );
      ( "program",
        [
          Alcotest.test_case "register demand" `Quick test_register_demand;
          Alcotest.test_case "static histogram" `Quick test_static_histogram;
          Alcotest.test_case "label targets" `Quick test_target_pc;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_asm_round_trip;
            prop_encode_round_trip;
            prop_classification_total;
            prop_value_roundtrip;
          ] );
    ]
