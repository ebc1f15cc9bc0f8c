(* Tests for the kernel IR compiler (the nvcc analog): generated code
   shape, register allocation, error handling, and a differential property
   test of compiled arithmetic against a direct OCaml evaluator. *)

module Ir = Gpu_kernel.Ir
module Compile = Gpu_kernel.Compile
module I = Gpu_isa.Instr

let compile = Compile.compile

let run_scalar_kernel k args =
  (* one thread, one block *)
  let compiled = compile k in
  let r = Gpu_sim.Sim.launch ~grid:1 ~block:1 ~args compiled in
  ignore r

let test_saxpy_shape () =
  let k =
    compile
      {
        Ir.name = "saxpy";
        params = [ "x"; "y" ];
        shared = [];
        body =
          [
            Ir.Let ("gid", Ir.(imad Ctaid Ntid Tid));
            Ir.St_global
              ( "y",
                Ir.v "gid",
                Ir.fmad (Ir.f 2.0)
                  (Ir.Ld_global ("x", Ir.v "gid"))
                  (Ir.Ld_global ("y", Ir.v "gid")) );
          ];
      }
  in
  let h = Gpu_isa.Program.static_histogram k.Compile.program in
  Alcotest.(check int) "three memory instructions" 3
    (List.assoc I.Class_mem h);
  Alcotest.(check bool) "modest register demand" true
    (k.Compile.reg_demand <= 12);
  Alcotest.(check int) "no shared memory" 0 k.Compile.smem_bytes

let test_shared_offsets () =
  let k =
    compile
      {
        Ir.name = "two_arrays";
        params = [];
        shared = [ ("a", 16); ("b", 8) ];
        body = [ Ir.St_shared ("b", Ir.Int 0, Ir.f 1.0) ];
      }
  in
  Alcotest.(check int) "total shared bytes" (4 * 24) k.Compile.smem_bytes;
  Alcotest.(check int) "array a at offset 0" 0
    (List.assoc "a" k.Compile.shared_offsets);
  Alcotest.(check int) "array b after a" 64
    (List.assoc "b" k.Compile.shared_offsets)

let test_fused_mad_emitted () =
  let k =
    compile
      {
        Ir.name = "fused";
        params = [ "y" ];
        shared = [ ("s", 32) ];
        body =
          [
            Ir.Let ("p", Ir.shared_addr "s" Ir.Tid);
            Ir.St_global
              ("y", Ir.Tid,
               Ir.fmad_at (Ir.f 2.0) (Ir.v "p") 8 (Ir.f 1.0));
          ];
      }
  in
  let has_fused =
    Array.exists
      (fun (i : I.t) ->
        match i.I.op with I.Fmad_smem _ -> true | _ -> false)
      (Gpu_isa.Program.code k.Compile.program)
  in
  Alcotest.(check bool) "Fmad_smem in the listing" true has_fused

let test_errors () =
  let expect name k =
    Alcotest.(check bool) name true
      (try
         ignore (compile k);
         false
       with Compile.Error _ -> true)
  in
  expect "unbound variable"
    { Ir.name = "k"; params = []; shared = [];
      body = [ Ir.St_global ("y", Ir.Int 0, Ir.v "nope") ] };
  expect "unknown array"
    { Ir.name = "k"; params = []; shared = [];
      body = [ Ir.St_global ("y", Ir.Int 0, Ir.Int 1) ] };
  expect "duplicate parameter"
    { Ir.name = "k"; params = [ "x"; "x" ]; shared = []; body = [] };
  expect "register exhaustion"
    {
      Ir.name = "k";
      params = [];
      shared = [];
      body =
        List.init 200 (fun n ->
            Ir.Let (Printf.sprintf "v%d" n, Ir.Int n));
    }

let test_scoped_registers_reused () =
  (* names bound inside nested blocks release their registers at scope
     exit, so many scoped lets stay within a small budget *)
  let body =
    List.init 50 (fun n ->
        Ir.If
          ( Ir.(Tid >= i 0),
            [
              Ir.Let ("t", Ir.Int n);
              Ir.St_global ("y", Ir.Int n, Ir.v "t");
            ],
            [] ))
  in
  let k = compile { Ir.name = "scoped"; params = [ "y" ]; shared = []; body } in
  Alcotest.(check bool) "scopes recycle registers" true
    (k.Compile.reg_demand <= 8)

let test_assign_in_place () =
  (* x <- x + 1 compiles to a single add into x's register *)
  let k =
    compile
      {
        Ir.name = "inc";
        params = [ "y" ];
        shared = [];
        body =
          [
            Ir.Local ("x", Ir.Int 1);
            Ir.Assign ("x", Ir.(v "x" + i 1));
            Ir.St_global ("y", Ir.Int 0, Ir.v "x");
          ];
      }
  in
  let adds =
    Array.to_list (Gpu_isa.Program.code k.Compile.program)
    |> List.filter (fun (i : I.t) ->
           match i.I.op with I.Iop (I.Add, _, _, _) -> true | _ -> false)
  in
  match adds with
  | [ { I.op = I.Iop (I.Add, d, I.Reg s, I.Imm _); _ } ] ->
    Alcotest.(check bool) "in-place update" true (d = s)
  | _ -> Alcotest.fail "expected exactly one add with immediate"

(* --- Differential property: compiled integer arithmetic ----------------- *)

type iexp =
  | Const of int
  | Arg of int (* one of three fixed inputs *)
  | Bin of Ir.ibin * iexp * iexp

let rec to_ir = function
  | Const n -> Ir.Int n
  | Arg k -> Ir.v (Printf.sprintf "arg%d" k)
  | Bin (op, a, b) -> Ir.Ibin (op, to_ir a, to_ir b)

let mask24 x = Int32.to_int (Int32.shift_right (Int32.shift_left (Int32.of_int x) 8) 8)

let rec eval_ref args = function
  | Const n -> Int32.of_int n
  | Arg k -> Int32.of_int args.(k)
  | Bin (op, a, b) ->
    let x = eval_ref args a and y = eval_ref args b in
    (match op with
    | Ir.Add -> Int32.add x y
    | Ir.Sub -> Int32.sub x y
    | Ir.Mul -> Int32.mul x y
    | Ir.Mul24 ->
      Int32.mul
        (Int32.of_int (mask24 (Int32.to_int x)))
        (Int32.of_int (mask24 (Int32.to_int y)))
    | Ir.Min -> if Int32.compare x y <= 0 then x else y
    | Ir.Max -> if Int32.compare x y >= 0 then x else y
    | Ir.And -> Int32.logand x y
    | Ir.Or -> Int32.logor x y
    | Ir.Xor -> Int32.logxor x y
    | Ir.Shl -> Int32.shift_left x (Int32.to_int (Int32.logand y 31l))
    | Ir.Shr -> Int32.shift_right x (Int32.to_int (Int32.logand y 31l)))

let gen_iexp =
  QCheck.Gen.(
    sized (fun n ->
        fix
          (fun self n ->
            if n <= 1 then
              oneof
                [
                  map (fun c -> Const c) (int_range (-1000) 1000);
                  map (fun k -> Arg k) (int_bound 2);
                ]
            else
              let* op =
                oneofl
                  [ Ir.Add; Ir.Sub; Ir.Mul; Ir.Mul24; Ir.Min; Ir.Max;
                    Ir.And; Ir.Or; Ir.Xor; Ir.Shl; Ir.Shr ]
              in
              let* l = self (n / 2) in
              let* r = self (n / 2) in
              return (Bin (op, l, r)))
          (min n 20)))

let prop_compiled_arithmetic =
  QCheck.Test.make ~count:300
    ~name:"compiled expressions agree with direct evaluation"
    (QCheck.make
       QCheck.Gen.(
         pair gen_iexp (array_size (return 3) (int_range (-500) 500))))
    (fun (e, args) ->
      let kernel =
        {
          Ir.name = "prop";
          params = [ "out" ];
          shared = [];
          body =
            [
              Ir.Let ("arg0", Ir.Int args.(0));
              Ir.Let ("arg1", Ir.Int args.(1));
              Ir.Let ("arg2", Ir.Int args.(2));
              Ir.St_global ("out", Ir.Int 0, to_ir e);
            ];
        }
      in
      let out = ("out", Gpu_sim.Memory.zeros 1) in
      run_scalar_kernel kernel [ out ];
      Int32.of_int (Gpu_sim.Memory.get_int (snd out) 0) = eval_ref args e)

let () =
  Alcotest.run "kernel"
    [
      ( "compilation",
        [
          Alcotest.test_case "saxpy shape" `Quick test_saxpy_shape;
          Alcotest.test_case "shared offsets" `Quick test_shared_offsets;
          Alcotest.test_case "fused mad" `Quick test_fused_mad_emitted;
          Alcotest.test_case "errors" `Quick test_errors;
          Alcotest.test_case "scoped registers" `Quick
            test_scoped_registers_reused;
          Alcotest.test_case "in-place assign" `Quick test_assign_in_place;
        ] );
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_compiled_arithmetic ] );
    ]
