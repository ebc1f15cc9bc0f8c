(* Quickstart: write a kernel in the embedded DSL, run it on the
   functional simulator, and ask the performance model where the time
   goes.

     dune exec examples/quickstart.exe *)

module Ir = Gpu_kernel.Ir

(* SAXPY: y <- a*x + y over [n] elements, a thread per element. *)
let saxpy ~n =
  {
    Ir.name = "saxpy";
    params = [ "x"; "y" ];
    shared = [];
    body =
      [
        Ir.Let ("gid", Ir.(imad Ctaid Ntid Tid));
        Ir.If
          ( Ir.(v "gid" < i n),
            [
              Ir.St_global
                ( "y",
                  Ir.v "gid",
                  Ir.fmad (Ir.f 2.5)
                    (Ir.Ld_global ("x", Ir.v "gid"))
                    (Ir.Ld_global ("y", Ir.v "gid")) );
            ],
            [] );
      ];
  }

let () =
  let n = 1 lsl 20 in
  let block = 256 in
  let grid = (n + block - 1) / block in
  let kernel = saxpy ~n in

  (* 1. Compile to the native ISA and look at the generated code. *)
  let compiled = Gpu_kernel.Compile.compile kernel in
  print_endline "--- generated native code ---";
  print_string (Gpu_isa.Program.to_string compiled.Gpu_kernel.Compile.program);
  Printf.printf "registers/thread: %d\n\n" compiled.Gpu_kernel.Compile.reg_demand;

  (* 2. Run it functionally and check the math. *)
  let x = Array.init n (fun i -> float_of_int (i mod 100)) in
  let y = Array.make n 1.0 in
  let xa = Gpu_sim.Sim.float_arg "x" x in
  let ya = Gpu_sim.Sim.float_arg "y" y in
  let _ = Gpu_sim.Sim.launch ~grid ~block ~args:[ xa; ya ] compiled in
  let y' = Gpu_sim.Sim.read_floats ya in
  assert (y'.(42) = (2.5 *. 42.0) +. 1.0);
  Printf.printf "functional check passed: y[42] = %g\n\n" y'.(42);

  (* 3. Full analysis: dynamic statistics -> throughput model -> report.
     A 2-block sample is exact because all blocks do identical work. *)
  let report =
    Gpu_model.Workflow.analyze ~measure:true
      {
        Gpu_model.Workflow.kernel;
        grid;
        block;
        args = [ ("x", Gpu_sim.Memory.zeros n); ("y", Gpu_sim.Memory.zeros n) ];
        sample = Some 2;
      }
  in
  Fmt.pr "%a@." Gpu_model.Workflow.pp report
