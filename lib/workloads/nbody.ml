(* All-pairs N-body force calculation (one axis of the classic GPU
   showcase): every thread owns a body and accumulates the
   inverse-square-law interaction with every other body, staged through
   shared memory one block-tile at a time.

   Each interaction costs an rsqrt — a class III instruction — so this is
   the workload that exercises the model's "expensive instructions" cause:
   with a quarter of the inner loop issuing on the 4 SFU lanes, the
   instruction pipeline binds well below its class II peak. *)

module Ir = Gpu_kernel.Ir

let softening = 0.01 (* softening factor: avoids the r = 0 singularity *)

(* Bodies are 1-D: positions x.(i), unit masses; the kernel computes
   a.(i) = sum_j (x_j - x_i) / (|x_j - x_i|^2 + eps)^(3/2). *)
let kernel ~n ~threads =
  if n mod threads <> 0 then invalid_arg "Nbody: n must divide into blocks";
  {
    Ir.name = Printf.sprintf "nbody_%d" n;
    params = [ "x"; "a" ];
    shared = [ ("tile", threads) ];
    body =
      [
        Ir.Let ("gid", Ir.(imad Ctaid Ntid Tid));
        Ir.Let ("xi", Ir.Ld_global ("x", Ir.v "gid"));
        Ir.Local ("acc", Ir.Float 0.0);
        Ir.For
          ( "t",
            Ir.Int 0,
            Ir.Int (n / threads),
            [
              (* stage one tile of positions, coalesced *)
              Ir.St_shared
                ( "tile",
                  Ir.Tid,
                  Ir.Ld_global ("x", Ir.(imad (v "t") Ntid Tid)) );
              Ir.Sync;
              Ir.For
                ( "j",
                  Ir.Int 0,
                  Ir.Int threads,
                  [
                    Ir.Let ("dx", Ir.(Ld_shared ("tile", v "j") -. v "xi"));
                    Ir.Let
                      ( "inv",
                        let eps2 = softening *. softening in
                        Ir.Sfu
                          (Ir.Rsqrt, Ir.(fmad (v "dx") (v "dx") (f eps2))) );
                    (* inv^3 = inv * inv * inv; force = dx * inv^3 *)
                    Ir.Let ("inv2", Ir.(v "inv" *. v "inv"));
                    Ir.Assign
                      ( "acc",
                        Ir.(
                          fmad (v "dx" *. v "inv") (v "inv2") (v "acc")) );
                  ] );
              Ir.Sync;
            ] );
        Ir.St_global ("a", Ir.v "gid", Ir.v "acc");
      ];
  }

let reference ~n xs =
  if Array.length xs <> n then invalid_arg "Nbody.reference";
  let eps2 = softening *. softening in
  Array.init n (fun i ->
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        let dx = xs.(j) -. xs.(i) in
        let inv = 1.0 /. sqrt ((dx *. dx) +. eps2) in
        acc := !acc +. (dx *. inv *. (inv *. inv))
      done;
      !acc)

let run_simulated ?spec ?(threads = 128) ~n xs =
  let k = Gpu_kernel.Compile.compile (kernel ~n ~threads) in
  let x = Gpu_sim.Sim.float_arg "x" xs in
  let a = Gpu_sim.Sim.float_arg "a" (Array.make n 0.0) in
  let _ =
    Gpu_sim.Sim.launch ?spec ~grid:(n / threads) ~block:threads
      ~args:[ x; a ] k
  in
  Gpu_sim.Sim.read_floats a

let analyze ?spec ?(measure = false) ?(sample = 2) ?(threads = 128) ~n () =
  let args =
    [ ("x", Gpu_sim.Memory.const_float n 1.0); ("a", Gpu_sim.Memory.zeros n) ]
  in
  Gpu_model.Workflow.analyze ?spec ~sample ~measure ~grid:(n / threads)
    ~block:threads ~args
    (kernel ~n ~threads)
