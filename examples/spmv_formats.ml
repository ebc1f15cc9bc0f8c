(* The Section 5.3 study: using the memory-transaction simulator to choose
   a sparse-matrix storage format, and to discover the vector-interleaving
   optimization that beats the prior state of the art.

     dune exec examples/spmv_formats.exe *)

module Model = Gpu_model.Model
module Component = Gpu_model.Component
module Workflow = Gpu_model.Workflow
module Spmv = Gpu_workloads.Spmv

let () =
  let m = Spmv.qcd_like () in
  Printf.printf
    "QCD-like matrix: %d rows, %d nonzeros (%d 3x3 blocks per block-row)\n\n"
    (Spmv.rows m) (Spmv.nnz m) (Spmv.k_blocks m);

  (* Correctness first: all three kernels against the CPU reference. *)
  let x =
    Array.init (Spmv.rows m) (fun i ->
        Gpu_sim.Value.round_f32 (sin (float_of_int i)))
  in
  let small =
    Spmv.generate ~block_rows:256 ~offsets:[ 0; 1; -1; 16; -16 ] ()
  in
  let xs =
    Array.init (Spmv.rows small) (fun i ->
        Gpu_sim.Value.round_f32 (cos (float_of_int i)))
  in
  let expect = Spmv.reference small xs in
  List.iter
    (fun fmt ->
      let y = Spmv.run_simulated small fmt xs in
      Array.iteri
        (fun i v ->
          assert (abs_float (v -. expect.(i)) < 1e-3 *. (abs_float expect.(i) +. 1.0)))
        y)
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ];
  Printf.printf "all three kernels agree with the CPU reference.\n\n";
  ignore x;

  (* The transaction simulator's view: bytes moved per matrix entry. *)
  Printf.printf "%-10s %28s\n" "" "bytes per entry (32B transactions)";
  Printf.printf "%-10s %8s %8s %8s %8s\n" "format" "matrix" "index"
    "vector" "total";
  List.iter
    (fun fmt ->
      let t = Spmv.bytes_per_entry ~granularity:32 m fmt in
      Printf.printf "%-10s %8.2f %8.2f %8.2f %8.2f\n" (Spmv.format_name fmt)
        t.Spmv.matrix_bytes t.Spmv.index_bytes t.Spmv.vector_bytes
        (Spmv.total_traffic t))
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ];

  (* Model + timing simulator per format. *)
  Printf.printf "\n%-10s %10s %10s %8s %s\n" "format" "pred ms" "meas ms"
    "GFLOPS" "bottleneck";
  List.iter
    (fun fmt ->
      let r = Workflow.analyze ~measure:true (Spmv.input m fmt) in
      let a = r.Workflow.analysis in
      let meas = Option.get r.Workflow.measured in
      Printf.printf "%-10s %10.4f %10.4f %8.1f %s\n" (Spmv.format_name fmt)
        (1e3 *. a.Model.predicted_seconds)
        (1e3 *. meas.Gpu_timing.Engine.seconds)
        (Spmv.gflops m meas.Gpu_timing.Engine.seconds)
        (Component.name a.Model.bottleneck))
    [ Spmv.Ell; Spmv.Bell_im; Spmv.Bell_imiv ];
  Printf.printf
    "\nThe model attributes all three to global memory and shows the \
     vector gather as the dominant term — which is what led the paper to \
     interleave the vector itself (BELL+IMIV), an optimization that beats \
     the prior best even without the texture cache.\n"
