(* Shared-memory histogram — the canonical atomic-bound kernel.  Each
   block bins [items] elements per thread into a per-block shared
   histogram with atomic increments, then flushes the partial histogram
   to global memory; the host sums the per-block partials.

   The atomic increments are where the time goes: lanes of a half-warp
   that hash to the same bin serialize (an atomic can never broadcast),
   so skewed inputs turn the kernel from shared-bound into
   atomic-serialization-bound — the fourth cost class the model
   charges.  [bins] sets the contention knob: 32-plus bins with uniform
   input is nearly conflict-free, a handful of bins (or skewed data)
   serializes entire groups. *)

module Ir = Gpu_kernel.Ir

let check_pow2 what n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Histogram: %s must be a power of two" what)

(* Per-block kernel: zero the shared histogram, bin [items] strided
   elements per thread, flush bin t to counts[ctaid*bins + t].  Values
   are masked into range, so any input word bins somewhere. *)
let kernel ~threads ~bins ~items =
  check_pow2 "threads" threads;
  check_pow2 "bins" bins;
  if bins > threads then
    invalid_arg "Histogram: bins must not exceed threads";
  if items <= 0 then invalid_arg "Histogram: items must be positive";
  let epb = threads * items in
  let bin_mask = bins - 1 in
  {
    Ir.name = Printf.sprintf "histogram_%db_%d" bins threads;
    params = [ "input"; "counts" ];
    shared = [ ("hist", bins) ];
    body =
      [
        Ir.If
          (Ir.(Tid < i bins), [ Ir.St_shared ("hist", Ir.Tid, Ir.i 0) ], []);
        Ir.Sync;
        Ir.Let ("base", Ir.(Ctaid * i epb + Tid));
        Ir.For
          ( "j",
            Ir.i 0,
            Ir.i items,
            [
              Ir.Let
                ( "bin",
                  Ir.(
                    Ld_global ("input", v "base" + (v "j" * i threads))
                    land i bin_mask) );
              Ir.atomic_add "hist" (Ir.v "bin") (Ir.i 1);
            ] );
        Ir.Sync;
        Ir.If
          ( Ir.(Tid < i bins),
            [
              Ir.St_global
                ( "counts",
                  Ir.(Ctaid * i bins + Tid),
                  Ir.Ld_shared ("hist", Ir.Tid) );
            ],
            [] );
      ];
  }

let elements_per_block ~threads ~items = threads * items

(* CPU reference: the same masked binning. *)
let reference ~bins xs =
  let h = Array.make bins 0 in
  Array.iter (fun x -> h.(x land (bins - 1)) <- h.(x land (bins - 1)) + 1) xs;
  h

(* Histogram an integer array on the simulator; host-sums the per-block
   partial histograms. *)
let run_simulated ?spec ?(threads = 128) ?(bins = 64) ?(items = 4) xs =
  let epb = elements_per_block ~threads ~items in
  let n = Array.length xs in
  if n = 0 || n mod epb <> 0 then
    invalid_arg "Histogram.run_simulated: size must divide into blocks";
  let grid = n / epb in
  let k = Gpu_kernel.Compile.compile (kernel ~threads ~bins ~items) in
  let input = Gpu_sim.Sim.int_arg "input" xs in
  let counts = Gpu_sim.Sim.int_arg "counts" (Array.make (grid * bins) 0) in
  let _ = Gpu_sim.Sim.launch ?spec ~grid ~block:threads
      ~args:[ input; counts ] k
  in
  let partials = snd counts in
  Array.init bins (fun b ->
      let t = ref 0 in
      for g = 0 to grid - 1 do
        t := !t + Gpu_sim.Memory.get_int partials ((g * bins) + b)
      done;
      !t)

(* [skew]: 0.0 = uniform bins (conflict-light), 1.0 = everything in one
   bin (every half-warp fully serialized). *)
let input ?(threads = 128) ?(bins = 64) ?(items = 4) ?(skew = 0.8) ~blocks () =
  let epb = elements_per_block ~threads ~items in
  let value i =
    if float_of_int (i mod 100) < skew *. 100.0 then 0 else i * 7
  in
  let args =
    [
      ("input", Gpu_sim.Memory.init (blocks * epb) value);
      ("counts", Gpu_sim.Memory.zeros (blocks * bins));
    ]
  in
  {
    Gpu_model.Workflow.kernel = kernel ~threads ~bins ~items;
    grid = blocks;
    block = threads;
    args;
    sample = Some 2;
  }
