(* Parallel sum reduction, in two classic shared-memory variants:

   - [Interleaved]: interleaved addressing with a strided index — thread t
     updates element 2*2^s*t from its 2^s neighbour.  Active threads stay
     contiguous (no divergence) but their addresses are strided, so the
     bank-conflict degree doubles every step — the same pathology the
     paper dissects in cyclic reduction.
   - [Sequential]: the tuned tree where step s adds the upper half onto the
     lower half.  Active threads stay contiguous (no intra-warp divergence
     until the last warp) and accesses stay conflict-free.
   - [Atomic]: no tree at all — every thread atomically adds its
     (integerized) pair sum into one shared accumulator.  Fewest
     instructions, worst serialization: all 16 lanes of every half-warp
     contend on the same word, the workload the atomic cost class is
     for.

   All variants reduce each block's 2*threads elements to one partial sum;
   the host wrapper recursively reduces the partials.  The model shows
   exactly why the sequential variant wins. *)

module Ir = Gpu_kernel.Ir

type variant = Interleaved | Sequential | Atomic

let variant_name = function
  | Interleaved -> "interleaved"
  | Sequential -> "sequential"
  | Atomic -> "atomic"

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Reduce.log2: power of two required"
  else go 0

(* Each block loads 2*threads elements and reduces them to partials[ctaid].
   [threads] must be a power of two. *)
let kernel ~threads variant =
  ignore (log2 threads);
  match variant with
  | Atomic ->
    (* values pass through F2i/I2f: the ISA's atomic add is integer, so
       this variant is exact only for integer-valued inputs (which the
       analysis and tests use) *)
    let epb = 2 * threads in
    {
      Ir.name = Printf.sprintf "reduce_atomic_%d" threads;
      params = [ "input"; "partials" ];
      shared = [ ("acc", 1) ];
      body =
        [
          Ir.If (Ir.(Tid = i 0), [ Ir.St_shared ("acc", Ir.i 0, Ir.i 0) ], []);
          Ir.Sync;
          Ir.Let ("base", Ir.(Ctaid * i epb));
          Ir.Let
            ( "pair",
              Ir.(
                F2i (Ld_global ("input", v "base" + Tid))
                + F2i (Ld_global ("input", v "base" + Tid + i threads))) );
          Ir.atomic_add "acc" (Ir.i 0) (Ir.v "pair");
          Ir.Sync;
          Ir.If
            ( Ir.(Tid = i 0),
              [
                Ir.St_global
                  ("partials", Ir.Ctaid, Ir.I2f (Ir.Ld_shared ("acc", Ir.Int 0)));
              ],
              [] );
        ];
    }
  | Interleaved | Sequential ->
  let steps = log2 threads in
  let tree =
    match variant with
    | Atomic -> assert false
    | Interleaved ->
      (* step s: thread t < threads/2^(s+1) updates buf[2*2^s*t] *)
      List.concat_map
        (fun s ->
          let stride = 1 lsl s in
          let cnt = threads / (2 * stride) in
          let step2 = 2 * stride in
          [
            Ir.If
              ( Ir.(Tid < i cnt),
                [
                  Ir.Let ("ridx", Ir.(Tid * i step2));
                  Ir.St_shared
                    ( "buf",
                      Ir.v "ridx",
                      Ir.(
                        Ld_shared ("buf", v "ridx")
                        +. Ld_shared ("buf", v "ridx" + i stride)) );
                ],
                [] );
            Ir.Sync;
          ])
        (List.init steps Fun.id)
    | Sequential ->
      (* step s: the first [half] threads add the upper half *)
      List.concat_map
        (fun s ->
          let half = threads lsr (s + 1) in
          [
            Ir.If
              ( Ir.(Tid < i half),
                [
                  Ir.St_shared
                    ( "buf",
                      Ir.Tid,
                      Ir.(
                        Ld_shared ("buf", Tid)
                        +. Ld_shared ("buf", Tid + i half)) );
                ],
                [] );
            Ir.Sync;
          ])
        (List.init steps Fun.id)
  in
  {
    Ir.name = Printf.sprintf "reduce_%s_%d" (variant_name variant) threads;
    params = [ "input"; "partials" ];
    shared = [ ("buf", threads) ];
    body =
      [
        (* grid-coalesced load of two elements per thread, pre-summed *)
        (let epb = 2 * threads in
         Ir.Let ("base", Ir.(Ctaid * i epb)));
        Ir.St_shared
          ( "buf",
            Ir.Tid,
            Ir.(
              Ld_global ("input", v "base" + Tid)
              +. Ld_global ("input", v "base" + Tid + i threads)) );
        Ir.Sync;
      ]
      @ tree
      @ [
          Ir.If
            ( Ir.(Tid = i 0),
              [ Ir.St_global ("partials", Ir.Ctaid, Ir.Ld_shared ("buf", Ir.Int 0)) ],
              [] );
        ];
  }

let elements_per_block ~threads = 2 * threads

(* CPU reference: double-precision sum.  The kernels accumulate in single
   precision with variant-specific tree associations, so comparisons use a
   relative tolerance. *)
let reference xs = Array.fold_left ( +. ) 0.0 xs

(* Reduce a device-sized array by recursive kernel launches. *)
let run_simulated ?spec ?(threads = 128) variant xs =
  let epb = elements_per_block ~threads in
  let k = Gpu_kernel.Compile.compile (kernel ~threads variant) in
  let rec go data =
    let n = Array.length data in
    if n = 1 then data.(0)
    else begin
      if n mod epb <> 0 then
        invalid_arg "Reduce.run_simulated: size must divide into blocks";
      let grid = n / epb in
      let input = Gpu_sim.Sim.float_arg "input" data in
      let partials = Gpu_sim.Sim.float_arg "partials" (Array.make grid 0.0) in
      let _ =
        Gpu_sim.Sim.launch ?spec ~grid ~block:threads
          ~args:[ input; partials ] k
      in
      let p = Gpu_sim.Sim.read_floats partials in
      if grid = 1 then p.(0)
      else if grid >= epb && grid mod epb = 0 then go p
      else (* tail too small for a full block: finish on the host *)
        Array.fold_left ( +. ) 0.0 p
    end
  in
  go (Array.map Gpu_sim.Value.round_f32 xs)

let analyze ?spec ?(measure = false) ?(sample = 2) ?replay_sample ?timeline ?ctx
    ?(threads = 128) ~blocks variant =
  let epb = elements_per_block ~threads in
  let args =
    [
      ("input", Gpu_sim.Memory.const_float (blocks * epb) 1.0);
      ("partials", Gpu_sim.Memory.zeros blocks);
    ]
  in
  Gpu_model.Workflow.analyze ?spec ~sample ?replay_sample ?timeline ?ctx
    ~measure
    ~grid:blocks ~block:threads ~args
    (kernel ~threads variant)
