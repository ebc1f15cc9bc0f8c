(* Graph degree counting over an edge list — atomics with data-dependent
   contention.  Each block takes a chunk of the edge list and bumps a
   shared per-node degree array once per endpoint; the host sums the
   per-block partial degree vectors.

   Unlike the histogram's hash-uniform bins, real graphs are skewed:
   a hub node's edges all serialize on one shared word, so the atomic
   transaction count — and the model's fourth cost component — scales
   with the degree distribution, not the edge count.  [hub] makes that
   knob explicit in the synthetic generator. *)

module Ir = Gpu_kernel.Ir

let check_pow2 what n =
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg (Printf.sprintf "Degree: %s must be a power of two" what)

(* Per-block kernel: zero shared degrees, count both endpoints of
   [items] edges per thread, flush node t to counts[ctaid*nodes + t].
   Node ids are masked into range. *)
let kernel ~threads ~nodes ~items =
  check_pow2 "threads" threads;
  check_pow2 "nodes" nodes;
  if nodes > threads then invalid_arg "Degree: nodes must not exceed threads";
  if items <= 0 then invalid_arg "Degree: items must be positive";
  let epb = threads * items in
  let node_mask = nodes - 1 in
  let mask e = Ir.(e land i node_mask) in
  {
    Ir.name = Printf.sprintf "degree_%dn_%d" nodes threads;
    params = [ "src"; "dst"; "counts" ];
    shared = [ ("deg", nodes) ];
    body =
      [
        Ir.If
          (Ir.(Tid < i nodes), [ Ir.St_shared ("deg", Ir.Tid, Ir.i 0) ], []);
        Ir.Sync;
        Ir.Let ("base", Ir.(Ctaid * i epb + Tid));
        Ir.For
          ( "j",
            Ir.i 0,
            Ir.i items,
            [
              Ir.Let ("e", Ir.(v "base" + (v "j" * i threads)));
              Ir.atomic_add "deg" (mask (Ir.Ld_global ("src", Ir.v "e")))
                (Ir.i 1);
              Ir.atomic_add "deg" (mask (Ir.Ld_global ("dst", Ir.v "e")))
                (Ir.i 1);
            ] );
        Ir.Sync;
        Ir.If
          ( Ir.(Tid < i nodes),
            [
              Ir.St_global
                ( "counts",
                  Ir.(Ctaid * i nodes + Tid),
                  Ir.Ld_shared ("deg", Ir.Tid) );
            ],
            [] );
      ];
  }

let edges_per_block ~threads ~items = threads * items

(* CPU reference: undirected degree of each (masked) node. *)
let reference ~nodes src dst =
  let d = Array.make nodes 0 in
  let bump x = d.(x land (nodes - 1)) <- d.(x land (nodes - 1)) + 1 in
  Array.iter bump src;
  Array.iter bump dst;
  d

(* Count degrees of an edge list on the simulator; host-sums the
   per-block partial degree vectors. *)
let run_simulated ?spec ?(threads = 128) ?(nodes = 64) ?(items = 4) src dst =
  let epb = edges_per_block ~threads ~items in
  let n = Array.length src in
  if n <> Array.length dst then
    invalid_arg "Degree.run_simulated: src and dst differ in length";
  if n = 0 || n mod epb <> 0 then
    invalid_arg "Degree.run_simulated: edges must divide into blocks";
  let grid = n / epb in
  let k = Gpu_kernel.Compile.compile (kernel ~threads ~nodes ~items) in
  let src_a = Gpu_sim.Sim.int_arg "src" src in
  let dst_a = Gpu_sim.Sim.int_arg "dst" dst in
  let counts = Gpu_sim.Sim.int_arg "counts" (Array.make (grid * nodes) 0) in
  let _ =
    Gpu_sim.Sim.launch ?spec ~grid ~block:threads
      ~args:[ src_a; dst_a; counts ] k
  in
  let partials = snd counts in
  Array.init nodes (fun v ->
      let t = ref 0 in
      for g = 0 to grid - 1 do
        t := !t + Gpu_sim.Memory.get_int partials ((g * nodes) + v)
      done;
      !t)

(* [hub]: fraction of edge endpoints attached to node 0 — the skew of
   the synthetic degree distribution (0.0 = uniform ring, 1.0 = star
   graph, every increment on one word). *)
let input ?(threads = 128) ?(nodes = 64) ?(items = 4) ?(hub = 0.3) ~blocks () =
  let epb = edges_per_block ~threads ~items in
  let endpoint salt i =
    if float_of_int ((i + salt) mod 100) < hub *. 100.0 then 0
    else (i * 13) + salt
  in
  let args =
    [
      ("src", Gpu_sim.Memory.init (blocks * epb) (endpoint 0));
      ("dst", Gpu_sim.Memory.init (blocks * epb) (endpoint 37));
      ("counts", Gpu_sim.Memory.zeros (blocks * nodes));
    ]
  in
  {
    Gpu_model.Workflow.kernel = kernel ~threads ~nodes ~items;
    grid = blocks;
    block = threads;
    args;
    sample = Some 2;
  }
