(* Out-of-place matrix transpose, the canonical coalescing case study, in
   three variants:

   - [Naive]: thread (per element) reads row-wise and writes column-wise;
     one side of the copy is always uncoalesced, so the transaction
     simulator charges ~16x the useful write traffic.
   - [Tiled]: a 16x16 tile staged through shared memory turns both the
     global read and the global write coalesced — but the tile's column
     read back from shared memory has stride 16, a 16-way bank conflict.
   - [Tiled_padded]: the same with a 17-word tile pitch, the padding trick
     of the paper's Section 5.2, removing the conflicts.

   Tiling cuts the naive variant's ~4.5x traffic inflation; the model then
   shows that the remaining bank conflicts, though 8-16x on transactions,
   hide entirely under the global transfers — padding costs nothing but
   also buys nothing here, exactly the is-this-optimization-worth-it call
   the paper built the model to answer. *)

module Ir = Gpu_kernel.Ir

type variant = Naive | Tiled | Tiled_padded

let variant_name = function
  | Naive -> "naive"
  | Tiled -> "tiled"
  | Tiled_padded -> "tiled_padded"

let tile = 16

let threads_per_block = tile * tile

(* Grids are 1-D: block b covers tile (bx, by) with bx = b mod (n/tile). *)
let grid ~n =
  if n mod tile <> 0 then invalid_arg "Transpose: n must be a tile multiple";
  n / tile * (n / tile)

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Transpose.log2: power of two required"
  else go 0

(* Row-major: element (r, c) of the n x n input at r*n + c; output is the
   transpose: out[c*n + r] = in[r*n + c]. *)
let kernel ~n variant =
  let tiles = n / tile in
  ignore (log2 tiles);
  let prelude =
    let shift = log2 tiles in
    let mask = tiles - 1 in
    let tmask = tile - 1 in
    let tshift = log2 tile in
    [
      Ir.Let ("bx", Ir.(Ctaid land i mask));
      Ir.Let ("by", Ir.(Ctaid lsr i shift));
      Ir.Let ("tx", Ir.(Tid land i tmask));
      Ir.Let ("ty", Ir.(Tid lsr i tshift));
      (* global coordinates of this thread's input element *)
      Ir.Let ("gr", Ir.(imad (v "by") (i tile) (v "ty")));
      Ir.Let ("gc", Ir.(imad (v "bx") (i tile) (v "tx")));
    ]
  in
  match variant with
  | Naive ->
    {
      Ir.name = "transpose_naive";
      params = [ "input"; "output" ];
      shared = [];
      body =
        prelude
        @ [
            (* read coalesced (consecutive tx -> consecutive column),
               write with stride n: uncoalesced *)
            Ir.St_global
              ( "output",
                Ir.(imad (v "gc") (i n) (v "gr")),
                Ir.Ld_global ("input", Ir.(imad (v "gr") (i n) (v "gc"))) );
          ];
    }
  | Tiled | Tiled_padded ->
    let pitch = if variant = Tiled then tile else tile + 1 in
    {
      Ir.name = "transpose_" ^ variant_name variant;
      params = [ "input"; "output" ];
      shared = [ ("t", pitch * tile) ];
      body =
        prelude
        @ [
            (* stage the tile: coalesced read, row-major store *)
            Ir.St_shared
              ( "t",
                Ir.(imad (v "ty") (i pitch) (v "tx")),
                Ir.Ld_global ("input", Ir.(imad (v "gr") (i n) (v "gc"))) );
            Ir.Sync;
            (* write the transposed tile: coalesced write, column read
               from shared memory (stride = pitch words) *)
            Ir.Let ("or_", Ir.(imad (v "bx") (i tile) (v "ty")));
            Ir.Let ("oc", Ir.(imad (v "by") (i tile) (v "tx")));
            Ir.St_global
              ( "output",
                Ir.(imad (v "or_") (i n) (v "oc")),
                Ir.Ld_shared ("t", Ir.(imad (v "tx") (i pitch) (v "ty"))) );
          ];
    }

let reference ~n xs =
  if Array.length xs <> n * n then invalid_arg "Transpose.reference";
  Array.init (n * n) (fun p ->
      let r = p / n and c = p mod n in
      xs.((c * n) + r))

let run_simulated ?spec ~n variant xs =
  let k = Gpu_kernel.Compile.compile (kernel ~n variant) in
  let input = Gpu_sim.Sim.float_arg "input" xs in
  let output = Gpu_sim.Sim.float_arg "output" (Array.make (n * n) 0.0) in
  let _ =
    Gpu_sim.Sim.launch ?spec ~grid:(grid ~n) ~block:threads_per_block
      ~args:[ input; output ] k
  in
  Gpu_sim.Sim.read_floats output

let analyze ?spec ?(measure = false) ?(sample = 2) ~n variant =
  let args =
    [
      ("input", Gpu_sim.Memory.zeros (n * n));
      ("output", Gpu_sim.Memory.zeros (n * n));
    ]
  in
  Gpu_model.Workflow.analyze ?spec ~sample ~measure ~grid:(grid ~n)
    ~block:threads_per_block ~args
    (kernel ~n variant)
