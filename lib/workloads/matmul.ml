(* Dense matrix multiply in the style of Volkov and Demmel, the paper's
   Section 5.1 case study.

   Matrices are column-major (BLAS convention), C = A * B, all n x n.  A
   block of 64 threads computes a 64 x tile strip of C: thread t owns row
   (by*64 + t) and [tile] accumulators, one per column of the strip.  Only
   the B sub-matrix (tile x tile) lives in shared memory — the Volkov
   insight the paper highlights — and the inner product reads it through
   fused MAD-with-shared-operand instructions whose byte offsets are
   compile-time constants, so the inner loop is one A load plus [tile]
   MADs per k.

   The paper studies tile sizes 8, 16 and 32 ("sub-matrix sizes"); the
   resource demands reproduce the occupancy cliff of Table 2: the 32-tile
   version's shared-memory appetite leaves only 3 resident blocks (6
   warps). *)

module Ir = Gpu_kernel.Ir

let threads_per_block = 64

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Matmul.log2: power of two required"
  else go 0

let check ~n ~tile =
  if not (List.mem tile [ 8; 16; 32 ]) then
    invalid_arg "Matmul: tile must be 8, 16 or 32";
  if n mod threads_per_block <> 0 || n mod tile <> 0 then
    invalid_arg "Matmul: n must be a multiple of 64 and of the tile size";
  ignore (log2 n)

let grid ~n ~tile =
  check ~n ~tile;
  n / threads_per_block * (n / tile)

(* The kernel, generated for a concrete (n, tile): sizes are compile-time
   constants, exactly as a tuned CUDA kernel templates them. *)
let kernel ~n ~tile =
  check ~n ~tile;
  let s = tile in
  let row_strips = n / threads_per_block in
  let acc m = Printf.sprintf "acc%d" m in
  let accs = List.init s (fun m -> Ir.Local (acc m, Ir.Float 0.0)) in
  (* B-tile load: thread t stores elements t, t+64, ... of the tile; the
     tile is column-major (kl + cl*tile), so flat index = shared index. *)
  (* Registers are a first-class budget (Table 2): transient values reuse
     one mutable local instead of binding fresh names per unrolled step. *)
  let load_b j =
    let base = j * threads_per_block in
    let mask = s - 1 in
    let shift = log2 s in
    [
      Ir.Assign ("bidx", Ir.(Tid + i base));
      Ir.St_shared
        ( "bs",
          Ir.v "bidx",
          Ir.(
            Ld_global
              ( "b",
                imad (v "kt") (i s) (v "bidx" land i mask)
                + (imad (v "bx") (i s) (v "bidx" lsr i shift) * i n) )) );
    ]
  in
  (* The A operand is software-pipelined two iterations ahead through a
     3-register rotation (av0..av2), as Volkov's kernel does: without it
     every k-iteration would stall on the global-memory round trip. *)
  let av kk = Printf.sprintf "av%d" (kk mod 3) in
  let prefetch_a =
    [
      Ir.Assign ("av0", Ir.Ld_global ("a", Ir.v "a_idx"));
      Ir.Assign ("a_idx", Ir.(v "a_idx" + i n));
      Ir.Assign ("av1", Ir.Ld_global ("a", Ir.v "a_idx"));
      Ir.Assign ("a_idx", Ir.(v "a_idx" + i n));
    ]
  in
  let tile_loads =
    List.concat (List.init (s * s / threads_per_block) load_b)
  in
  (* Inner product over the tile: per k, one (prefetched) A value feeds
     [tile] fused MADs whose shared operands are at constant offsets. *)
  let inner kk =
    (if kk <= s - 3 then
       [
         Ir.Assign (av (kk + 2), Ir.Ld_global ("a", Ir.v "a_idx"));
         Ir.Assign ("a_idx", Ir.(v "a_idx" + i n));
       ]
     else [])
    @ List.init s (fun m ->
          Ir.Assign
            ( acc m,
              Ir.fmad_at (Ir.v (av kk)) (Ir.v "bs_base")
                (4 * (kk + (m * s)))
                (Ir.v (acc m)) ))
  in
  let inners = List.concat (List.init s inner) in
  let stores =
    List.init s (fun m ->
        Ir.St_global
          ( "c",
            Ir.(v "row" + (imad (v "bx") (i s) (i m) * i n)),
            Ir.v (acc m) ))
  in
  {
    Ir.name = Printf.sprintf "sgemm_%dx%d_t%d" n n s;
    params = [ "a"; "b"; "c" ];
    shared = [ ("bs", s * s) ];
    body =
      (let strip_mask = row_strips - 1 in
       let strip_shift = log2 row_strips in
       [
         Ir.Let ("bx", Ir.(Ctaid lsr i strip_shift));
         Ir.Let
           ( "row",
             Ir.(imad (Ctaid land i strip_mask) (i threads_per_block) Tid) );
         Ir.Let ("bs_base", Ir.shared_addr "bs" (Ir.Int 0));
         Ir.Local ("a_idx", Ir.v "row");
         Ir.Local ("bidx", Ir.Int 0);
         Ir.Local ("av0", Ir.Float 0.0);
         Ir.Local ("av1", Ir.Float 0.0);
         Ir.Local ("av2", Ir.Float 0.0);
       ])
      @ accs
      @ [
          Ir.For
            ( "kt",
              Ir.Int 0,
              Ir.Int (n / s),
              tile_loads @ prefetch_a @ [ Ir.Sync ] @ inners @ [ Ir.Sync ] );
        ]
      @ stores;
  }

(* --- CPU reference (column-major, fp32 rounding) ---------------------- *)

let f32 = Gpu_sim.Value.round_f32

let reference ~n a b =
  if Array.length a <> n * n || Array.length b <> n * n then
    invalid_arg "Matmul.reference: size mismatch";
  let c = Array.make (n * n) 0.0 in
  for col = 0 to n - 1 do
    for k = 0 to n - 1 do
      let bkc = b.((col * n) + k) in
      for r = 0 to n - 1 do
        c.((col * n) + r) <-
          f32 (c.((col * n) + r) +. f32 (a.((k * n) + r) *. bkc))
      done
    done
  done;
  c

(* Run the kernel on the functional simulator and return C. *)
let run_simulated ?spec ~n ~tile a b =
  let k = Gpu_kernel.Compile.compile (kernel ~n ~tile) in
  let aa = Gpu_sim.Sim.float_arg "a" a in
  let bb = Gpu_sim.Sim.float_arg "b" b in
  let cc = Gpu_sim.Sim.float_arg "c" (Array.make (n * n) 0.0) in
  let _ =
    Gpu_sim.Sim.launch ?spec ~grid:(grid ~n ~tile) ~block:threads_per_block
      ~args:[ aa; bb; cc ] k
  in
  Gpu_sim.Sim.read_floats cc

(* What the Section 5.1 experiments analyse: a small block sample is exact
   because every block does identical work. *)
let input ~n ~tile =
  (* One zero buffer serves a, b and c: the analysis runs the statistics
     face ([Sim.launch_result]), which gives each argument its own device
     region but, since no needed pc loads a global word, reads only the
     buffer's length and copies nothing in or back.  A [Bytes] buffer
     holds no pointers and the GC never scans it, so the sharing only
     saves allocating two more (8 MB at n = 1024). *)
  let zeros = Gpu_sim.Memory.zeros (n * n) in
  {
    Gpu_model.Workflow.kernel = kernel ~n ~tile;
    grid = grid ~n ~tile;
    block = threads_per_block;
    args = [ ("a", zeros); ("b", zeros); ("c", zeros) ];
    sample = Some 4;
  }

let analyze ?spec ?measure ~n ~tile () =
  Gpu_model.Workflow.analyze ?spec ?measure (input ~n ~tile)
