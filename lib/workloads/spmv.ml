(* Sparse matrix-vector multiply — the paper's Section 5.3 case study.

   The matrix is 3x3-blocked with a uniform number of blocks per block-row,
   synthesized to match the structure of the QCD matrix the paper uses
   (a lattice stencil: every block-row couples a fixed set of neighbour
   block-columns with periodic wrap-around).  Three storage formats are
   implemented:

   - ELL: scalar ELLPACK, one thread per row, column-major storage so
     matrix and index loads coalesce; the vector gather does not.
   - BELL+IM: blocked ELLPACK with interleaved matrix storage, one thread
     per block-row; column indices drop to 1/9 and vector loads to 1/3.
   - BELL+IMIV: additionally stores the vector (and result) interleaved,
     component-major, so that consecutive threads gather consecutive
     addresses — the paper's optimization, found through the transaction
     simulator, worth 18% over the prior state of the art. *)

module Ir = Gpu_kernel.Ir

let block_dim = 3 (* 3x3 blocks, as in the QCD matrix *)

let entries_per_block = block_dim * block_dim

type matrix = {
  block_rows : int;
  block_offsets : int list; (* stencil offsets, applied mod block_rows *)
  block_cols : int array; (* [r * k_blocks + k] -> block column *)
  blocks : float array; (* [(r * k_blocks + k) * 9 + 3i + j] *)
}

let k_blocks m = List.length m.block_offsets

let rows m = block_dim * m.block_rows

let nnz m = m.block_rows * k_blocks m * entries_per_block

(* The paper's QCD matrix: 49152 rows, ~39 nonzeros per row = 13 blocks
   per block-row. *)
let qcd_offsets =
  [ 0; 1; -1; 2; -2; 16; -16; 32; -32; 256; -256; 512; -512 ]

let generate ?(seed = 7) ~block_rows ~offsets () =
  if block_rows <= 0 then invalid_arg "Spmv.generate";
  let rng = Random.State.make [| seed |] in
  let k = List.length offsets in
  let block_cols = Array.make (block_rows * k) 0 in
  for r = 0 to block_rows - 1 do
    List.iteri
      (fun ki d ->
        let c = ((r + d) mod block_rows + block_rows) mod block_rows in
        block_cols.((r * k) + ki) <- c)
      (List.sort compare offsets)
  done;
  let blocks =
    Array.init
      (block_rows * k * entries_per_block)
      (fun _ -> Gpu_sim.Value.round_f32 (Random.State.float rng 2.0 -. 1.0))
  in
  { block_rows; block_offsets = List.sort compare offsets; block_cols; blocks }

let qcd_like ?seed () =
  generate ?seed ~block_rows:16384 ~offsets:qcd_offsets ()

(* --- CPU reference ----------------------------------------------------- *)

let reference m x =
  let n = rows m in
  if Array.length x <> n then invalid_arg "Spmv.reference";
  let k = k_blocks m in
  let y = Array.make n 0.0 in
  for r = 0 to m.block_rows - 1 do
    for ki = 0 to k - 1 do
      let c = m.block_cols.((r * k) + ki) in
      for i = 0 to block_dim - 1 do
        let acc = ref y.((block_dim * r) + i) in
        for j = 0 to block_dim - 1 do
          acc :=
            !acc
            +. (m.blocks.((((r * k) + ki) * entries_per_block)
                          + (block_dim * i) + j)
               *. x.((block_dim * c) + j))
        done;
        y.((block_dim * r) + i) <- !acc
      done
    done
  done;
  y

(* --- Storage layouts --------------------------------------------------- *)

(* Each layout is stored outer-major and written straight into an
   argument buffer ([Memory.init2], [Memory.gather_floats]): the
   functions below map a storage position (outer index, inner index) to
   the matrix entry or column it holds.  They are closures over the
   matrix's shape, so a builder pays no per-word list walk for [k_blocks]
   and no division by a runtime size. *)

module Memory = Gpu_sim.Memory

(* Scalar ELL, column-major: entry e of row r at [e * n + r].  Row 3r+i's
   entry 3ki+j is entry (i, j) of block (r, ki), in column 3c+j where c is
   the block's column. *)
let ell_entry m =
  let k = k_blocks m in
  fun e row ->
    ((((row / block_dim * k) + (e / block_dim)) * entries_per_block)
    + (block_dim * (row mod block_dim)))
    + (e mod block_dim)

let ell_column m =
  let k = k_blocks m in
  fun e row ->
    (block_dim * m.block_cols.((row / block_dim * k) + (e / block_dim)))
    + (e mod block_dim)

(* Blocked ELL with interleaved matrix: block-column index of block b of
   thread t at [b * T + t]; entry u of that block at [(b * 9 + u) * T + t],
   which is entry [(t * k + b) * 9 + u = t * 9k + (b * 9 + u)]. *)
let bell_column m =
  let k = k_blocks m in
  fun b t -> m.block_cols.((t * k) + b)

let bell_entry m =
  let stride = k_blocks m * entries_per_block in
  fun q t -> (t * stride) + q

(* Component-major ("interleaved") vector: x'[j * R + c] = x[3c + j]. *)
let interleave_vector m x =
  let r = m.block_rows in
  Array.init (rows m) (fun p ->
      let j = p / r and c = p mod r in
      x.((block_dim * c) + j))

let deinterleave_vector m x' =
  let r = m.block_rows in
  Array.init (rows m) (fun p ->
      let c = p / block_dim and j = p mod block_dim in
      x'.((j * r) + c))

(* --- Kernels ------------------------------------------------------------ *)

type format = Ell | Bell_im | Bell_imiv

let format_name = function
  | Ell -> "ELL"
  | Bell_im -> "BELL+IM"
  | Bell_imiv -> "BELL+IMIV"

let ell_threads_per_block = 128

let bell_threads_per_block = 128

let ell_kernel m =
  let n = rows m in
  let e_per_row = k_blocks m * block_dim in
  {
    Ir.name = "spmv_ell";
    params = [ "data"; "cols"; "x"; "y" ];
    shared = [];
    body =
      [
        Ir.Let ("gid", Ir.(imad Ctaid Ntid Tid));
        Ir.Local ("sum", Ir.Float 0.0);
        Ir.For
          ( "e",
            Ir.Int 0,
            Ir.Int e_per_row,
            [
              Ir.Let ("fidx", Ir.(imad (v "e") (i n) (v "gid")));
              Ir.Let ("dv", Ir.Ld_global ("data", Ir.v "fidx"));
              Ir.Let ("ci", Ir.Ld_global ("cols", Ir.v "fidx"));
              Ir.Assign
                ( "sum",
                  Ir.fmad (Ir.v "dv")
                    (Ir.Ld_global ("x", Ir.v "ci"))
                    (Ir.v "sum") );
            ] );
        Ir.St_global ("y", Ir.v "gid", Ir.v "sum");
      ];
  }

let bell_kernel m ~interleaved_vector =
  let r = m.block_rows in
  let k = k_blocks m in
  let acc i = Printf.sprintf "acc%d" i in
  let mads =
    List.concat
      (List.init block_dim (fun i ->
           List.init block_dim (fun j ->
               Ir.Assign
                 ( acc i,
                   Ir.fmad
                     (Ir.ld_global_at (Ir.v "baddr")
                        (4 * ((block_dim * i) + j) * r))
                     (Ir.v (Printf.sprintf "xv%d" j))
                     (Ir.v (acc i)) ))))
  in
  let x_loads =
    if interleaved_vector then
      Ir.Let ("xaddr", Ir.global_addr "x" (Ir.v "bc"))
      :: List.init block_dim (fun j ->
             Ir.Let
               (Printf.sprintf "xv%d" j,
                Ir.ld_global_at (Ir.v "xaddr") (4 * j * r)))
    else
      Ir.Let ("xaddr", Ir.global_addr "x" Ir.(v "bc" * i block_dim))
      :: List.init block_dim (fun j ->
             Ir.Let
               (Printf.sprintf "xv%d" j,
                Ir.ld_global_at (Ir.v "xaddr") (4 * j)))
  in
  let stores =
    if interleaved_vector then
      List.init block_dim (fun row ->
          let off = row * r in
          Ir.St_global ("y", Ir.(v "gid" + i off), Ir.v (acc row)))
    else
      List.init block_dim (fun row ->
          Ir.St_global
            ("y", Ir.(imad (v "gid") (i block_dim) (i row)), Ir.v (acc row)))
  in
  {
    Ir.name =
      (if interleaved_vector then "spmv_bell_imiv" else "spmv_bell_im");
    params = [ "bdata"; "bcol"; "x"; "y" ];
    shared = [];
    body =
      (Ir.Let ("gid", Ir.(imad Ctaid Ntid Tid))
       :: List.init block_dim (fun i -> Ir.Local (acc i, Ir.Float 0.0)))
      @ [
          Ir.For
            ( "b",
              Ir.Int 0,
              Ir.Int k,
              [
                Ir.Let
                  ( "bc",
                    Ir.Ld_global
                      ("bcol", Ir.(imad (v "b") (i r) (v "gid"))) );
                Ir.Let
                  ( "baddr",
                    let stride = entries_per_block * r in
                    Ir.global_addr "bdata"
                      Ir.(imad (v "b") (i stride) (v "gid")) );
              ]
              @ x_loads @ mads );
        ]
      @ stores;
  }

let kernel m = function
  | Ell -> ell_kernel m
  | Bell_im -> bell_kernel m ~interleaved_vector:false
  | Bell_imiv -> bell_kernel m ~interleaved_vector:true

let launch m = function
  | Ell -> (rows m / ell_threads_per_block, ell_threads_per_block)
  | Bell_im | Bell_imiv ->
    (m.block_rows / bell_threads_per_block, bell_threads_per_block)

let check_launchable m fmt =
  let divisor =
    match fmt with
    | Ell -> ell_threads_per_block
    | Bell_im | Bell_imiv -> bell_threads_per_block
  in
  let work = match fmt with Ell -> rows m | _ -> m.block_rows in
  if work mod divisor <> 0 then
    invalid_arg
      (Printf.sprintf "Spmv: %d work items not divisible into %d-thread \
                       blocks" work divisor)

let buffers m fmt x =
  check_launchable m fmt;
  let k = k_blocks m and n = rows m and t_count = m.block_rows in
  let y = ("y", Memory.zeros n) in
  match fmt with
  | Ell ->
    let outer = k * block_dim in
    [
      ("data", Memory.gather_floats ~outer ~inner:n m.blocks (ell_entry m));
      ("cols", Memory.init2 ~outer ~inner:n (ell_column m));
      ("x", Memory.of_floats x);
      y;
    ]
  | Bell_im | Bell_imiv ->
    [
      ( "bdata",
        Memory.gather_floats ~outer:(k * entries_per_block) ~inner:t_count
          m.blocks (bell_entry m) );
      ("bcol", Memory.init2 ~outer:k ~inner:t_count (bell_column m));
      ( "x",
        if fmt = Bell_imiv then
          Memory.gather_floats ~outer:block_dim ~inner:t_count x (fun j c ->
              (block_dim * c) + j)
        else Memory.of_floats x );
      y;
    ]

let args m fmt x =
  List.map (fun (name, b) -> (name, Memory.to_int32s b)) (buffers m fmt x)

let run_simulated ?spec m fmt x =
  let a = buffers m fmt x in
  let grid, block = launch m fmt in
  let compiled = Gpu_kernel.Compile.compile (kernel m fmt) in
  let _ = Gpu_sim.Sim.launch ?spec ~grid ~block ~args:a compiled in
  let y = Gpu_sim.Sim.read_floats (List.nth a 3) in
  match fmt with Ell | Bell_im -> y | Bell_imiv -> deinterleave_vector m y

(* What the analysis multiplies: a vector of ones.  Rows differ in their
   gather targets, so every block is simulated (exact statistics). *)
let input m fmt =
  let x = Array.make (rows m) 1.0 in
  let args = buffers m fmt x in
  let grid, block = launch m fmt in
  { Gpu_model.Workflow.kernel = kernel m fmt; grid; block; args; sample = None }

let analyze ?spec ?measure m fmt =
  Gpu_model.Workflow.analyze ?spec ?measure (input m fmt)

(* --- Figure 11a: bytes moved per matrix entry -------------------------- *)

(* The vector-gather word addresses in half-warp issue order, written
   into an array sized up front: entry column [e] (ELL) or block [b] and
   component [j] (BELL) gathers once per row or block-row. *)
let vector_gather_addresses m fmt =
  let k = k_blocks m in
  match fmt with
  | Ell ->
    let n = rows m and col = ell_column m in
    let out = Array.make (k * block_dim * n) 0 in
    for e = 0 to (k * block_dim) - 1 do
      for row = 0 to n - 1 do
        out.((e * n) + row) <- 4 * col e row
      done
    done;
    out
  | Bell_im | Bell_imiv ->
    (* one access instruction serves the same j for a half-warp of
       consecutive threads, so j is the outer loop *)
    let t_count = m.block_rows and interleaved = fmt = Bell_imiv in
    let out = Array.make (k * block_dim * t_count) 0 in
    for b = 0 to k - 1 do
      for j = 0 to block_dim - 1 do
        let o = ((b * block_dim) + j) * t_count in
        for t = 0 to t_count - 1 do
          let c = m.block_cols.((t * k) + b) in
          out.(o + t) <-
            4 * (if interleaved then (j * t_count) + c else (block_dim * c) + j)
        done
      done
    done;
    out

(* Bytes moved per matrix entry for each traffic component, at a given
   transaction-size granularity (32, 16 or 4 bytes in the paper's
   Figure 11a). *)
type traffic = {
  matrix_bytes : float;
  index_bytes : float;
  vector_bytes : float;
}

let total_traffic t = t.matrix_bytes +. t.index_bytes +. t.vector_bytes

(* Bytes a half-warp gather moves at a transaction granularity of
   [granularity] bytes: the number of distinct granularity-sized segments
   the 16 addresses touch, times the granularity — the paper's Figure 11a
   metric (at 4 bytes this is the dedup'd useful payload, the "ideal"
   case). *)
let bytes_per_entry ?(granularity = 32) m fmt =
  if granularity <= 0 then invalid_arg "Spmv.bytes_per_entry";
  let nnz_f = float_of_int (nnz m) in
  let k = k_blocks m in
  (* Coalesced streams move exactly their payload (columns are stored
     column-major / interleaved): matrix entries are 4 B each; indices are
     4 B per entry for ELL, 4/9 B for BELL. *)
  let matrix_bytes = 4.0 in
  let index_bytes =
    match fmt with
    | Ell -> 4.0
    | Bell_im | Bell_imiv ->
      4.0 *. float_of_int (m.block_rows * k) /. nnz_f
  in
  (* Each half-warp of 16 consecutive gathers (the last may be short)
     moves one segment per distinct segment it touches: an address counts
     when no earlier address of its half-warp shares its segment. *)
  let addrs = vector_gather_addresses m fmt in
  let segments = Array.make 16 0 in
  let total = ref 0 in
  Array.iteri
    (fun i a ->
      let slot = i mod 16 and seg = a / granularity in
      segments.(slot) <- seg;
      let j = ref 0 in
      while segments.(!j) <> seg do
        incr j
      done;
      if !j = slot then total := !total + granularity)
    addrs;
  {
    matrix_bytes;
    index_bytes;
    vector_bytes = float_of_int !total /. nnz_f;
  }

(* --- Texture-cache model (Figure 12) ----------------------------------- *)

(* Hit rate of vector gathers in a GT200-style texture L1. *)
let vector_cache_hit_rate m fmt =
  Gpu_mem.Cache.run Gpu_mem.Cache.gt200_texture_l1
    (vector_gather_addresses m fmt)

(* Predicted seconds with the vector gather served through the texture
   cache: the global-memory component sheds the vector bytes that hit. *)
let cached_prediction (report : Gpu_model.Workflow.report) m fmt =
  let analysis = report.Gpu_model.Workflow.analysis in
  let t = analysis.Gpu_model.Model.totals in
  let hit = vector_cache_hit_rate m fmt in
  let per_entry = bytes_per_entry m fmt in
  let vector_fraction =
    per_entry.vector_bytes /. total_traffic per_entry
  in
  let global' =
    t.Gpu_model.Component.global *. (1.0 -. (vector_fraction *. hit))
  in
  let t' = { t with Gpu_model.Component.global = global' } in
  if analysis.Gpu_model.Model.serialized then
    (* single-stage kernels: just rescale the global component *)
    Gpu_model.Component.max_time t'
  else Gpu_model.Component.max_time t'

let gflops m seconds =
  if seconds <= 0.0 then 0.0
  else 2.0 *. float_of_int (nnz m) /. seconds /. 1e9
