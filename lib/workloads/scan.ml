(* Inclusive prefix sum (scan), Hillis-Steele style: each block scans its
   segment in shared memory with a ping-pong double buffer (log2(threads)
   fully-parallel steps, conflict-free but work-inefficient — the classic
   data-parallel formulation).  A host-side pass scans the per-block sums
   and a second kernel adds the block offsets, making the operation exact
   over arbitrarily many blocks.

   Instructive under the model: the scan kernel is shared-memory hungry
   with full warp parallelism at every step (contrast with cyclic
   reduction's decaying parallelism), and the offset kernel is a pure
   streaming pass. *)

module Ir = Gpu_kernel.Ir

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Scan.log2: power of two required"
  else go 0

(* Scan [threads] elements per block; also emits the block total. *)
let scan_kernel ~threads =
  let steps = log2 threads in
  let buf k = if k land 1 = 0 then "ping" else "pong" in
  let step s =
    let d = 1 lsl s in
    let src = buf s and dst = buf (s + 1) in
    [
      Ir.Let ("prev", Ir.(Ibin (Max, Tid - i d, Int 0)));
      Ir.St_shared
        ( dst,
          Ir.Tid,
          Ir.Select
            ( Ir.(Tid < i d),
              Ir.Ld_shared (src, Ir.Tid),
              Ir.(Ld_shared (src, Tid) +. Ld_shared (src, v "prev")) ) );
      Ir.Sync;
    ]
  in
  let final = buf steps in
  {
    Ir.name = Printf.sprintf "scan_%d" threads;
    params = [ "input"; "output"; "sums" ];
    shared = [ ("ping", threads); ("pong", threads) ];
    body =
      [
        Ir.Let ("base", Ir.(Ctaid * i threads));
        Ir.St_shared ("ping", Ir.Tid, Ir.Ld_global ("input", Ir.(v "base" + Tid)));
        Ir.Sync;
      ]
      @ List.concat_map step (List.init steps Fun.id)
      @ [
          Ir.St_global
            ("output", Ir.(v "base" + Tid), Ir.Ld_shared (final, Ir.Tid));
          Ir.If
            ( Ir.(Tid = i 0),
              [
                Ir.St_global
                  ( "sums",
                    Ir.Ctaid,
                    Ir.Ld_shared (final, Ir.Int (threads - 1)) );
              ],
              [] );
        ];
  }

(* Add each block's exclusive offset to its scanned segment. *)
let offset_kernel ~threads =
  {
    Ir.name = "scan_add_offsets";
    params = [ "output"; "offsets" ];
    shared = [];
    body =
      [
        Ir.Let ("base", Ir.(Ctaid * i threads));
        Ir.St_global
          ( "output",
            Ir.(v "base" + Tid),
            Ir.(
              Ld_global ("output", v "base" + Tid)
              +. Ld_global ("offsets", Ctaid)) );
      ];
  }

let reference xs =
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. x;
      !acc)
    xs

let run_simulated ?spec ?(threads = 128) xs =
  let n = Array.length xs in
  if n mod threads <> 0 then
    invalid_arg "Scan.run_simulated: size must divide into blocks";
  let grid = n / threads in
  let scan = Gpu_kernel.Compile.compile (scan_kernel ~threads) in
  let input = Gpu_sim.Sim.float_arg "input" xs in
  let output = Gpu_sim.Sim.float_arg "output" (Array.make n 0.0) in
  let sums = Gpu_sim.Sim.float_arg "sums" (Array.make grid 0.0) in
  let _ =
    Gpu_sim.Sim.launch ?spec ~grid ~block:threads
      ~args:[ input; output; sums ] scan
  in
  if grid = 1 then Gpu_sim.Sim.read_floats output
  else begin
    (* host-side exclusive scan of the block sums *)
    let s = Gpu_sim.Sim.read_floats sums in
    let offsets = Array.make grid 0.0 in
    for b = 1 to grid - 1 do
      offsets.(b) <-
        Gpu_sim.Value.round_f32 (offsets.(b - 1) +. s.(b - 1))
    done;
    let off = Gpu_sim.Sim.float_arg "offsets" offsets in
    let add = Gpu_kernel.Compile.compile (offset_kernel ~threads) in
    let _ =
      Gpu_sim.Sim.launch ?spec ~grid ~block:threads
        ~args:[ ("output", snd output); off ]
        add
    in
    Gpu_sim.Sim.read_floats output
  end

let analyze ?spec ?(measure = false) ?(sample = 2) ?(threads = 128) ~blocks
    () =
  let args =
    [
      ("input", Gpu_sim.Memory.const_float (blocks * threads) 1.0);
      ("output", Gpu_sim.Memory.zeros (blocks * threads));
      ("sums", Gpu_sim.Memory.zeros blocks);
    ]
  in
  Gpu_model.Workflow.analyze ?spec ~sample ~measure ~grid:blocks
    ~block:threads ~args (scan_kernel ~threads)
