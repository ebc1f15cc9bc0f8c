(* Tridiagonal systems solver by cyclic reduction — the paper's Section 5.2
   case study.

   Many independent n-equation systems are solved in parallel: one system
   per block, n/2 threads, all five coefficient arrays (a, b, c, d, x) held
   in shared memory.  Forward reduction halves the active equations each
   step while its access stride doubles, so the bank-conflict degree
   doubles too (Figure 5) and the shared-memory transaction count stays
   flat instead of halving (Figure 7b).  CR-NBC pads the shared arrays one
   word per 16, redirecting all conflicted accesses to free banks at the
   cost of extra addressing arithmetic (the padded index is i + i/16).

   Equation i of a system: a.(i) x.(i-1) + b.(i) x.(i) + c.(i) x.(i+1)
   = d.(i), with a.(0) = c.(n-1) = 0. *)

module Ir = Gpu_kernel.Ir

let log2 n =
  let rec go k = if 1 lsl k >= n then k else go (k + 1) in
  if n <= 0 || n land (n - 1) <> 0 then
    invalid_arg "Tridiag.log2: power of two required"
  else go 0

let check ~n =
  if n < 8 then invalid_arg "Tridiag: system size must be at least 8";
  ignore (log2 n)

let threads ~n = n / 2

(* Padded index i + i/16 (16 banks): conflicting strides land on distinct
   banks.  On the IR side the argument must be cheap to re-evaluate. *)
let pad_exp ~padded e = if padded then Ir.(e + (e lsr i 4)) else e

let pad_int ~padded i = if padded then i + (i / 16) else i

let shared_words ~n ~padded = pad_int ~padded (n - 1) + 1

let arrays = [ "sa"; "sb"; "sc"; "sd"; "sx" ]

let kernel ~n ~padded =
  check ~n;
  let nt = threads ~n in
  let size = shared_words ~n ~padded in
  let pad = pad_exp ~padded in
  let neg x = Ir.(f 0.0 -. x) in
  let ld arr idx = Ir.Ld_shared (arr, idx) in
  (* Stage 0: load the block's system into shared memory, coalesced. *)
  let load_global garr sarr =
    Ir.St_shared
      (sarr, Ir.v "pli", Ir.Ld_global (garr, Ir.(v "base" + v "li")))
  in
  let loads =
    List.concat_map
      (fun j ->
        Ir.Let ("li", Ir.(Tid + i j))
        :: Ir.Let ("pli", pad (Ir.v "li"))
        :: List.map
             (fun (g, s) -> load_global g s)
             [ ("a", "sa"); ("b", "sb"); ("c", "sc"); ("d", "sd") ])
      [ 0; nt ]
  in
  (* Forward reduction step with half-stride h: thread t updates equation
     i = 2h*t + 2h-1 from its +-h neighbours.  The right neighbour index is
     clamped to n-1: the rightmost active equation has c = 0, which zeroes
     the clamped term exactly. *)
  let forward h =
    let cnt = n / (2 * h) in
    let h2 = 2 * h in
    let h2m1 = (2 * h) - 1 in
    let body =
      [
        Ir.Let ("fi", Ir.(imad Tid (i h2) (i h2m1)));
        Ir.Let ("pfi", pad (Ir.v "fi"));
        Ir.Let ("pfl", pad Ir.(v "fi" - i h));
        Ir.Let
          ( "pfr",
            pad (Ir.Ibin (Ir.Min, Ir.(v "fi" + i h), Ir.Int (n - 1))) );
        Ir.Let ("ai", ld "sa" (Ir.v "pfi"));
        Ir.Let ("bi", ld "sb" (Ir.v "pfi"));
        Ir.Let ("ci", ld "sc" (Ir.v "pfi"));
        Ir.Let ("di", ld "sd" (Ir.v "pfi"));
        Ir.Let ("al", ld "sa" (Ir.v "pfl"));
        Ir.Let ("bl", ld "sb" (Ir.v "pfl"));
        Ir.Let ("cl", ld "sc" (Ir.v "pfl"));
        Ir.Let ("dl", ld "sd" (Ir.v "pfl"));
        Ir.Let ("ar", ld "sa" (Ir.v "pfr"));
        Ir.Let ("br", ld "sb" (Ir.v "pfr"));
        Ir.Let ("cr", ld "sc" (Ir.v "pfr"));
        Ir.Let ("dr", ld "sd" (Ir.v "pfr"));
        Ir.Let ("k1", Ir.(v "ai" *. Sfu (Rcp, v "bl")));
        Ir.Let ("k2", Ir.(v "ci" *. Sfu (Rcp, v "br")));
        Ir.St_shared ("sa", Ir.v "pfi", neg Ir.(v "al" *. v "k1"));
        Ir.St_shared
          ( "sb",
            Ir.v "pfi",
            Ir.(v "bi" -. (v "cl" *. v "k1") -. (v "ar" *. v "k2")) );
        Ir.St_shared ("sc", Ir.v "pfi", neg Ir.(v "cr" *. v "k2"));
        Ir.St_shared
          ( "sd",
            Ir.v "pfi",
            Ir.(v "di" -. (v "dl" *. v "k1") -. (v "dr" *. v "k2")) );
      ]
    in
    [ Ir.If (Ir.(Tid < i cnt), body, []); Ir.Sync ]
  in
  (* After the forward sweep, equations n/2-1 and n-1 form a 2x2 system. *)
  let p1 = pad_int ~padded ((n / 2) - 1) in
  let p2 = pad_int ~padded (n - 1) in
  let solve2 =
    [
      Ir.If
        ( Ir.(Tid = i 0),
          [
            Ir.Let ("b1", ld "sb" (Ir.Int p1));
            Ir.Let ("c1", ld "sc" (Ir.Int p1));
            Ir.Let ("d1", ld "sd" (Ir.Int p1));
            Ir.Let ("a2", ld "sa" (Ir.Int p2));
            Ir.Let ("b2", ld "sb" (Ir.Int p2));
            Ir.Let ("d2", ld "sd" (Ir.Int p2));
            Ir.Let
              ( "rdet",
                Ir.Sfu
                  (Ir.Rcp, Ir.((v "b1" *. v "b2") -. (v "c1" *. v "a2"))) );
            Ir.St_shared
              ( "sx",
                Ir.Int p1,
                Ir.(((v "d1" *. v "b2") -. (v "c1" *. v "d2")) *. v "rdet") );
            Ir.St_shared
              ( "sx",
                Ir.Int p2,
                Ir.(((v "b1" *. v "d2") -. (v "d1" *. v "a2")) *. v "rdet") );
          ],
          [] );
      Ir.Sync;
    ]
  in
  (* Backward substitution with half-stride h: thread t recovers equation
     i = 2h*t + h-1 from the already-known x at +-h (the left neighbour of
     the first thread falls off the edge and contributes zero). *)
  let backward h =
    let cnt = n / (2 * h) in
    let h2 = 2 * h in
    let hm1 = h - 1 in
    let body =
      [
        Ir.Let ("wi", Ir.(imad Tid (i h2) (i hm1)));
        Ir.Let ("wl", Ir.(v "wi" - i h));
        Ir.Let ("pwi", pad (Ir.v "wi"));
        Ir.Let ("pwl", pad (Ir.Ibin (Ir.Max, Ir.v "wl", Ir.Int 0)));
        Ir.Let ("pwr", pad Ir.(v "wi" + i h));
        Ir.Let
          ( "xl",
            Ir.Select
              (Ir.(v "wl" < i 0), Ir.Float 0.0, ld "sx" (Ir.v "pwl")) );
        Ir.Let ("xr", ld "sx" (Ir.v "pwr"));
        Ir.Let ("wa", ld "sa" (Ir.v "pwi"));
        Ir.Let ("wb", ld "sb" (Ir.v "pwi"));
        Ir.Let ("wc", ld "sc" (Ir.v "pwi"));
        Ir.Let ("wd", ld "sd" (Ir.v "pwi"));
        Ir.St_shared
          ( "sx",
            Ir.v "pwi",
            Ir.(
              (v "wd" -. (v "wa" *. v "xl") -. (v "wc" *. v "xr"))
              *. Sfu (Rcp, v "wb")) );
      ]
    in
    [ Ir.If (Ir.(Tid < i cnt), body, []); Ir.Sync ]
  in
  let stores =
    List.concat_map
      (fun j ->
        [
          Ir.Let ("li", Ir.(Tid + i j));
          Ir.Let ("pli", pad (Ir.v "li"));
          Ir.St_global ("x", Ir.(v "base" + v "li"), ld "sx" (Ir.v "pli"));
        ])
      [ 0; nt ]
  in
  let steps = log2 n in
  let forward_steps =
    List.concat_map (fun s -> forward (1 lsl (s - 1)))
      (List.init (steps - 1) (fun k -> k + 1))
  in
  let backward_steps =
    List.concat_map (fun s -> backward (1 lsl (s - 1)))
      (List.rev (List.init (steps - 1) (fun k -> k + 1)))
  in
  {
    Ir.name =
      Printf.sprintf "cyclic_reduction_%d%s" n (if padded then "_nbc" else "");
    params = [ "a"; "b"; "c"; "d"; "x" ];
    shared = List.map (fun s -> (s, size)) arrays;
    body =
      (Ir.Let ("base", Ir.(Ctaid * i n)) :: loads)
      @ [ Ir.Sync ] @ forward_steps @ solve2 @ backward_steps @ stores;
  }

(* --- CPU reference: Thomas algorithm in double precision -------------- *)

let reference_thomas ~n a b c d =
  if Array.length a <> n then invalid_arg "Tridiag.reference_thomas";
  let cp = Array.make n 0.0 and dp = Array.make n 0.0 in
  cp.(0) <- c.(0) /. b.(0);
  dp.(0) <- d.(0) /. b.(0);
  for i = 1 to n - 1 do
    let m = b.(i) -. (a.(i) *. cp.(i - 1)) in
    cp.(i) <- c.(i) /. m;
    dp.(i) <- (d.(i) -. (a.(i) *. dp.(i - 1))) /. m
  done;
  let x = Array.make n 0.0 in
  x.(n - 1) <- dp.(n - 1);
  for i = n - 2 downto 0 do
    x.(i) <- dp.(i) -. (cp.(i) *. x.(i + 1))
  done;
  x

(* A random diagonally dominant system (well-conditioned for the f32 CR). *)
let random_system ~n rng =
  let a = Array.init n (fun i -> if i = 0 then 0.0 else Random.State.float rng 2.0 -. 1.0) in
  let c =
    Array.init n (fun i ->
        if i = n - 1 then 0.0 else Random.State.float rng 2.0 -. 1.0)
  in
  let b =
    Array.init n (fun i ->
        abs_float a.(i) +. abs_float c.(i) +. 1.0
        +. Random.State.float rng 1.0)
  in
  let d = Array.init n (fun _ -> Random.State.float rng 2.0 -. 1.0) in
  (a, b, c, d)

(* Solve [nsys] systems (rows of the flattened arrays) on the functional
   simulator. *)
let run_simulated ?spec ~n ~padded systems =
  let nsys = List.length systems in
  if nsys = 0 then invalid_arg "Tridiag.run_simulated: no systems";
  let flat select =
    Array.concat (List.map (fun s -> Array.map Gpu_sim.Value.round_f32 (select s)) systems)
  in
  let k = Gpu_kernel.Compile.compile (kernel ~n ~padded) in
  let aa = Gpu_sim.Sim.float_arg "a" (flat (fun (a, _, _, _) -> a)) in
  let bb = Gpu_sim.Sim.float_arg "b" (flat (fun (_, b, _, _) -> b)) in
  let cc = Gpu_sim.Sim.float_arg "c" (flat (fun (_, _, c, _) -> c)) in
  let dd = Gpu_sim.Sim.float_arg "d" (flat (fun (_, _, _, d) -> d)) in
  let xx = Gpu_sim.Sim.float_arg "x" (Array.make (nsys * n) 0.0) in
  let _ =
    Gpu_sim.Sim.launch ?spec ~grid:nsys ~block:(threads ~n)
      ~args:[ aa; bb; cc; dd; xx ]
      k
  in
  Gpu_sim.Sim.read_floats xx

(* What the Section 5.2 experiments analyse (512 systems of 512 equations
   in the paper).  Blocks are homogeneous, so a small sample is exact. *)
let input ~nsys ~n ~padded =
  let words = nsys * n in
  (* All-zero coefficients would divide by zero in rcp; load b = 1.  One
     zero buffer serves the other four arguments, as in [Matmul.input]:
     each gets its own device region and nothing is copied back. *)
  let zeros = Gpu_sim.Memory.zeros words in
  let args =
    [
      ("a", zeros);
      ("b", Gpu_sim.Memory.const_float words 1.0);
      ("c", zeros);
      ("d", zeros);
      ("x", zeros);
    ]
  in
  {
    Gpu_model.Workflow.kernel = kernel ~n ~padded;
    grid = nsys;
    block = threads ~n;
    args;
    sample = Some 2;
  }

let analyze ?spec ?measure ~nsys ~n ~padded () =
  Gpu_model.Workflow.analyze ?spec ?measure (input ~nsys ~n ~padded)
