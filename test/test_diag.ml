(* Tests for the diagnostic subsystem and the deterministic fault-injection
   harness: seeded corruption of kernel images and listings, forced
   simulator traps, poisoned memory transactions, and degenerate launch
   geometry must all surface as structured [Result.Error] diagnostics —
   never as an escaped exception — with the partial statistics accumulated
   before a mid-run fault staying internally consistent. *)

module D = Gpu_diag.Diag
module Inject = Gpu_diag.Inject
module I = Gpu_isa.Instr
module P = Gpu_isa.Program
module Ir = Gpu_kernel.Ir
module Sim = Gpu_sim.Sim
module Stats = Gpu_sim.Stats

(* The gpuperf commands the suite runs inherit the private cache. *)
let (_ : string) = Private_cache.use "diag"

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Structural sanity of any diagnostic that reaches a user. *)
let well_formed what (d : D.t) =
  Alcotest.(check bool) (what ^ ": message nonempty") true
    (String.length d.D.message > 0);
  Alcotest.(check bool) (what ^ ": renders") true
    (String.length (D.render ~color:false d) > 0)

(* --- diag core ---------------------------------------------------------- *)

let test_render () =
  let d =
    D.error ~location:(D.Byte_offset 0x10) ~hint:"re-assemble it" D.Disasm
      "bad magic %s" "XXXX"
  in
  let plain = D.render ~color:false ~prefix:"gpuperf" d in
  Alcotest.(check bool) "has prefix" true (contains plain "gpuperf");
  Alcotest.(check bool) "has stage" true (contains plain "disasm");
  Alcotest.(check bool) "has severity" true (contains plain "error");
  Alcotest.(check bool) "has message" true (contains plain "bad magic XXXX");
  Alcotest.(check bool) "has hint" true (contains plain "re-assemble it");
  Alcotest.(check bool) "plain has no escapes" false (contains plain "\027[");
  let colored = D.render ~color:true d in
  Alcotest.(check bool) "colored has escapes" true (contains colored "\027[")

let test_severity_order () =
  Alcotest.(check bool) "error > warning" true
    (D.compare_severity D.Error D.Warning > 0);
  Alcotest.(check bool) "warning > info" true
    (D.compare_severity D.Warning D.Info > 0);
  Alcotest.(check int) "error = error" 0 (D.compare_severity D.Error D.Error)

let test_collector () =
  let c = D.collector () in
  Alcotest.(check bool) "empty max" true (D.max_severity c = None);
  D.emit c (D.warning D.Model "w1");
  D.emit c (D.info D.Model "i1");
  Alcotest.(check bool) "warning max" true
    (D.max_severity c = Some D.Warning);
  Alcotest.(check bool) "no errors yet" false (D.has_errors c);
  D.emit c (D.error D.Model "e1");
  Alcotest.(check bool) "has errors" true (D.has_errors c);
  Alcotest.(check (list string)) "emission order" [ "w1"; "i1"; "e1" ]
    (List.map (fun (d : D.t) -> d.D.message) (D.items c))

let test_protect () =
  (match D.protect ~stage:D.Cli (fun () -> 41 + 1) with
  | Ok v -> Alcotest.(check int) "ok passes through" 42 v
  | Error _ -> Alcotest.fail "protect broke a successful call");
  (match D.protect ~stage:D.Cli (fun () -> raise Not_found) with
  | Ok _ -> Alcotest.fail "expected Error"
  | Error d ->
    well_formed "protect/not_found" d;
    Alcotest.(check bool) "stage attributed" true (d.D.stage = D.Cli));
  match
    D.protect ~stage:D.Exec
      ~convert:(function
        | Failure m -> Some (D.error D.Exec "converted: %s" m) | _ -> None)
      (fun () -> failwith "boom")
  with
  | Error d ->
    Alcotest.(check bool) "convert used" true
      (contains d.D.message "converted: boom")
  | Ok _ -> Alcotest.fail "expected Error"

(* --- deterministic injection -------------------------------------------- *)

let test_inject_deterministic () =
  let a = Inject.make ~seed:7 and b = Inject.make ~seed:7 in
  for i = 0 to 9 do
    Alcotest.(check int64)
      (Printf.sprintf "stream position %d" i)
      (Inject.bits64 a) (Inject.bits64 b)
  done;
  let s = String.init 64 Char.chr in
  let c1 = Inject.corrupt_bytes (Inject.make ~seed:3) ~flips:4 s in
  let c2 = Inject.corrupt_bytes (Inject.make ~seed:3) ~flips:4 s in
  Alcotest.(check string) "same seed, same corruption" c1 c2;
  Alcotest.(check int) "length preserved" 64 (String.length c1);
  let t = Inject.truncate (Inject.make ~seed:5) s in
  Alcotest.(check bool) "strict prefix" true
    (String.length t < 64 && t = String.sub s 0 (String.length t));
  Alcotest.(check bool) "bounded draw" true
    (let r = Inject.make ~seed:11 in
     let x = Inject.int r 17 in
     x >= 0 && x < 17)

(* --- a program exercising every opcode ---------------------------------- *)

let every_opcode_program () =
  let r0 = I.R 0 in
  let rg n = I.Reg (I.R n) in
  let addr = { I.base = I.R 1; offset = 16 } in
  let ops =
    [ I.Mov (r0, rg 1); I.Mov (r0, I.Imm 42l); I.Mov (r0, I.Fimm 1.5) ]
    @ List.map
        (fun sr -> I.Mov_sreg (r0, sr))
        [ I.Tid_x; I.Ntid_x; I.Ctaid_x; I.Nctaid_x; I.Laneid; I.Warpid ]
    @ List.map
        (fun op -> I.Iop (op, r0, rg 1, rg 2))
        [
          I.Add; I.Sub; I.Mul24; I.Mul; I.Min; I.Max; I.And; I.Or; I.Xor;
          I.Shl; I.Shr;
        ]
    @ [ I.Imad (r0, rg 1, rg 2, rg 3) ]
    @ List.map
        (fun op -> I.Fop (op, r0, rg 1, rg 2))
        [ I.Fadd; I.Fsub; I.Fmul; I.Fmin; I.Fmax ]
    @ [ I.Fmad (r0, rg 1, rg 2, rg 3); I.Fmad_smem (r0, rg 1, addr, rg 3) ]
    @ List.map (fun op -> I.Dop (op, r0, rg 1, rg 2)) [ I.Dadd; I.Dmul ]
    @ [ I.Dfma (r0, rg 1, rg 2, rg 3) ]
    @ List.map
        (fun op -> I.Sfu (op, r0, rg 1))
        [ I.Rcp; I.Rsqrt; I.Sin; I.Cos; I.Lg2; I.Ex2 ]
    @ List.map (fun op -> I.Cvt (op, r0, rg 1)) [ I.I2f; I.F2i; I.F2i_rni ]
    @ List.concat_map
        (fun ct ->
          List.map
            (fun c -> I.Setp (c, ct, I.P 0, rg 1, rg 2))
            [ I.Eq; I.Ne; I.Lt; I.Le; I.Gt; I.Ge ])
        [ I.S32; I.F32 ]
    @ [ I.Selp (r0, rg 1, rg 2, I.P 0) ]
    @ [
        I.Ld (I.Global, 4, r0, addr);
        I.Ld (I.Global, 8, r0, addr);
        I.Ld (I.Shared, 4, r0, addr);
        I.St (I.Global, 4, addr, rg 2);
        I.St (I.Shared, 8, addr, rg 2);
      ]
    @ List.map
        (fun op -> I.Atom (op, r0, addr, rg 2, None))
        [ I.Aadd; I.Amin; I.Amax ]
    @ [ I.Atom (I.Acas, r0, addr, rg 2, Some (rg 3)) ]
    @ [
        I.Bra "top";
        I.Bra_pred (I.P 1, true, "top", "join");
        I.Bra_pred (I.P 1, false, "top", "join");
        I.Bar;
      ]
  in
  let lines =
    [ P.Label "top" ]
    @ List.map (fun op -> P.Instr (I.mk op)) ops
    @ [
        P.Label "join";
        P.Instr (I.mk ~pred:(I.P 2, false) (I.Mov (r0, rg 1)));
        P.Instr (I.mk I.Exit);
      ]
  in
  P.of_lines ~name:"allops" lines

let reference_image = lazy (Gpu_isa.Encode.encode (every_opcode_program ()))

let test_roundtrip_every_opcode () =
  let p = every_opcode_program () in
  let listing = P.to_string p in
  (* the image format and the listing syntax, pinned: any change to
     either changes these digests *)
  let md5 s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) "image bytes" "2dfccccb6057e7d7ac1de33959c6df99"
    (md5 (Lazy.force reference_image));
  Alcotest.(check string) "listing text" "ef04813e894e875b00d7f04a113ae2de"
    (md5 listing);
  (* binary: asm -> image -> disasm *)
  (match Gpu_isa.Encode.decode_result (Lazy.force reference_image) with
  | Error d -> Alcotest.fail ("decode of own encoding failed: " ^ d.D.message)
  | Ok p' ->
    Alcotest.(check string) "binary round trip" listing (P.to_string p'));
  (* text: listing -> program -> listing *)
  match Gpu_isa.Asm.parse_result listing with
  | Error d -> Alcotest.fail ("parse of own listing failed: " ^ d.D.message)
  | Ok p' -> Alcotest.(check string) "asm round trip" listing (P.to_string p')

(* --- seeded decoder corruption scenarios -------------------------------- *)

(* The sense byte of a conditional branch is a tag like the others: only
   0 and 1 decode, so a corrupt one cannot silently negate the branch. *)
let test_branch_sense_byte () =
  let image sense =
    Gpu_isa.Encode.encode
      (P.of_lines ~name:"b"
         [
           P.Label "top";
           P.Instr (I.mk (I.Bra_pred (I.P 1, sense, "top", "top")));
           P.Instr (I.mk I.Exit);
         ])
  in
  let taken = image true and negated = image false in
  let at = ref 0 in
  while taken.[!at] = negated.[!at] do incr at done;
  let patched = Bytes.of_string taken in
  Bytes.set patched !at '\007';
  match Gpu_isa.Encode.decode_result (Bytes.to_string patched) with
  | Ok p -> Alcotest.failf "sense byte 7 decoded as %s" (P.to_string p)
  | Error d ->
    Alcotest.(check string) "message" "bad branch sense 7" d.D.message;
    Alcotest.(check bool) "located just past the sense byte" true
      (d.D.location = D.Byte_offset (!at + 1))

let test_corrupt_image () =
  let image = Lazy.force reference_image in
  for seed = 0 to 9 do
    let r = Inject.make ~seed in
    let mutated = Inject.corrupt_bytes r ~flips:(1 + (seed mod 4)) image in
    match Gpu_isa.Encode.decode_result mutated with
    | Ok _ -> () (* a lucky flip may still decode; that is fine *)
    | Error d ->
      well_formed (Printf.sprintf "corrupt seed %d" seed) d;
      Alcotest.(check bool) "disasm stage" true (d.D.stage = D.Disasm);
      Alcotest.(check bool) "error severity" true (d.D.severity = D.Error)
  done

let test_flip_bits_image () =
  let image = Lazy.force reference_image in
  for seed = 100 to 104 do
    let r = Inject.make ~seed in
    let mutated = Inject.flip_bits r ~flips:(1 + (seed mod 8)) image in
    match Gpu_isa.Encode.decode_result mutated with
    | Ok _ -> ()
    | Error d -> well_formed (Printf.sprintf "bitflip seed %d" seed) d
  done

let test_truncated_image () =
  let image = Lazy.force reference_image in
  for seed = 20 to 25 do
    let r = Inject.make ~seed in
    let prefix = Inject.truncate r image in
    match Gpu_isa.Encode.decode_result prefix with
    | Ok _ ->
      Alcotest.fail
        (Printf.sprintf "truncated image (seed %d, %d of %d bytes) decoded"
           seed (String.length prefix) (String.length image))
    | Error d ->
      well_formed (Printf.sprintf "truncate seed %d" seed) d;
      Alcotest.(check bool) "disasm stage" true (d.D.stage = D.Disasm)
  done

let test_random_bytes_image () =
  for seed = 30 to 39 do
    let r = Inject.make ~seed in
    let blob = Inject.random_bytes r (Inject.int r 96) in
    match Gpu_isa.Encode.decode_result blob with
    | Ok _ ->
      Alcotest.fail (Printf.sprintf "random blob (seed %d) decoded" seed)
    | Error d -> well_formed (Printf.sprintf "random seed %d" seed) d
  done

let test_corrupt_listing () =
  let listing = P.to_string (every_opcode_program ()) in
  for seed = 50 to 54 do
    let r = Inject.make ~seed in
    let mutated = Inject.corrupt_bytes r ~flips:3 listing in
    match Gpu_isa.Asm.parse_result mutated with
    | Ok _ -> () (* corruption inside a comment or label is harmless *)
    | Error d ->
      well_formed (Printf.sprintf "listing seed %d" seed) d;
      Alcotest.(check bool) "asm stage" true (d.D.stage = D.Asm)
  done

(* --- compiler failures --------------------------------------------------- *)

let test_compile_failures () =
  let kernel body =
    { Ir.name = "bad"; params = [ "out" ]; shared = []; body }
  in
  (match
     Gpu_kernel.Compile.compile_result
       (kernel [ Ir.Let ("x", Ir.Var "nope") ])
   with
  | Ok _ -> Alcotest.fail "unbound variable compiled"
  | Error d ->
    well_formed "unbound var" d;
    Alcotest.(check bool) "compile stage" true (d.D.stage = D.Compile);
    (match d.D.location with
    | D.Ir_site path ->
      Alcotest.(check bool) "site names the statement" true
        (contains path "let x")
    | _ -> Alcotest.fail "expected an Ir_site location"));
  (match
     Gpu_kernel.Compile.compile_result
       (kernel [ Ir.Assign ("ghost", Ir.Int 1) ])
   with
  | Ok _ -> Alcotest.fail "assign to unbound name compiled"
  | Error d -> well_formed "unbound assign" d);
  (match
     Gpu_kernel.Compile.compile_result
       (kernel [ Ir.St_shared ("ghost", Ir.Int 0, Ir.Int 1) ])
   with
  | Ok _ -> Alcotest.fail "store to undeclared shared array compiled"
  | Error d -> well_formed "unknown shared" d);
  match
    Gpu_kernel.Compile.compile_result ~max_registers:2
      (kernel
         [
           Ir.Let ("a", Ir.(Tid + i 1));
           Ir.Let ("b", Ir.(v "a" + i 2));
           Ir.Let ("c", Ir.(v "b" + v "a"));
           Ir.St_global ("out", Ir.Tid, Ir.v "c");
         ])
  with
  | Ok _ -> Alcotest.fail "register overflow compiled"
  | Error d ->
    well_formed "register overflow" d;
    Alcotest.(check bool) "mentions registers" true
      (contains d.D.message "register")

(* --- simulator traps and partial statistics ------------------------------ *)

let vadd =
  {
    Ir.name = "vadd";
    params = [ "a"; "b"; "c" ];
    shared = [];
    body =
      [
        Ir.Let ("gid", Ir.(imad Ctaid Ntid Tid));
        Ir.St_global
          ( "c",
            Ir.v "gid",
            Ir.(Ld_global ("a", v "gid") + Ld_global ("b", v "gid")) );
      ];
  }

let loop_kernel =
  {
    Ir.name = "loop";
    params = [ "out" ];
    shared = [];
    body =
      [
        Ir.Local ("acc", Ir.Int 0);
        Ir.For
          ("i", Ir.i 0, Ir.i 32, [ Ir.Assign ("acc", Ir.(v "acc" + v "i")) ]);
        Ir.St_global ("out", Ir.Tid, Ir.v "acc");
      ];
  }

let vadd_args n =
  [
    ("a", Gpu_sim.Memory.init n Fun.id);
    ("b", Gpu_sim.Memory.init n Fun.id);
    ("c", Gpu_sim.Memory.zeros n);
  ]

let total_issued stats = Stats.total_issued (Stats.total stats)

let test_injected_trap () =
  let k = Gpu_kernel.Compile.compile loop_kernel in
  let args = [ ("out", Gpu_sim.Memory.zeros 128) ] in
  let issued_at n =
    match
      Sim.launch_result ~inject_stuck_at:n ~grid:4 ~block:32 ~args k
    with
    | Ok _ -> Alcotest.fail "injected trap did not fire"
    | Error f ->
      well_formed (Printf.sprintf "trap at %d" n) f.Sim.diag;
      Alcotest.(check bool) "exec stage" true (f.Sim.diag.D.stage = D.Exec);
      (match f.Sim.diag.D.location with
      | D.Sim_site { block = Some 0; _ } -> ()
      | _ -> Alcotest.fail "trap not located at block 0");
      Alcotest.(check int) "no block completed" 0 f.Sim.blocks_completed;
      (* the trap fires before the n-th instruction is counted, so the
         partial statistics hold exactly the n-1 fully issued ones *)
      Alcotest.(check int)
        (Printf.sprintf "exact partial count at %d" n)
        (n - 1)
        (total_issued f.Sim.partial_stats);
      total_issued f.Sim.partial_stats
  in
  let i5 = issued_at 5 in
  let i10 = issued_at 10 in
  let i40 = issued_at 40 in
  Alcotest.(check bool) "partial stats grow with the trap point" true
    (i5 < i10 && i10 < i40);
  (* a trap point beyond the program's dynamic length never fires, and the
     run matches an uninstrumented one *)
  match
    ( Sim.launch_result ~inject_stuck_at:1_000_000 ~grid:4 ~block:32 ~args k,
      Sim.launch_result ~grid:4 ~block:32 ~args k )
  with
  | Ok a, Ok b ->
    Alcotest.(check int) "hook is inert when unreached"
      (total_issued b.Sim.stats) (total_issued a.Sim.stats);
    Alcotest.(check int) "all blocks ran" 4 a.Sim.blocks_run
  | _ -> Alcotest.fail "unreached trap point aborted the run"

let test_poisoned_memory () =
  let k = Gpu_kernel.Compile.compile vadd in
  (match
     Sim.launch_result ~poison:[ (0, 4096) ] ~grid:2 ~block:32
       ~args:(vadd_args 64) k
   with
  | Ok _ -> Alcotest.fail "poisoned transaction did not fault"
  | Error f ->
    well_formed "poison" f.Sim.diag;
    Alcotest.(check bool) "exec stage" true (f.Sim.diag.D.stage = D.Exec);
    Alcotest.(check bool) "names the injected poison" true
      (contains f.Sim.diag.D.message "poison");
    Alcotest.(check int) "faulted in the first block" 0
      f.Sim.blocks_completed);
  (* poison outside every transaction is inert *)
  match
    Sim.launch_result ~poison:[ (1 lsl 20, 64) ] ~grid:2 ~block:32
      ~args:(vadd_args 64) k
  with
  | Ok _ -> ()
  | Error f -> Alcotest.fail ("inert poison faulted: " ^ f.Sim.diag.D.message)

(* The values face driven through [Machine] as [Sim.launch] drives it,
   keeping a fault's message, the statistics so far and the completed
   blocks, which [Sim.launch] itself does not return. *)
let values_face_fault ?(poison = []) ~grid ~block ~args
    (k : Gpu_kernel.Compile.compiled) =
  let module M = Gpu_sim.Machine in
  let module Mem = Gpu_sim.Memory in
  let buffers = List.map (fun (name, _) -> List.assoc name args) k.param_regs in
  let allocs, bytes = Mem.layout (List.map Mem.length buffers) in
  let gmem = Mem.create ~bytes in
  List.iter2 (Fun.flip (Mem.copy_in gmem)) buffers allocs;
  List.iter (fun (addr, width) -> Mem.poison gmem ~addr ~width) poison;
  let run = M.prepare ~values:true (M.config Gpu_hw.Spec.gtx285) k.program in
  let stats = Stats.create () and completed = ref 0 in
  match
    for bid = 0 to grid - 1 do
      let blk =
        M.make_block ~bid ~grid ~nthreads:block ~smem_bytes:k.smem_bytes
          ~nregs:(max 1 k.reg_demand)
      in
      List.iter2
        (fun (_, r) (a : Mem.allocation) ->
          M.set_param blk (I.R r) (Gpu_sim.Value.of_int a.base))
        k.param_regs allocs;
      M.run_block run ~gmem ~stats blk;
      incr completed
    done
  with
  | () -> Alcotest.fail "the values face did not fault"
  | exception Mem.Fault m -> (m, Stats.stages stats, !completed)

(* vadd's statistics face loads no global word, so its device memory is
   layout-only: a store past the last buffer and a poisoned load still
   fault with the values face's message, partial statistics and
   completed blocks. *)
let test_layout_only_faults () =
  let k = Gpu_kernel.Compile.compile vadd in
  Alcotest.(check bool) "layout-only" false
    (Gpu_sim.Machine.moves_global_words
       (Gpu_sim.Machine.prepare ~values:false
          (Gpu_sim.Machine.config Gpu_hw.Spec.gtx285)
          k.program));
  List.iter
    (fun (what, poison, grid) ->
      let msg, stages, completed =
        values_face_fault ~poison ~grid ~block:32 ~args:(vadd_args 64) k
      in
      match
        Sim.launch_result ~poison ~grid ~block:32 ~args:(vadd_args 64) k
      with
      | Ok _ -> Alcotest.failf "%s: did not fault" what
      | Error f ->
        Alcotest.(check string) (what ^ ": message") msg f.Sim.diag.D.message;
        Alcotest.(check bool) (what ^ ": exec stage") true
          (f.Sim.diag.D.stage = D.Exec);
        Alcotest.(check bool) (what ^ ": partial statistics") true
          (Stats.stages f.Sim.partial_stats = stages);
        Alcotest.(check int) (what ^ ": blocks completed") completed
          f.Sim.blocks_completed)
    [
      ("store past the last buffer", [], 3);
      ("poisoned load", [ (256 + 40, 4) ], 2);
    ]

let test_launch_failures () =
  let k = Gpu_kernel.Compile.compile vadd in
  let expect_launch ?says what run =
    match run () with
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error f ->
      well_formed what f.Sim.diag;
      Option.iter
        (fun m ->
          Alcotest.(check string) (what ^ ": message") m f.Sim.diag.D.message)
        says;
      Alcotest.(check bool) (what ^ ": launch stage") true
        (f.Sim.diag.D.stage = D.Launch);
      Alcotest.(check int) (what ^ ": nothing ran") 0 f.Sim.blocks_completed;
      Alcotest.(check int) (what ^ ": no stats") 0
        (total_issued f.Sim.partial_stats)
  in
  expect_launch "zero-block grid" (fun () ->
      Sim.launch_result ~grid:0 ~block:32 ~args:(vadd_args 32) k);
  expect_launch "zero-thread block" (fun () ->
      Sim.launch_result ~grid:1 ~block:0 ~args:(vadd_args 32) k);
  expect_launch "oversized block" (fun () ->
      Sim.launch_result ~grid:1 ~block:4096 ~args:(vadd_args 32) k);
  expect_launch "missing argument" (fun () ->
      Sim.launch_result ~grid:1 ~block:32
        ~args:[ ("a", Gpu_sim.Memory.zeros 32) ]
        k);
  expect_launch "unknown argument" (fun () ->
      Sim.launch_result ~grid:1 ~block:32
        ~args:(("zz", Gpu_sim.Memory.zeros 4) :: vadd_args 32)
        k);
  (* binding by name could only ever use one of the two buffers *)
  expect_launch "duplicate argument" ~says:"duplicate kernel argument c"
    (fun () ->
      Sim.launch_result ~grid:1 ~block:32
        ~args:(vadd_args 32 @ [ ("c", Gpu_sim.Memory.zeros 32) ])
        k);
  expect_launch "block id outside grid" (fun () ->
      Sim.launch_result ~block_ids:[ 7 ] ~grid:2 ~block:32 ~args:(vadd_args 64)
        k)

let test_memory_fault_diag () =
  let wild =
    {
      Ir.name = "wild";
      params = [ "out" ];
      shared = [];
      body = [ Ir.St_global ("out", Ir.i 1_000_000, Ir.i 1) ];
    }
  in
  let k = Gpu_kernel.Compile.compile wild in
  match
    Sim.launch_result ~grid:1 ~block:32
      ~args:[ ("out", Gpu_sim.Memory.zeros 8) ]
      k
  with
  | Ok _ -> Alcotest.fail "out-of-bounds store did not fault"
  | Error f ->
    well_formed "oob store" f.Sim.diag;
    Alcotest.(check bool) "exec stage" true (f.Sim.diag.D.stage = D.Exec);
    Alcotest.(check bool) "has a hint" true (f.Sim.diag.D.hint <> None)

(* --- occupancy and model edge cases -------------------------------------- *)

let spec = Gpu_hw.Spec.gtx285

let test_occupancy_edges () =
  let demand threads regs smem =
    {
      Gpu_hw.Occupancy.threads_per_block = threads;
      registers_per_thread = regs;
      smem_per_block = smem;
    }
  in
  let expect_error what d =
    match Gpu_hw.Occupancy.compute_result ~spec d with
    | Ok _ -> Alcotest.fail (what ^ ": accepted")
    | Error diag ->
      well_formed what diag;
      Alcotest.(check bool) (what ^ ": occupancy stage") true
        (diag.D.stage = D.Occupancy)
  in
  expect_error "zero threads" (demand 0 16 0);
  expect_error "negative threads" (demand (-32) 16 0);
  expect_error "negative registers" (demand 256 (-1) 0);
  expect_error "negative smem" (demand 256 16 (-8));
  expect_error "block over thread ceiling" (demand 1024 16 0);
  expect_error "registers over the file" (demand 256 200 0);
  expect_error "smem over the SM" (demand 256 16 (1 lsl 20));
  (* out-of-range but valid shapes warn without failing *)
  let warns what d pred =
    match Gpu_hw.Occupancy.compute_result ~spec d with
    | Error diag -> Alcotest.fail (what ^ ": rejected: " ^ diag.D.message)
    | Ok o ->
      let ws = Gpu_hw.Occupancy.range_warnings ~spec d o in
      Alcotest.(check bool) (what ^ ": warned") true
        (List.exists
           (fun (w : D.t) -> w.D.severity = D.Warning && pred w.D.message)
           ws)
  in
  warns "partial warp" (demand 48 16 0) (fun m -> contains m "warp size");
  warns "sub-warp block" (demand 16 16 0) (fun m -> contains m "below one");
  warns "single resident block" (demand 512 32 0) (fun m ->
      contains m "one resident block");
  let d = demand 256 16 0 in
  match Gpu_hw.Occupancy.compute_result ~spec d with
  | Ok o ->
    Alcotest.(check int) "calibrated shape" 32 o.Gpu_hw.Occupancy.active_warps;
    Alcotest.(check int) "calibrated shape, no warnings" 0
      (List.length (Gpu_hw.Occupancy.range_warnings ~spec d o))
  | Error d -> Alcotest.fail ("calibrated shape rejected: " ^ d.D.message)

let test_model_edges () =
  let occ =
    Gpu_hw.Occupancy.compute ~spec
      {
        Gpu_hw.Occupancy.threads_per_block = 256;
        registers_per_thread = 16;
        smem_per_block = 0;
      }
  in
  let inputs grid block =
    {
      Gpu_model.Model.in_spec = spec;
      tables = Gpu_microbench.Tables.for_spec spec;
      stats = Stats.create ();
      scale = 1.0;
      in_grid = grid;
      in_block = block;
      in_occupancy = occ;
      blocks_run = max grid 1;
    }
  in
  (match Gpu_model.Model.analyze_result (inputs 0 256) with
  | Ok _ -> Alcotest.fail "0-block grid analyzed"
  | Error d ->
    well_formed "0-block grid" d;
    Alcotest.(check bool) "model stage" true (d.D.stage = D.Model);
    Alcotest.(check bool) "mentions the grid" true
      (contains d.D.message "grid"));
  match Gpu_model.Model.analyze_result (inputs 64 0) with
  | Ok _ -> Alcotest.fail "0-thread block analyzed"
  | Error d -> well_formed "0-thread block" d

(* --- end-to-end workflow ------------------------------------------------- *)

let test_workflow_result () =
  let input kernel ~grid ~block args =
    { Gpu_model.Workflow.kernel; grid; block; args; sample = None }
  in
  (* success: finite prediction, calibrated confidence surface *)
  (match
     Gpu_model.Workflow.analyze
       (input vadd ~grid:8 ~block:64 (vadd_args 512))
   with
  | exception D.Diag_error d ->
    Alcotest.fail ("vadd workflow failed: " ^ d.D.message)
  | report ->
    let a = report.Gpu_model.Workflow.analysis in
    Alcotest.(check bool) "prediction is finite" true
      (Float.is_finite a.Gpu_model.Model.predicted_seconds);
    Alcotest.(check bool) "prediction is positive" true
      (a.Gpu_model.Model.predicted_seconds > 0.0));
  (* Failures surface with their stage intact: [analyze] raises the
     failing stage's diagnostic, and with spans on, that stage's span
     closes tagged with its stage and severity. *)
  let broken =
    {
      Ir.name = "broken";
      params = [];
      shared = [];
      body = [ Ir.Let ("x", Ir.Var "nope") ];
    }
  in
  let wild =
    {
      Ir.name = "wild";
      params = [ "out" ];
      shared = [];
      body = [ Ir.St_global ("out", Ir.i 1_000_000, Ir.i 1) ];
    }
  in
  List.iter
    (fun (what, kernel, args, stage, span) ->
      Gpu_obs.Span.clear ();
      Gpu_obs.Span.set_enabled true;
      let failure =
        Fun.protect
          ~finally:(fun () -> Gpu_obs.Span.set_enabled false)
          (fun () ->
            match
              Gpu_model.Workflow.analyze (input kernel ~grid:1 ~block:32 args)
            with
            | _ -> Alcotest.failf "%s kernel analyzed" what
            | exception D.Diag_error d -> d)
      in
      well_formed what failure;
      Alcotest.(check string) (what ^ ": raised stage") (D.stage_name stage)
        (D.stage_name failure.D.stage);
      let tagged =
        List.filter
          (fun (c : Gpu_obs.Span.completed) ->
            let tag key = List.assoc_opt key c.Gpu_obs.Span.attrs in
            c.Gpu_obs.Span.name = span
            && tag "diag.stage" = Some (D.stage_name stage)
            && tag "diag.severity" = Some "error")
          (Gpu_obs.Span.completed ())
      in
      Alcotest.(check int) (what ^ ": " ^ span ^ " span tagged") 1
        (List.length tagged))
    [
      ("broken", broken, [], D.Compile, "compile");
      ( "wild",
        wild,
        [ ("out", Gpu_sim.Memory.zeros 8) ],
        D.Exec,
        "functional-sim" );
    ]

(* --- gpuperf exit codes -------------------------------------------------- *)

(* Located relative to the test binary so the tests pass under both
   [dune runtest] and [dune exec]. *)
let gpuperf_exe =
  Filename.concat
    (Filename.dirname Sys.executable_name)
    (Filename.concat ".." (Filename.concat "bin" "gpuperf.exe"))

let gpuperf args =
  Sys.command (Printf.sprintf "%s %s >/dev/null 2>&1" gpuperf_exe args)

let with_temp_file suffix contents f =
  let path = Filename.temp_file "gpuperf_test" suffix in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let oc = open_out_bin path in
      output_string oc contents;
      close_out oc;
      f path)

let test_cli_exit_codes () =
  let check_exit what expect code =
    Alcotest.(check int) (what ^ " exit code") expect code
  in
  check_exit "valid occupancy" 0 (gpuperf "occupancy --threads 64");
  check_exit "invalid occupancy" 1 (gpuperf "occupancy --threads 600");
  check_exit "invalid sweep rows" 1 (gpuperf "occupancy --sweep --regs 200");
  check_exit "malformed option value" 2 (gpuperf "occupancy --threads wat");
  check_exit "unknown subcommand" 2 (gpuperf "frobnicate");
  check_exit "unknown spmv format" 2 (gpuperf "analyze spmv --format bogus");
  check_exit "bad matmul tile" 1 (gpuperf "analyze matmul --tile 7");
  check_exit "another workload's flag" 1
    (gpuperf "analyze histogram --tile 16");
  with_temp_file ".cubin" (Lazy.force reference_image) (fun good ->
      check_exit "valid image" 0 (gpuperf ("disasm " ^ good)));
  let corrupt =
    Inject.truncate (Inject.make ~seed:42) (Lazy.force reference_image)
  in
  with_temp_file ".cubin" corrupt (fun bad ->
      check_exit "corrupt image" 1 (gpuperf ("disasm " ^ bad)));
  with_temp_file ".asm" "kernel k\nmov r0, r1\nbogus!!!\n" (fun bad ->
      check_exit "malformed listing" 1
        (gpuperf (Printf.sprintf "asm %s -o /dev/null" bad)));
  (* a predicate outside the register file must fail at assembly, not
     produce an image the disassembler rejects *)
  with_temp_file ".asm" ".entry k\n  set.lt.s32 $p5, $r0, 1\n  exit\n"
    (fun bad ->
      check_exit "listing naming $p5" 1
        (gpuperf (Printf.sprintf "asm %s -o /dev/null" bad)))

(* ------------------------------------------------------------------------- *)

let () =
  Alcotest.run "diag"
    [
      ( "core",
        [
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "severity order" `Quick test_severity_order;
          Alcotest.test_case "collector" `Quick test_collector;
          Alcotest.test_case "protect" `Quick test_protect;
        ] );
      ( "inject",
        [
          Alcotest.test_case "deterministic" `Quick test_inject_deterministic;
        ] );
      ( "decode",
        [
          Alcotest.test_case "round trip, every opcode" `Quick
            test_roundtrip_every_opcode;
          Alcotest.test_case "branch sense byte" `Quick test_branch_sense_byte;
          Alcotest.test_case "corrupted images" `Quick test_corrupt_image;
          Alcotest.test_case "bit flips" `Quick test_flip_bits_image;
          Alcotest.test_case "truncated images" `Quick test_truncated_image;
          Alcotest.test_case "random blobs" `Quick test_random_bytes_image;
          Alcotest.test_case "corrupted listings" `Quick test_corrupt_listing;
        ] );
      ( "compile",
        [ Alcotest.test_case "failures" `Quick test_compile_failures ] );
      ( "sim",
        [
          Alcotest.test_case "injected traps" `Quick test_injected_trap;
          Alcotest.test_case "poisoned memory" `Quick test_poisoned_memory;
          Alcotest.test_case "layout-only memory faults" `Quick
            test_layout_only_faults;
          Alcotest.test_case "launch failures" `Quick test_launch_failures;
          Alcotest.test_case "memory faults" `Quick test_memory_fault_diag;
        ] );
      ( "ranges",
        [
          Alcotest.test_case "occupancy edges" `Quick test_occupancy_edges;
          Alcotest.test_case "model edges" `Quick test_model_edges;
        ] );
      ( "workflow",
        [ Alcotest.test_case "result pipeline" `Quick test_workflow_result ] );
      ( "cli",
        [ Alcotest.test_case "exit codes" `Quick test_cli_exit_codes ] );
    ]
