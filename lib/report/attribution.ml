(* Hotspot attribution.  The invariant that makes the tables trustworthy:
   every formula here is the model's own stage formula restricted to one
   pc, using the very throughputs/bandwidths the stage analysis recorded
   — so summing a component's rows reproduces the component's stage time
   (up to FP associativity), and the test suite asserts it. *)

module Stats = Gpu_sim.Stats
module Model = Gpu_model.Model
module Component = Gpu_model.Component
module I = Gpu_isa.Instr

type row = {
  pc : int;
  src : string;
  instr : string Lazy.t;
  cls : I.cost_class;
  count : int;
  seconds : float;
  share : float;
}

type stage = {
  index : int;
  times : Component.times;
  bottleneck : Component.t;
  active_warps : int;
  instruction : row list;
  shared : row list;
  atomic : row list;
  global : row list;
}

type t = { stages : stage list; covered : bool }

let order rows =
  List.sort
    (fun a b ->
      let c = compare b.seconds a.seconds in
      if c <> 0 then c else compare a.pc b.pc)
    rows

let share ~total seconds = if total > 0.0 then seconds /. total else 0.0

let unknown_instr = Lazy.from_val "?"

let analyze_stage ~(report : Gpu_model.Workflow.report) ~balance ~instrs
    (sa : Model.stage_analysis) (s : Stats.stage) =
  let code = Gpu_isa.Program.code report.compiled.program in
  let srcmap = report.compiled.srcmap in
  let scale = report.scale in
  (* The same spec-derived transaction size the model charged with, so
     shared/atomic rows still tile to the stage's component times. *)
  let transaction_bytes =
    Gpu_hw.Spec.smem_transaction_bytes report.analysis.Model.spec
  in
  let describe pc =
    let src =
      if pc >= 0 && pc < Array.length srcmap then srcmap.(pc) else "<asm>"
    in
    let instr, cls =
      if pc >= 0 && pc < Array.length code then
        (instrs.(pc), I.classify code.(pc))
      else (unknown_instr, I.Class_ii)
    in
    (src, instr, cls)
  in
  let sites = Stats.sites s in
  let instruction =
    List.filter_map
      (fun (site : Stats.site) ->
        if site.issued = 0 then None
        else begin
          let src, instr, cls = describe site.pc in
          let tput = sa.Model.class_throughput.(Stats.class_index cls) in
          let seconds =
            float_of_int site.issued *. scale /. (tput *. 1e9) /. balance
          in
          Some
            {
              pc = site.pc;
              src;
              instr;
              cls;
              count = site.issued;
              seconds;
              share = share ~total:sa.Model.times.Component.instruction
                        seconds;
            }
        end)
      sites
  in
  let shared =
    List.filter_map
      (fun (site : Stats.site) ->
        if site.smem_txns = 0 then None
        else begin
          let src, instr, cls = describe site.pc in
          let seconds =
            float_of_int (site.smem_txns * transaction_bytes)
            *. scale
            /. (sa.Model.smem_bandwidth *. 1e9)
            /. balance
          in
          Some
            {
              pc = site.pc;
              src;
              instr;
              cls;
              count = site.smem_txns;
              seconds;
              share = share ~total:sa.Model.times.Component.shared seconds;
            }
        end)
      sites
  in
  let atomic =
    List.filter_map
      (fun (site : Stats.site) ->
        if site.atomic_txns = 0 then None
        else begin
          let src, instr, cls = describe site.pc in
          let seconds =
            float_of_int (site.atomic_txns * transaction_bytes)
            *. scale
            /. (sa.Model.smem_bandwidth *. 1e9)
            /. balance
          in
          Some
            {
              pc = site.pc;
              src;
              instr;
              cls;
              count = site.atomic_txns;
              seconds;
              share = share ~total:sa.Model.times.Component.atomic seconds;
            }
        end)
      sites
  in
  let global =
    List.filter_map
      (fun (site : Stats.site) ->
        if site.gmem_transferred_bytes = 0 then None
        else begin
          let src, instr, cls = describe site.pc in
          let seconds =
            (* gmem_bandwidth is +inf for a stage with no global traffic,
               but such stages have no gmem sites either *)
            float_of_int site.gmem_transferred_bytes
            *. scale
            /. (sa.Model.gmem_bandwidth *. 1e9)
          in
          Some
            {
              pc = site.pc;
              src;
              instr;
              cls;
              count = site.gmem_transferred_bytes;
              seconds;
              share = share ~total:sa.Model.times.Component.global seconds;
            }
        end)
      sites
  in
  {
    index = sa.Model.index;
    times = sa.Model.times;
    bottleneck = sa.Model.bottleneck;
    active_warps = sa.Model.active_warps;
    instruction = order instruction;
    shared = order shared;
    atomic = order atomic;
    global = order global;
  }

let of_report (report : Gpu_model.Workflow.report) =
  let analysis = report.analysis in
  let balance =
    Model.load_balance ~spec:analysis.Model.spec ~grid:analysis.Model.grid
  in
  let stat_stages = Array.to_list (Stats.stages report.stats) in
  (* Disassembling a pc costs more than the rest of its row, and a report
     shows only the top few rows of each table: each pc's text is
     formatted the first time a shown row needs it, once for every row
     and stage that shares the pc. *)
  let instrs =
    Array.map
      (fun i -> lazy (Fmt.str "%a" I.pp i))
      (Gpu_isa.Program.code report.compiled.program)
  in
  let stages =
    List.map2
      (fun sa s -> analyze_stage ~report ~balance ~instrs sa s)
      analysis.Model.stages stat_stages
  in
  let covered =
    List.for_all2
      (fun st (s : Stats.stage) ->
        Stats.total_issued s = 0 || st.instruction <> [])
      stages stat_stages
  in
  { stages; covered }

let rows st = function
  | Component.Instruction_pipeline -> st.instruction
  | Component.Shared_memory -> st.shared
  | Component.Atomic -> st.atomic
  | Component.Global_memory -> st.global

let top n rows =
  let rec split i acc = function
    | [] -> (List.rev acc, None)
    | rest when i >= n ->
      let folded =
        List.fold_left (fun s r -> s +. r.seconds) 0.0 rest
      in
      (List.rev acc, Some (List.length rest, folded))
    | r :: rest -> split (i + 1) (r :: acc) rest
  in
  split 0 [] rows
