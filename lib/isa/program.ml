(* A kernel program: a flat instruction sequence with named labels.  This is
   the unit the assembler produces and the simulators execute; it plays the
   role of a CUBIN kernel image. *)

type line = Label of string | Instr of Instr.t

type t = {
  name : string;
  code : Instr.t array;
  labels : (string * int) list; (* label -> pc of the following instruction *)
  max_reg : int; (* highest general register named, -1 if none *)
}

(* Highest general-purpose register index used, or -1 if none.  The register
   demand of a kernel is [max_reg + 1]; occupancy computations use it.
   Computed once per program: the simulator sizes its per-run liveness
   sets by it. *)
let highest_reg code =
  let top acc = function
    | Instr.Gpr (R i) -> max acc i
    | Instr.Prd _ -> acc
  in
  Array.fold_left
    (fun acc (i : Instr.t) ->
      let acc =
        match Instr.writes i.op with Some w -> top acc w | None -> acc
      in
      List.fold_left top acc (Instr.reads i.op))
    (-1) code

exception Unknown_label of string

exception Duplicate_label of string

let of_lines ~name lines =
  let rec scan pc labels rev_code = function
    | [] -> (List.rev labels, Array.of_list (List.rev rev_code))
    | Label l :: rest ->
      if List.mem_assoc l labels then raise (Duplicate_label l);
      scan pc ((l, pc) :: labels) rev_code rest
    | Instr i :: rest -> scan (pc + 1) labels (i :: rev_code) rest
  in
  let labels, code = scan 0 [] [] lines in
  (* Every branch target must resolve. *)
  let check = function
    | { Instr.op = Instr.Bra l; _ } ->
      if not (List.mem_assoc l labels) then raise (Unknown_label l)
    | { Instr.op = Instr.Bra_pred (_, _, target, reconv); _ } ->
      if not (List.mem_assoc target labels) then raise (Unknown_label target);
      if not (List.mem_assoc reconv labels) then raise (Unknown_label reconv)
    | _ -> ()
  in
  Array.iter check code;
  { name; code; labels; max_reg = highest_reg code }

let name t = t.name

let code t = t.code

let length t = Array.length t.code

let target_pc t label =
  match List.assoc_opt label t.labels with
  | Some pc -> pc
  | None -> raise (Unknown_label label)

let labels_at t pc = List.filter_map
    (fun (l, p) -> if p = pc then Some l else None)
    t.labels

let max_reg t = t.max_reg

let register_demand t = max_reg t + 1

(* Static histogram over cost classes: one count per class present. *)
let static_histogram t =
  let counts = List.map (fun c -> (c, ref 0)) Instr.all_cost_classes in
  Array.iter (fun i -> incr (List.assoc (Instr.classify i) counts)) t.code;
  List.map (fun (c, r) -> (c, !r)) counts

let pp ppf t =
  Fmt.pf ppf ".entry %s@." t.name;
  Array.iteri
    (fun pc i ->
      List.iter (fun l -> Fmt.pf ppf "%s:@." l) (labels_at t pc);
      Fmt.pf ppf "  %a@." Instr.pp i)
    t.code;
  (* trailing labels (e.g. an end label after the last instruction) *)
  List.iter (fun l -> Fmt.pf ppf "%s:@." l) (labels_at t (Array.length t.code))

let to_string t = Fmt.str "%a" pp t
