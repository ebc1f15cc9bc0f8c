(* The served workloads — matmul, tridiag, spmv, reduce, histogram and
   degree — defined once.  The CLI, the daemon's wire protocol and its
   admission budget read the parameter variant, the wire names, the codec
   with its defaults and range checks, the analysis dispatch and the
   working-set estimate from here; a CLI flag is just another spelling of
   a wire key.  nbody, scan and transpose are reachable only through their
   own modules.

   Adding a workload touches this file alone (plus the workload's own
   module): one constructor in [Params], one [decoders] entry and one arm
   in each match over [params].  The interface is the signature [S]
   below rather than a separate .mli, so the variant is declared once. *)

(** The parameter variant, in a module of its own so that
    [Gpu_serve.Protocol] can re-export it by [include] without restating
    a constructor. *)
module Params = struct
  type params =
    | Matmul of { n : int; tile : int }
    | Tridiag of { nsys : int; n : int; padded : bool }
    | Spmv of { spmv_format : Spmv.format }
    | Reduce of { r_blocks : int; r_atomic : bool }
    | Histogram of { h_blocks : int; bins : int; skew : float }
    | Degree of { d_blocks : int; nodes : int; hub : float }
end

include Params

module type S = sig
  (** The wire names, in wire order. *)
  val names : string list

  (** The wire name: ["reduce"] for both reduce kernels (the atomic flag
      rides in the parameters). *)
  val name : params -> string

  (** The report and accuracy-ledger label: {!name}, except
      ["reduce-atomic"] for the atomic reduce, so the two kernels keep
      separate ledgers. *)
  val label : params -> string

  (** Every {!label} once, in wire order, with ["reduce-atomic"] right
      after ["reduce"]: the names of all the accuracy ledgers. *)
  val labels : string list

  (** Canonical SpMV format names (ell, bell+im, bell+imiv), the ones
      {!to_fields} writes. *)
  val spmv_format_names : string list

  (** A canonical name or an alias (bell, imiv). *)
  val spmv_format_of_name : string -> Spmv.format option

  (** [of_fields ~workload fields] decodes the [params] object of a wire
      request.  Absent keys take the defaults of [decoders]; sizes must
      be >= 1 and skew/hub in [0, 1]; a key the named workload does not
      use, an ill-typed value or an unknown workload is [Error message].
      Kernel shape constraints (matmul's tile divisibility) are left to
      kernel construction. *)
  val of_fields :
    workload:string ->
    (string * Gpu_obs.Jsonx.t) list ->
    (params, string) result

  (** Every field, canonical names:
      [of_fields ~workload:(name p) (to_fields p) = Ok p]. *)
  val to_fields : params -> (string * Gpu_obs.Jsonx.t) list

  (** Rough functional-simulation footprint in array elements (inputs,
      outputs, per-block partials); the daemon's admission budget scales
      it by its bytes per element. *)
  val working_set_elements : params -> int

  (** Run the Figure-1 workflow on the workload
      ({!Gpu_model.Workflow.analyze}; the spmv matrix is
      {!Spmv.qcd_like}).  Raises as the workload's own [analyze] does. *)
  val analyze :
    ?spec:Gpu_hw.Spec.t ->
    ?measure:bool ->
    ?sample:int ->
    ?replay_sample:Gpu_timing.Engine.sample ->
    ?timeline:Gpu_obs.Timeline.t ->
    ?ctx:Gpu_obs.Trace_ctx.t ->
    params ->
    Gpu_model.Workflow.report
end

include (
  struct
    module Jsonx = Gpu_obs.Jsonx

    let name = function
      | Matmul _ -> "matmul"
      | Tridiag _ -> "tridiag"
      | Spmv _ -> "spmv"
      | Reduce _ -> "reduce"
      | Histogram _ -> "histogram"
      | Degree _ -> "degree"

    let label = function
      | Reduce { r_atomic = true; _ } -> "reduce-atomic"
      | p -> name p

    (* Each SpMV layout with its wire names: the first is the one
       encoded, the rest are accepted aliases. *)
    let spmv_formats =
      [
        (Spmv.Ell, [ "ell" ]);
        (Spmv.Bell_im, [ "bell+im"; "bell" ]);
        (Spmv.Bell_imiv, [ "bell+imiv"; "imiv" ]);
      ]

    let spmv_format_names =
      List.map (fun (_, names) -> List.hd names) spmv_formats

    let spmv_format_of_name s =
      List.find_map
        (fun (f, names) -> if List.mem s names then Some f else None)
        spmv_formats

    let spmv_format_name f = List.hd (List.assoc f spmv_formats)

    (* --- the wire codec ------------------------------------------------- *)

    exception Bad of string

    let bad fmt = Printf.ksprintf (fun m -> raise (Bad m)) fmt

    let field fields key ~default convert kind =
      match List.assoc_opt key fields with
      | None -> default
      | Some v -> (
        match convert v with
        | Some x -> x
        | None -> bad "params: field %S must be %s" key kind)

    let positive fields key ~default =
      let v = field fields key ~default Jsonx.to_int "an integer" in
      if v < 1 then bad "params: field %S must be >= 1, got %d" key v;
      v

    let fraction fields key ~default =
      let v = field fields key ~default Jsonx.to_float "a number" in
      if not (v >= 0.0 && v <= 1.0) then
        bad "params: field %S must be in [0, 1], got %g" key v;
      v

    let flag fields key =
      field fields key ~default:false
        (function Jsonx.Bool b -> Some b | _ -> None)
        "a boolean"

    (* Each workload's wire name and decoder, in wire order.  The
       defaults here are the only ones: the CLI's flags and the wire's
       [params] object both start from them. *)
    let decoders =
      [
        ( "matmul",
          fun f ->
            Matmul
              {
                n = positive f "n" ~default:1024;
                tile = positive f "tile" ~default:16;
              } );
        ( "tridiag",
          fun f ->
            Tridiag
              {
                nsys = positive f "nsys" ~default:512;
                n = positive f "n" ~default:512;
                padded = flag f "padded";
              } );
        ( "spmv",
          fun f ->
            let s =
              field f "format" ~default:"ell" Jsonx.to_string "a string"
            in
            match spmv_format_of_name s with
            | Some spmv_format -> Spmv { spmv_format }
            | None ->
              bad "params: unknown spmv format %S (%s)" s
                (String.concat ", " spmv_format_names) );
        ( "reduce",
          fun f ->
            Reduce
              {
                r_blocks = positive f "blocks" ~default:512;
                r_atomic = flag f "atomic";
              } );
        ( "histogram",
          fun f ->
            Histogram
              {
                h_blocks = positive f "blocks" ~default:256;
                bins = positive f "bins" ~default:64;
                skew = fraction f "skew" ~default:0.8;
              } );
        ( "degree",
          fun f ->
            Degree
              {
                d_blocks = positive f "blocks" ~default:256;
                nodes = positive f "nodes" ~default:64;
                hub = fraction f "hub" ~default:0.3;
              } );
      ]

    let names = List.map fst decoders

    (* The wire names and the one label [label] adds, the atomic
       reduce's. *)
    let labels =
      List.concat_map
        (fun n -> if n = "reduce" then [ n; "reduce-atomic" ] else [ n ])
        names

    let jint i = Jsonx.Num (float_of_int i)

    let to_fields = function
      | Matmul { n; tile } -> [ ("n", jint n); ("tile", jint tile) ]
      | Tridiag { nsys; n; padded } ->
        [ ("nsys", jint nsys); ("n", jint n); ("padded", Jsonx.Bool padded) ]
      | Spmv { spmv_format } ->
        [ ("format", Jsonx.Str (spmv_format_name spmv_format)) ]
      | Reduce { r_blocks; r_atomic } ->
        [ ("blocks", jint r_blocks); ("atomic", Jsonx.Bool r_atomic) ]
      | Histogram { h_blocks; bins; skew } ->
        [
          ("blocks", jint h_blocks); ("bins", jint bins);
          ("skew", Jsonx.Num skew);
        ]
      | Degree { d_blocks; nodes; hub } ->
        [
          ("blocks", jint d_blocks); ("nodes", jint nodes);
          ("hub", Jsonx.Num hub);
        ]

    (* Each workload's keys, the ones it encodes; any other key is a
       misspelling or belongs to another workload. *)
    let known_keys =
      List.map
        (fun (name, decode) -> (name, List.map fst (to_fields (decode []))))
        decoders

    let of_fields ~workload fields =
      match
        match List.assoc_opt workload decoders with
        | Some decode ->
          let keys = List.assoc workload known_keys in
          List.iter
            (fun (k, _) ->
              if not (List.mem k keys) then
                bad "params: unknown key %S for %s (%s)" k workload
                  (String.concat ", " keys))
            fields;
          decode fields
        | None ->
          bad "unknown workload %S (%s)" workload (String.concat ", " names)
      with
      | p -> Ok p
      | exception Bad m -> Error m

    (* --- analysis ------------------------------------------------------- *)

    let working_set_elements = function
      | Matmul { n; tile = _ } -> 3 * n * n (* A, B, C *)
      | Tridiag { nsys; n; padded = _ } ->
        4 * nsys * n (* four coefficient arrays per system *)
      | Spmv _ ->
        (* the fixed-size QCD-like matrix: ~1.9M nonzeros in 3x3 blocks
           plus index and vector arrays *)
        2 * 1024 * 1024
      | Reduce { r_blocks; _ } ->
        (* input (2*threads elements per block, threads = 128) + partials *)
        r_blocks * 257
      | Histogram { h_blocks; bins; _ } ->
        (* input (threads * items per block) + per-block partial
           histograms *)
        h_blocks * ((128 * 4) + bins)
      | Degree { d_blocks; nodes; _ } ->
        (* src + dst endpoint arrays + per-block partial degree vectors *)
        d_blocks * ((2 * 128 * 4) + nodes)

    let analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx =
      function
      | Matmul { n; tile } ->
        Matmul.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
          ~n ~tile ()
      | Tridiag { nsys; n; padded } ->
        Tridiag.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
          ~nsys ~n ~padded ()
      | Spmv { spmv_format } ->
        Spmv.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
          (Spmv.qcd_like ()) spmv_format
      | Reduce { r_blocks; r_atomic } ->
        Reduce.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
          ~blocks:r_blocks
          (if r_atomic then Reduce.Atomic else Reduce.Sequential)
      | Histogram { h_blocks; bins; skew } ->
        Histogram.analyze ?spec ?measure ?sample ?replay_sample ?timeline
          ?ctx ~blocks:h_blocks ~bins ~skew ()
      | Degree { d_blocks; nodes; hub } ->
        Degree.analyze ?spec ?measure ?sample ?replay_sample ?timeline ?ctx
          ~blocks:d_blocks ~nodes ~hub ()
  end :
    S)
