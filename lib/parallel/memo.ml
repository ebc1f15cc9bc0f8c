(* Keyed single-flight table.  A key's slot is [Running] while its first
   caller computes it outside the lock, and [Done] once published; a
   failed computation removes the slot, so the next caller retries.
   [running] counts the [Running] slots, which [clear] refuses to drop. *)

type 'v slot = Running | Done of 'v

type ('k, 'v) t = {
  lock : Mutex.t;
  changed : Condition.t; (* a [Running] slot resolved *)
  slots : ('k, 'v slot) Hashtbl.t;
  mutable running : int;
}

let create ?(seed = []) () =
  let slots = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.replace slots k (Done v)) seed;
  { lock = Mutex.create (); changed = Condition.create (); slots;
    running = 0 }

(* Under the lock: the finished value, or [None] once this caller has
   claimed the key. *)
let rec await t k =
  match Hashtbl.find_opt t.slots k with
  | Some (Done v) -> Some v
  | Some Running ->
    Condition.wait t.changed t.lock;
    await t k
  | None ->
    Hashtbl.replace t.slots k Running;
    t.running <- t.running + 1;
    None

let get ?on_fresh t k f =
  match Mutex.protect t.lock (fun () -> await t k) with
  | Some v -> v
  | None ->
    let r = try Ok (f k) with e -> Error (e, Printexc.get_raw_backtrace ()) in
    Mutex.protect t.lock (fun () ->
        t.running <- t.running - 1;
        (match r with
        | Ok v -> Hashtbl.replace t.slots k (Done v)
        | Error _ -> Hashtbl.remove t.slots k);
        Condition.broadcast t.changed);
    (match r with
    | Ok v ->
      Option.iter (fun g -> g v) on_fresh;
      v
    | Error (e, bt) -> Printexc.raise_with_backtrace e bt)

let finished t =
  Mutex.protect t.lock (fun () ->
      Hashtbl.fold
        (fun k s acc -> match s with Done v -> (k, v) :: acc | Running -> acc)
        t.slots [])

let clear t =
  Mutex.protect t.lock (fun () ->
      if t.running > 0 then
        invalid_arg "Memo.clear: a computation is in flight";
      Hashtbl.reset t.slots)

let once f =
  let t = create () in
  fun () -> get t () f
