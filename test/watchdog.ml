(* Bounded waits for the lock-discipline regression tests.  A domain
   blocked on a lock cannot be joined, so [spawn f] runs [f] on a fresh
   domain and [await] polls for its result for at most [timeout] seconds,
   failing the test instead of hanging it.  A domain that is still blocked
   is never joined; the process exits without it. *)

type 'a t = {
  domain : unit Domain.t;
  result : ('a, exn) result option Atomic.t;
}

let spawn f =
  let result = Atomic.make None in
  let domain =
    Domain.spawn (fun () ->
        Atomic.set result (Some (try Ok (f ()) with e -> Error e)))
  in
  { domain; result }

(* Poll [cond] every millisecond for at most [timeout] seconds. *)
let wait_until ?(timeout = 2.0) cond =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec poll () =
    cond () || (Unix.gettimeofday () < deadline && (Unix.sleepf 0.001; poll ()))
  in
  poll ()

(* [f]'s outcome, once it has returned or raised. *)
let await ?(timeout = 2.0) what t =
  if not (wait_until ~timeout (fun () -> Atomic.get t.result <> None)) then
    Alcotest.failf "%s: still blocked after %.0f s" what timeout;
  Domain.join t.domain;
  Option.get (Atomic.get t.result)

let await_ok ?timeout what t =
  match await ?timeout what t with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)

(* [f ()] on a fresh domain, bounded by [timeout]. *)
let run ?timeout what f = await ?timeout what (spawn f)
