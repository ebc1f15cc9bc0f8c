(** Domain-safe single-flight memoization: the one place in the system
    that computes a shared value at most once at a time, and the
    replacement for [lazy] in code reached from multiple domains
    ([Lazy.force] poisons on concurrent forcing).

    A table maps keys to values computed on demand.  The first caller of
    a missing key computes it outside the table's lock; concurrent
    callers of the same key block until that computation finishes and
    then share its value.  A computation that raises leaves no entry:
    its caller sees the exception (with its backtrace), and the callers
    that were waiting on it retry, as later callers do: one computes the
    key afresh and the others share that value.

    A computation must not ask its own table for its own key: it would
    wait for itself forever. *)

type ('k, 'v) t

(** An empty table, or one holding [seed]'s entries as finished values
    (e.g. entries loaded from disk).  Keys are compared structurally. *)
val create : ?seed:('k * 'v) list -> unit -> ('k, 'v) t

(** [get t k f] is [k]'s value, computing it as [f k] when the table has
    none.  When [on_fresh] is given, the caller that computed the value
    runs [on_fresh v] after publishing it, outside the lock, so
    {!finished} already includes [v]. *)
val get : ?on_fresh:('v -> unit) -> ('k, 'v) t -> 'k -> ('k -> 'v) -> 'v

(** The finished entries, in no particular order; computations still in
    flight are left out. *)
val finished : ('k, 'v) t -> ('k * 'v) list

(** Drop every entry.  Raises [Invalid_argument] (with the table's lock
    released) while a computation is in flight. *)
val clear : ('k, 'v) t -> unit

(** [once f] is a thunk that computes [f ()] at most once at a time: a
    table with a single key.  A value is shared by every later call; a
    failure is re-raised to its caller and retried by the next. *)
val once : (unit -> 'a) -> unit -> 'a
