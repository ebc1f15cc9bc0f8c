(** Lane sets as the memory analyzers count them: byte addresses in an
    [int array] indexed by lane plus an [int] bitmask of active lanes (bit
    [i] set = lane [i] active).  No allocation: the functional simulator
    stages each warp access into one reused buffer. *)

(** Lanes a mask can describe ([Sys.int_size]). *)
val max_lanes : int

(** [of_options ~who addresses] converts the [int option array] form
    ([None] = inactive lane) to addresses plus mask.  Raises
    [Invalid_argument] (prefixed by [who]) past {!max_lanes} lanes. *)
val of_options : who:string -> int option array -> int array * int

(** [group_mask mask ~start ~group]: the active lanes of the issue group
    [start .. start+group-1], shifted down so lane [start] is bit 0. *)
val group_mask : int -> start:int -> group:int -> int

(** [more mask ~start]: some lane at or above [start] is active. *)
val more : int -> start:int -> bool

(** Number of active lanes. *)
val count : int -> int
